"""World assembly and the tick scheduler.

A world holds n agents on a shared r x r grid. Each agent perceives the grid
through its own sampled importance field; the environment itself contributes
reward hotspots (positive bumps on every field) and one-shot content stimuli
scattered over cells. Per tick, agents act in ascending id order, then every
unordered pair of awake co-located agents exchanges percepts exactly once.
The full run is captured in a replayable trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, fields
from typing import Optional

import numpy as np

from .agents import SENDABLE_KINDS, Agent, AgentConfig, agent_tick, receive_percept
from .dreams import DreamFrameRow
from .errors import ConfigError
from .fields import MAX_RESOLUTION, GridCell, local_bump, sample_field
from .seeds import derive_seed, make_rng
from .semantics import (
    BUILTIN_CONTENT_EDGES,
    BUILTIN_STYLE_EDGES,
    Percept,
    SemanticGraph,
    load_graph,
)

STIMULUS_MODALITIES = ("music", "recipe")


@dataclass(frozen=True)
class WorldConfig:
    resolution: int = 16
    n_agents: int = 2
    total_ticks: int = 500
    reward_count: int = 3
    reward_peak: float = 0.8
    reward_width: float = 2.0
    stimulus_probability: float = 0.1
    stimulus_modalities: tuple[str, ...] = STIMULUS_MODALITIES
    feature_dim: int = 16
    master_seed: int = 0
    agent: AgentConfig = dc_field(default_factory=AgentConfig)
    content_edges: str = BUILTIN_CONTENT_EDGES
    style_edges: str = BUILTIN_STYLE_EDGES

    def __post_init__(self) -> None:
        if not (2 <= self.resolution <= MAX_RESOLUTION):
            raise ConfigError(
                f"world.resolution must be in [2, {MAX_RESOLUTION}], got {self.resolution}"
            )
        cells = self.resolution * self.resolution
        if not (1 <= self.n_agents <= cells):
            raise ConfigError(
                f"world.n_agents must be in [1, {cells}] for distinct spawns, "
                f"got {self.n_agents}"
            )
        if self.total_ticks < 0:
            raise ConfigError(f"world.total_ticks must be >= 0, got {self.total_ticks}")
        if not (0 <= self.reward_count <= cells):
            raise ConfigError(
                f"world.reward_count must be in [0, {cells}], got {self.reward_count}"
            )
        if not math.isfinite(self.reward_peak):
            raise ConfigError("world.reward_peak must be finite")
        if not (math.isfinite(self.reward_width) and self.reward_width > 0):
            raise ConfigError(f"world.reward_width must be > 0, got {self.reward_width}")
        if not (0.0 <= self.stimulus_probability <= 1.0):
            raise ConfigError(
                f"world.stimulus_probability must be in [0, 1], "
                f"got {self.stimulus_probability}"
            )
        for m in self.stimulus_modalities:
            if m not in STIMULUS_MODALITIES:
                raise ConfigError(
                    f"world.stimulus_modalities entry {m!r} not one of {STIMULUS_MODALITIES}"
                )
        if len(set(self.stimulus_modalities)) != len(self.stimulus_modalities):
            raise ConfigError("world.stimulus_modalities has duplicates")
        if self.feature_dim < 1:
            raise ConfigError(f"world.feature_dim must be >= 1, got {self.feature_dim}")
        if not (0 <= self.master_seed < 2**64):
            raise ConfigError(
                f"world.master_seed must be an unsigned 64-bit integer, "
                f"got {self.master_seed}"
            )


@dataclass(frozen=True)
class ContentStimulus:
    """A one-shot stimulus; `score` in [-1, 1] is the emotion event's payload."""

    modality: str
    score: float


@dataclass(frozen=True)
class InteractionRecord:
    tick: int
    agent_a: int
    agent_b: int
    cell: GridCell
    sent_by_a: str
    sent_by_b: str
    eval_by_a: float  # a's field value at the origin of b's percept
    eval_by_b: float


@dataclass(frozen=True)
class TraceRow:
    tick: int
    agent_id: int
    i: int
    j: int
    mode: str
    e_h: float
    e_c: float
    e_f: float
    e_k: float
    fatigue: float
    field_value: float
    events: tuple[str, ...]

    @classmethod
    def of(cls, agent: Agent, tick: int, events: tuple[str, ...]) -> TraceRow:
        """The trace.csv row of an agent's state at the end of a tick."""
        e = agent.emotions
        return cls(
            tick=tick,
            agent_id=agent.id,
            i=agent.position.i,
            j=agent.position.j,
            mode=agent.mode,
            e_h=e.happiness,
            e_c=e.curiosity,
            e_f=e.friendship,
            e_k=e.courage,
            fatigue=e.fatigue,
            field_value=agent.field.values.item(agent.position.i, agent.position.j),
            events=events,
        )


@dataclass(eq=False)
class SimulationTrace:
    """Everything a run produced, in the order it was produced.

    `percept_rows` pairs each stored percept with its owner's agent id, agent
    by agent, content store before style store.
    """

    rows: list[TraceRow]
    interactions: list[InteractionRecord]
    dream_rows: list[DreamFrameRow]
    percept_rows: list[tuple[int, Percept]]


@dataclass(frozen=True)
class Metrics:
    """Run summary; field order is the `metrics.csv` row order."""

    interactions: int
    photos: int
    dream_frames: int
    total_moves: int
    moves_per_agent: tuple[int, ...]
    mean_happiness: float
    mean_curiosity: float
    mean_friendship: float
    mean_courage: float
    mean_fatigue: float

    def items(self) -> list[tuple[str, object]]:
        """(name, value) per field, with one `moves_agent_<k>` per agent."""
        out: list[tuple[str, object]] = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "moves_per_agent":
                out.extend((f"moves_agent_{aid}", m) for aid, m in enumerate(value))
            else:
                out.append((f.name, value))
        return out


def load_graphs(config: WorldConfig) -> tuple[SemanticGraph, SemanticGraph]:
    """The (content, style) graphs of a world, seeded from its master seed."""
    ms, fd = config.master_seed, config.feature_dim
    content = load_graph(config.content_edges, derive_seed(ms, "content-graph"), fd)
    style = load_graph(config.style_edges, derive_seed(ms, "style-graph"), fd)
    return content, style


class World:
    """Mutable simulation state; see `build_world` and `run`."""

    def __init__(self, config: WorldConfig):
        self.config = config
        self.tick = 0
        ms = config.master_seed
        fd = config.feature_dim
        self.content_graph, self.style_graph = load_graphs(config)
        r = config.resolution
        rng = make_rng(derive_seed(ms, "world"))
        spawn_idx = rng.choice(r * r, size=config.n_agents, replace=False)
        self.agents: list[Agent] = []
        for aid in range(config.n_agents):
            field = sample_field(config.agent.kernel, r, make_rng(derive_seed(ms, "field", aid)))
            idx = int(spawn_idx[aid])
            self.agents.append(
                Agent(
                    id=aid,
                    config=config.agent,
                    position=GridCell(idx // r, idx % r),
                    field=field,
                    rng=make_rng(derive_seed(ms, "agent", aid)),
                )
            )
        # Environmental rewards land on every agent's field at the same cells.
        if config.reward_count > 0:
            reward_idx = rng.choice(r * r, size=config.reward_count, replace=False)
            for idx in reward_idx:
                cell = GridCell(int(idx) // r, int(idx) % r)
                for agent in self.agents:
                    agent.field = local_bump(
                        agent.field, cell, config.reward_peak, config.reward_width
                    )
        # One-shot stimuli, at most one per cell, row-major placement order.
        self.stimuli: dict[GridCell, ContentStimulus] = {}
        mods = config.stimulus_modalities
        if mods and config.stimulus_probability > 0:
            for i in range(r):
                for j in range(r):
                    if float(rng.random()) < config.stimulus_probability:
                        modality = mods[int(rng.integers(len(mods)))]
                        # the feature mean, rescaled from [0, 1] to [-1, 1]
                        score = 2.0 * float(np.mean(rng.random(fd))) - 1.0
                        self.stimuli[GridCell(i, j)] = ContentStimulus(modality, score)
        self._feature_cache: dict[GridCell, np.ndarray] = {}
        self.rows: list[TraceRow] = []
        self.interactions: list[InteractionRecord] = []
        self.dream_rows: list[DreamFrameRow] = []
        # Tick 0 rows snapshot the initial state before anything happens.
        for agent in self.agents:
            self.rows.append(TraceRow.of(agent, 0, ()))

    # -- agent environment hooks ------------------------------------------

    def cell_features(self, cell: GridCell) -> np.ndarray:
        """Deterministic per-cell feature vector in [0, 1]^feature_dim."""
        cached = self._feature_cache.get(cell)
        if cached is None:
            rng = make_rng(derive_seed(self.config.master_seed, "cell", cell.i, cell.j))
            cached = rng.random(self.config.feature_dim)
            self._feature_cache[cell] = cached
        return cached

    def take_stimulus(self, cell: GridCell) -> Optional[ContentStimulus]:
        """Consume (and remove) the stimulus at a cell, if any."""
        return self.stimuli.pop(cell, None)

    # -- scheduling --------------------------------------------------------

    def step(self) -> None:
        """One world tick: agents act in id order, then co-located pairs meet."""
        t = self.tick + 1
        events: list[list[str]] = []  # indexed by agent id
        for agent in self.agents:
            agent_events, dream_row = agent_tick(agent, self, t)
            events.append(agent_events)
            if dream_row is not None:
                self.dream_rows.append(dream_row)
        groups: dict[GridCell, list[Agent]] = {}
        for agent in self.agents:
            if agent.mode == "awake":
                groups.setdefault(agent.position, []).append(agent)
        for cell in sorted(groups):
            members = groups[cell]  # ascending id by construction
            for x in range(len(members)):
                for y in range(x + 1, len(members)):
                    rec = interact(members[x], members[y], t)
                    if rec is None:
                        continue
                    self.interactions.append(rec)
                    events[rec.agent_a].append(f"int:{rec.agent_b}:{rec.sent_by_b}")
                    events[rec.agent_b].append(f"int:{rec.agent_a}:{rec.sent_by_a}")
        for agent in self.agents:
            self.rows.append(TraceRow.of(agent, t, tuple(events[agent.id])))
        self.tick = t

    def snapshot_trace(self) -> SimulationTrace:
        return SimulationTrace(
            rows=list(self.rows),
            interactions=list(self.interactions),
            dream_rows=list(self.dream_rows),
            percept_rows=[
                (agent.id, p)
                for agent in self.agents
                for store in (agent.percepts, agent.styles)
                for p in store
            ],
        )


def interact(a: Agent, b: Agent, tick: int) -> Optional[InteractionRecord]:
    """Exchange most recent shareable percepts between two co-located agents.

    No-op (no record) when either side has nothing shareable yet. Duplicate
    ids on the receiving side are evaluated but change no state, and the
    encounter is still recorded.
    """
    pa = a.percepts.latest(SENDABLE_KINDS)
    pb = b.percepts.latest(SENDABLE_KINDS)
    if pa is None or pb is None:
        return None
    eval_b = receive_percept(b, pa)
    eval_a = receive_percept(a, pb)
    return InteractionRecord(
        tick=tick,
        agent_a=a.id,
        agent_b=b.id,
        cell=a.position,
        sent_by_a=pa.id,
        sent_by_b=pb.id,
        eval_by_a=eval_a,
        eval_by_b=eval_b,
    )


def build_world(config: WorldConfig) -> World:
    return World(config)


def run(config: WorldConfig) -> SimulationTrace:
    """Build a world from the config, run every tick, return the full trace."""
    world = build_world(config)
    for _ in range(config.total_ticks):
        world.step()
    return world.snapshot_trace()


def row_metrics(
    rows: list[TraceRow], *, interactions: int, photos: int, dream_frames: int
) -> Metrics:
    """Metrics from trace rows plus event counts taken by the caller.

    Moves are successive position changes per agent, recounted from the rows
    (not from agent counters); the emotion means run over every row.
    """
    last_pos: dict[int, tuple[int, int]] = {}
    moves: dict[int, int] = {}
    sums = [0.0, 0.0, 0.0, 0.0, 0.0]
    for row in rows:
        moves.setdefault(row.agent_id, 0)
        prev = last_pos.get(row.agent_id)
        if prev is not None and prev != (row.i, row.j):
            moves[row.agent_id] += 1
        last_pos[row.agent_id] = (row.i, row.j)
        sums[0] += row.e_h
        sums[1] += row.e_c
        sums[2] += row.e_f
        sums[3] += row.e_k
        sums[4] += row.fatigue
    n = len(rows)
    means = [s / n if n else 0.0 for s in sums]
    per_agent = tuple(moves[aid] for aid in sorted(moves))
    return Metrics(
        interactions=interactions,
        photos=photos,
        dream_frames=dream_frames,
        total_moves=sum(per_agent),
        moves_per_agent=per_agent,
        mean_happiness=means[0],
        mean_curiosity=means[1],
        mean_friendship=means[2],
        mean_courage=means[3],
        mean_fatigue=means[4],
    )


def metrics(trace: SimulationTrace) -> Metrics:
    """Summary statistics recomputed from the trace itself.

    Moves and means come from the rows (see `row_metrics`); photo totals come
    from stored observed percepts; interaction and dream totals come from
    their records.
    """
    return row_metrics(
        trace.rows,
        interactions=len(trace.interactions),
        photos=sum(1 for _, p in trace.percept_rows if p.kind == "observed"),
        dream_frames=len(trace.dream_rows),
    )
