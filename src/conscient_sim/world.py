"""World assembly and the tick scheduler.

A world holds n agents on a shared r x r grid. Each agent perceives the grid
through its own sampled importance field; the environment itself contributes
reward hotspots (positive bumps on every field) and one-shot content stimuli
scattered over cells. Fields, spawns, stimuli, graphs and cell features
depend on no agent setting, so worlds share them through a per-process
`WorldLayout` cache. Per tick, agents act in ascending id order, then every
unordered pair of awake co-located agents exchanges percepts exactly once.
A world is the record of its own run, and `run` returns it after its last
tick. The run's summary, `Metrics`, is one fold over the trace rows alone
(`row_metrics`): `simulate` writes it, `fitness` maximises it, and
`conscient-sim metrics` recounts it from a trace file with the same function.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field, fields
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional

import numpy as np

from .agents import Agent, AgentConfig, agent_tick, receive_percept
from .dreams import DreamFrameRow
from .errors import ConfigError, GraphParseError, bound, check_bounds
from .fields import (
    MAX_RESOLUTION,
    GridCell,
    KernelConfig,
    ValueField,
    check_width,
    local_bump,
    sample_field,
)
from .seeds import StoredSeed, Stream, derive_seed, make_rng
from .semantics import (
    BUILTIN_CONTENT_EDGES,
    BUILTIN_STYLE_EDGES,
    Percept,
    PerceptStore,
    SemanticGraph,
    load_graph,
)

STIMULUS_MODALITIES = ("music", "recipe")
# Every graph node and every visited cell holds a feature_dim-long vector: at
# resolution 128 the cell features alone take about 134 MB at this bound.
MAX_FEATURE_DIM = 1024


@dataclass(frozen=True)
class WorldConfig:
    resolution: int = bound(16, 2, MAX_RESOLUTION)
    n_agents: int = 2
    total_ticks: int = bound(500, 0)
    reward_count: int = 3
    reward_peak: float = 0.8
    reward_width: float = bound(2.0, 0, strict=True)
    stimulus_probability: float = bound(0.1, 0, 1)
    stimulus_modalities: tuple[str, ...] = STIMULUS_MODALITIES
    feature_dim: int = bound(16, 1, MAX_FEATURE_DIM)
    master_seed: int = bound(0, 0, 2**64 - 1)
    agent: AgentConfig = dc_field(default_factory=AgentConfig)
    kernel: KernelConfig = dc_field(default_factory=KernelConfig)
    content_edges: str = BUILTIN_CONTENT_EDGES
    style_edges: str = BUILTIN_STYLE_EDGES

    def __post_init__(self) -> None:
        check_bounds(self, "world")
        cells = self.resolution * self.resolution
        if not (1 <= self.n_agents <= cells):
            raise ConfigError(
                f"world.n_agents must be in [1, {cells}] for distinct spawns, "
                f"got {self.n_agents}"
            )
        if not (0 <= self.reward_count <= cells):
            raise ConfigError(
                f"world.reward_count must be in [0, {cells}], got {self.reward_count}"
            )
        check_width(self, "world", "reward_width")
        for m in self.stimulus_modalities:
            if m not in STIMULUS_MODALITIES:
                raise ConfigError(
                    f"world.stimulus_modalities entry {m!r} not one of {STIMULUS_MODALITIES}"
                )
        if len(set(self.stimulus_modalities)) != len(self.stimulus_modalities):
            raise ConfigError("world.stimulus_modalities has duplicates")


@dataclass(frozen=True)
class ContentStimulus:
    """A one-shot stimulus; `score` in [-1, 1] is the emotion event's payload."""

    modality: str
    score: float


class InteractionRecord(NamedTuple):
    """One interactions.csv row: a tuple, cheap to build for every exchange."""

    tick: int
    agent_a: int
    agent_b: int
    cell: GridCell
    sent_by_a: str
    sent_by_b: str
    eval_by_a: float  # a's field value at the origin of b's percept
    eval_by_b: float


# what `agent_tick` and `World.step` write in an event cell: whole words and payload prefixes
EVENT_WORDS = frozenset({"sleep", "dreamless", "wake"})
EVENT_PREFIXES = ("photo:", "stim:", "dream:", "int:")


class TraceRow(NamedTuple):
    """One trace.csv row: a tuple, as every tick and every replayed line builds one."""

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
        pos = agent.position
        i, j = pos.i, pos.j
        return cls(
            tick,
            agent.id,
            i,
            j,
            agent.mode,
            e.happiness,
            e.curiosity,
            e.friendship,
            e.courage,
            e.fatigue,
            agent.field.values.item(i, j),
            events,
        )


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
    graphs = []
    for kind, edges in (("content", config.content_edges), ("style", config.style_edges)):
        try:
            graphs.append(load_graph(edges, derive_seed(ms, f"{kind}-graph"), fd))
        except GraphParseError as exc:
            raise GraphParseError(f"world.{kind}_graph: {exc}") from None
    return graphs[0], graphs[1]


@dataclass(frozen=True, eq=False)
class WorldLayout:
    """The part of a world that is fixed before its first tick and that no gene moves.

    Worlds whose configs differ only in `world.total_ticks` and in the agent
    settings (`agent.*`, `dream.*` and `emotion.*`, where the genes live)
    share one layout, as no agent setting shapes it: the graphs and their
    warm memos, each agent's reward-bumped field, spawn cell and stream seed,
    the stimulus table, and the cell features those worlds have asked for.
    Worlds only read it; the field arrays and feature vectors are read-only,
    and each world copies the stimulus table it consumes.
    """

    content_graph: SemanticGraph
    style_graph: SemanticGraph
    agent_fields: tuple[ValueField, ...]  # indexed by agent id
    spawns: tuple[GridCell, ...]  # indexed by agent id
    agent_seeds: tuple[StoredSeed, ...]  # indexed by agent id
    stimuli: Mapping[GridCell, ContentStimulus]
    features: dict[GridCell, np.ndarray]  # filled lazily by `World.cell_features`


# WorldConfig fields no layout reads
_RUN_FIELDS = ("agent", "total_ticks")


def world_layout(config: WorldConfig) -> WorldLayout:
    """The layout of `config`, built once per process for each distinct key."""
    key = tuple(
        (f.name, getattr(config, f.name)) for f in fields(config) if f.name not in _RUN_FIELDS
    )
    return _cached_layout(key)


@functools.lru_cache(maxsize=8)
def _cached_layout(world_items: tuple[tuple[str, object], ...]) -> WorldLayout:
    # every config sharing this key has this layout; a failed build raises and is not cached
    config = WorldConfig(**dict(world_items))
    ms = config.master_seed
    fd = config.feature_dim
    content_graph, style_graph = load_graphs(config)
    r = config.resolution
    rng = make_rng(derive_seed(ms, "world"))
    spawns = tuple(
        GridCell(int(idx) // r, int(idx) % r)
        for idx in rng.choice(r * r, size=config.n_agents, replace=False)
    )
    # Environmental rewards land on every agent's field at the same cells.
    rewards: tuple[GridCell, ...] = ()
    if config.reward_count > 0:
        reward_idx = rng.choice(r * r, size=config.reward_count, replace=False)
        rewards = tuple(GridCell(int(idx) // r, int(idx) % r) for idx in reward_idx)
    agent_fields = []
    agent_seeds = []
    for aid in range(config.n_agents):
        agent_seeds.append(StoredSeed(derive_seed(ms, "agent", aid)))
        field = sample_field(config.kernel, r, make_rng(derive_seed(ms, "field", aid)))
        for cell in rewards:
            field = local_bump(field, cell, config.reward_peak, config.reward_width)
        field.values.flags.writeable = False
        agent_fields.append(field)
    # One-shot stimuli, at most one per cell, row-major placement order.
    stimuli: dict[GridCell, ContentStimulus] = {}
    mods = config.stimulus_modalities
    if mods and config.stimulus_probability > 0:
        for i in range(r):
            for j in range(r):
                if float(rng.random()) < config.stimulus_probability:
                    modality = mods[int(rng.integers(len(mods)))]
                    # the feature mean, rescaled from [0, 1] to [-1, 1]
                    score = 2.0 * float(np.mean(rng.random(fd))) - 1.0
                    stimuli[GridCell(i, j)] = ContentStimulus(modality, score)
    return WorldLayout(
        content_graph=content_graph,
        style_graph=style_graph,
        agent_fields=tuple(agent_fields),
        spawns=spawns,
        agent_seeds=tuple(agent_seeds),
        stimuli=MappingProxyType(stimuli),
        features={},
    )


class World:
    """Mutable simulation state over a shared `WorldLayout`, and its run's only record."""

    def __init__(self, config: WorldConfig):
        self.config = config
        self.tick = 0
        layout = world_layout(config)
        self._features = layout.features
        self.stimuli: dict[GridCell, ContentStimulus] = dict(layout.stimuli)
        self.agents: list[Agent] = [
            Agent(
                id=aid,
                config=config.agent,
                position=spawn,
                field=field,
                rng=Stream(seed),
                percepts=PerceptStore(layout.content_graph),
                styles=PerceptStore(layout.style_graph),
            )
            for aid, (spawn, field, seed) in enumerate(
                zip(layout.spawns, layout.agent_fields, layout.agent_seeds)
            )
        ]
        self.rows: list[TraceRow] = []
        self.interactions: list[InteractionRecord] = []
        self.dream_rows: list[DreamFrameRow] = []
        # Tick 0 rows snapshot the initial state before anything happens.
        for agent in self.agents:
            self.rows.append(TraceRow.of(agent, 0, ()))

    # -- agent environment hooks ------------------------------------------

    def cell_features(self, cell: GridCell) -> np.ndarray:
        """Deterministic, read-only per-cell feature vector in [0, 1]^feature_dim."""
        cached = self._features.get(cell)
        if cached is None:
            rng = make_rng(derive_seed(self.config.master_seed, "cell", cell.i, cell.j))
            cached = rng.random(self.config.feature_dim)
            cached.flags.writeable = False
            self._features[cell] = cached
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

    @property
    def percept_rows(self) -> list[tuple[int, Percept]]:
        """(owner id, percept) per stored percept: agent by agent, content before style."""
        return [
            (agent.id, p)
            for agent in self.agents
            for store in (agent.percepts, agent.styles)
            for p in store
        ]

    def snapshot_trace(self) -> World:
        """This world, uncopied; the name stays as `bench/tracer.py` traces it (ROADMAP item 23)."""
        return self


def interact(a: Agent, b: Agent, tick: int) -> Optional[InteractionRecord]:
    """Exchange most recent shareable percepts between two co-located agents.

    No-op (no record) when either side has nothing shareable yet. Duplicate
    ids on the receiving side are evaluated but change no state, and the
    encounter is still recorded.
    """
    pa = a.percepts.latest()
    pb = b.percepts.latest()
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


def run(config: WorldConfig) -> World:
    """Build a world from the config, run every tick, return the world as its record."""
    world = build_world(config)
    for _ in range(config.total_ticks):
        world.step()
    return world


def row_metrics(rows: Iterable[TraceRow]) -> Metrics:
    """The run summary of any stream of trace rows, counted in one pass.

    Moves are successive position changes per agent, recounted from the rows
    (not from agent counters); the emotion means run over every row. Photos
    and dream frames are their `photo:` and `dream:` tokens. Interactions are
    half the `int:` tokens: `World.step` writes one on each partner's row, and
    `traceio.iter_trace_csv` rejects a token without its mirror or repeated in
    a tick.
    """
    last_pos: dict[int, tuple[int, int]] = {}
    moves: dict[int, int] = {}
    n = photos = dream_frames = int_tokens = 0
    s_h = s_c = s_f = s_k = s_fat = 0.0
    # unpacked, as a NamedTuple attribute read costs twice a tuple unpack
    for _, aid, i, j, _, e_h, e_c, e_f, e_k, fatigue, _, events in rows:
        n += 1
        moves.setdefault(aid, 0)
        prev = last_pos.get(aid)
        pos = (i, j)
        if prev is not None and prev != pos:
            moves[aid] += 1
        last_pos[aid] = pos
        s_h += e_h
        s_c += e_c
        s_f += e_f
        s_k += e_k
        s_fat += fatigue
        for token in events:
            if token.startswith("photo:"):
                photos += 1
            elif token.startswith("dream:"):
                dream_frames += 1
            elif token.startswith("int:"):
                int_tokens += 1
    means = [s / n if n else 0.0 for s in (s_h, s_c, s_f, s_k, s_fat)]
    per_agent = tuple(moves[aid] for aid in sorted(moves))
    # in field order: counts, moves, then the five means
    return Metrics(int_tokens // 2, photos, dream_frames, sum(per_agent), per_agent, *means)


def metrics(world: World) -> Metrics:
    """Summary statistics recomputed from the world's trace rows; see `row_metrics`."""
    return row_metrics(world.rows)
