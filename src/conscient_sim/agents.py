"""Embodied agents: navigation, photo-taking, percept exchange, sleep.

An agent owns a private importance field, a private random stream, two percept
stores (content and style), and an emotion state. Awake it climbs its field
(with an exploration chance), photographs interesting cells on a fixed cadence,
and consumes content stimuli; asleep it dreams one frame per tick and wakes
with its field contaminated by fresh noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional, Protocol

import numpy as np

from .dreams import DreamConfig, DreamFrameRow, DreamWalk, dream_valence
from .emotions import EmotionParams, EmotionState, apply_event, should_sleep, tick_emotions
from .errors import ConfigError
from .fields import (
    GridCell,
    KernelConfig,
    ValueField,
    contaminate,
    local_bump,
    moore_neighbors,
    steepest_neighbor,
)
from .semantics import Percept, PerceptStore, SemanticGraph, classify

# Percept kinds an agent is willing to send to a peer.
SENDABLE_KINDS = ("observed", "dreamed")


@dataclass(frozen=True)
class AgentConfig:
    t_awake: int = 30
    t_asleep: int = 10
    photo_period: int = 3
    explore_rate: float = 0.3
    movement_budget: int = 1_000_000
    visit_peak: float = -0.5
    visit_width: float = 1.5
    visit_reward: float = 0.3
    noise_sigma: float = 0.05
    style_every: int = 5
    low_happiness_cutoff: float = 0.2
    dream: DreamConfig = dc_field(default_factory=DreamConfig)
    emotion: EmotionParams = dc_field(default_factory=EmotionParams)
    kernel: KernelConfig = dc_field(default_factory=KernelConfig)

    def __post_init__(self) -> None:
        if self.t_awake < 1:
            raise ConfigError(f"agent.t_awake must be >= 1, got {self.t_awake}")
        if self.t_asleep < 1:
            raise ConfigError(f"agent.t_asleep must be >= 1, got {self.t_asleep}")
        if self.photo_period < 1:
            raise ConfigError(f"agent.photo_period must be >= 1, got {self.photo_period}")
        if not (0.0 <= self.explore_rate <= 1.0):
            raise ConfigError(f"agent.explore_rate must be in [0, 1], got {self.explore_rate}")
        if self.movement_budget < 0:
            raise ConfigError(
                f"agent.movement_budget must be >= 0, got {self.movement_budget}"
            )
        if not (math.isfinite(self.visit_peak) and self.visit_peak < 0):
            raise ConfigError(f"agent.visit_peak must be < 0, got {self.visit_peak}")
        if not (math.isfinite(self.visit_width) and self.visit_width > 0):
            raise ConfigError(f"agent.visit_width must be > 0, got {self.visit_width}")
        if not (math.isfinite(self.visit_reward) and self.visit_reward >= 0):
            raise ConfigError(f"agent.visit_reward must be >= 0, got {self.visit_reward}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ConfigError(f"agent.noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.style_every < 1:
            raise ConfigError(f"agent.style_every must be >= 1, got {self.style_every}")
        if not (0.0 <= self.low_happiness_cutoff <= 1.0):
            raise ConfigError(
                f"agent.low_happiness_cutoff must be in [0, 1], "
                f"got {self.low_happiness_cutoff}"
            )


class WorldContext(Protocol):
    """What an agent needs from its environment during a tick."""

    content_graph: SemanticGraph
    style_graph: SemanticGraph

    def cell_features(self, cell: GridCell) -> np.ndarray: ...

    def take_stimulus(self, cell: GridCell):  # returns ContentStimulus | None
        ...


@dataclass(eq=False)
class Agent:
    id: int
    config: AgentConfig
    position: GridCell
    field: ValueField
    rng: np.random.Generator
    emotions: EmotionState = dc_field(default_factory=EmotionState)
    mode: str = "awake"
    ticks_in_mode: int = 0
    moves_used: int = 0
    percepts: PerceptStore = dc_field(default_factory=PerceptStore)
    styles: PerceptStore = dc_field(default_factory=PerceptStore)
    photo_count: int = 0
    dream_frame_count: int = 0
    _walk: Optional[DreamWalk] = dc_field(default=None, repr=False)


def logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def navigate_step(agent: Agent) -> GridCell:
    """One movement decision: explore a random neighbor or climb the field.

    At most one cell per tick. Nothing happens once the movement budget is
    spent; hill-climbing from a local peak also stays put (and costs no
    budget). Moving while unhappy costs extra fatigue. Draws come from the
    agent's own stream.
    """
    cfg, rng = agent.config, agent.rng
    if agent.moves_used >= cfg.movement_budget:
        return agent.position
    if float(rng.random()) < cfg.explore_rate:
        nbrs = moore_neighbors(agent.position, agent.field.resolution)
        target = nbrs[int(rng.integers(len(nbrs)))]
    else:
        target = steepest_neighbor(agent.field, agent.position)
    if target != agent.position:
        agent.position = target
        agent.moves_used += 1
        if agent.emotions.happiness < cfg.low_happiness_cutoff:
            # sad movement is costly: one extra fatigue tick per move
            bumped = agent.emotions.copy()
            bumped.fatigue = min(1.0, bumped.fatigue + cfg.emotion.fatigue_tick)
            agent.emotions = bumped
    return agent.position


def maybe_take_photo(agent: Agent, ctx: WorldContext, tick: int) -> Optional[Percept]:
    """Photograph the current cell if the cadence and the field allow it.

    Decisions only happen every photo_period-th awake tick. The take chance is
    logistic in the field value, so valuable cells are photographed often and
    worthless ones rarely. A taken photo is classified, stored, penalizes its
    cell on the field, and moves emotions by how good the cell looked; every
    style_every-th photo is duplicated into the style store.
    """
    cfg = agent.config
    if (agent.ticks_in_mode + 1) % cfg.photo_period != 0:
        return None
    value = agent.field.value_at(agent.position)
    if float(agent.rng.random()) >= logistic(value):
        return None
    features = ctx.cell_features(agent.position)
    agent.photo_count += 1
    percept = Percept(
        id=f"a{agent.id}-p{agent.photo_count}",
        features=features,
        category=classify(features, ctx.content_graph),
        origin=agent.position,
        tick=tick,
        kind="observed",
    )
    agent.percepts.attach(percept)
    if agent.photo_count % cfg.style_every == 0:
        agent.styles.attach(
            Percept(
                id=f"a{agent.id}-s{agent.photo_count}",
                features=features,
                category=classify(features, ctx.style_graph),
                origin=agent.position,
                tick=tick,
                kind="style",
            )
        )
    agent.field = local_bump(agent.field, agent.position, cfg.visit_peak, cfg.visit_width)
    agent.emotions = apply_event(agent.emotions, "photo_taken", value, cfg.emotion, agent.rng)
    return percept


def receive_percept(agent: Agent, percept: Percept) -> float:
    """Evaluate an exchanged percept by the receiver's own field.

    The evaluation is the receiver's field value at the percept's origin,
    computed before any feedback. A novel percept is stored as kind
    `received`, nudges the field at its origin up or down depending on how
    the evaluation compares with the high-value cutoff, and moves friendship;
    a duplicate id changes nothing but is still evaluated.
    """
    evaluation = agent.field.value_at(percept.origin)
    if percept.id in agent.percepts:
        return evaluation
    cfg = agent.config
    agent.percepts.attach(
        Percept(
            id=percept.id,
            features=percept.features,
            category=percept.category,
            origin=percept.origin,
            tick=percept.tick,
            kind="received",
        )
    )
    agent.emotions = apply_event(agent.emotions, "interaction", evaluation, cfg.emotion, agent.rng)
    peak = cfg.visit_reward if evaluation > cfg.emotion.high_value_cutoff else -cfg.visit_reward
    if peak != 0.0:
        agent.field = local_bump(agent.field, percept.origin, peak, cfg.visit_width)
    return evaluation


def agent_tick(
    agent: Agent, ctx: WorldContext, tick: int
) -> tuple[list[str], Optional[DreamFrameRow]]:
    """Advance one agent by one tick; returns its trace events and its dream row, if any."""
    cfg = agent.config
    events: list[str] = []
    dream_row = None
    if agent.mode == "awake":
        navigate_step(agent)
        photo = maybe_take_photo(agent, ctx, tick)
        if photo is not None:
            events.append(f"photo:{photo.id}")
        stim = ctx.take_stimulus(agent.position)
        if stim is not None:
            agent.emotions = apply_event(
                agent.emotions, "content_stimulus", stim.score, cfg.emotion, agent.rng
            )
            events.append(f"stim:{stim.modality}")
        agent.emotions = tick_emotions(agent.emotions, cfg.emotion, "awake")
        agent.ticks_in_mode += 1
        if should_sleep(agent.emotions, agent.ticks_in_mode, cfg.t_awake, cfg.emotion, agent.rng):
            agent.mode = "asleep"
            agent.ticks_in_mode = 0
            if len(agent.percepts) > 0 and len(agent.styles) > 0:
                agent._walk = DreamWalk(
                    agent.percepts,
                    ctx.content_graph,
                    agent.styles,
                    ctx.style_graph,
                    cfg.dream,
                    agent.rng,
                )
            else:
                agent._walk = None  # dreamless sleep
            events.append("sleep")
    else:
        if agent._walk is not None:
            frame = agent._walk.step(agent.rng)
            valence = dream_valence(
                frame, agent.field, cfg.emotion.valence_high, cfg.emotion.valence_low
            )
            agent.emotions = apply_event(
                agent.emotions, "dream_frame", float(valence), cfg.emotion, agent.rng
            )
            agent.dream_frame_count += 1
            dreamed = Percept(
                id=f"a{agent.id}-d{agent.dream_frame_count}",
                features=frame.features,
                category=frame.content_category,
                origin=frame.content_origin,
                tick=tick,
                kind="dreamed",
            )
            agent.percepts.attach(dreamed)
            events.append(f"dream:{dreamed.id}")
            dream_row = DreamFrameRow(
                agent.id, tick, agent.dream_frame_count, dreamed.id, frame, valence
            )
        else:
            events.append("dreamless")
        agent.emotions = tick_emotions(agent.emotions, cfg.emotion, "asleep")
        agent.ticks_in_mode += 1
        if agent.ticks_in_mode >= cfg.t_asleep:
            agent.field = contaminate(agent.field, cfg.noise_sigma, agent.rng)
            agent._walk = None
            agent.mode = "awake"
            agent.ticks_in_mode = 0
            events.append("wake")
    return events, dream_row
