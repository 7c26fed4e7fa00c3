"""Dream generation: paired random walks over content and style graphs.

A dream is a sequence of frames. Each frame takes one random walk step on the
content graph and one on the style graph (step sizes drawn uniformly from an
integer interval), picks a stored percept at each resulting category, and
blends their features. The walk over categories is what gives dreams their
drift; the blend weight decides how strongly style tints content.
`DreamWalk.step` returns each frame whole and frozen; a `DreamFrameRow` keeps
it for dreams.csv.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .fields import GridCell, ValueField
from .semantics import Percept, PerceptStore, SemanticGraph, hop_counts, semantic_distance


@dataclass(frozen=True)
class DreamConfig:
    step_lower: int = 1
    step_upper: int = 3
    length: int = 8
    style_weight: float = 0.5

    def __post_init__(self) -> None:
        # step_upper >= step_lower >= 0 once both checks pass
        if self.step_lower < 0:
            raise ConfigError(f"dream.step_lower must be >= 0, got {self.step_lower}")
        if self.step_lower > self.step_upper:
            raise ConfigError(
                f"dream.step_lower {self.step_lower} exceeds step_upper {self.step_upper}"
            )
        if self.length < 0:
            raise ConfigError(f"dream.length must be >= 0, got {self.length}")
        if not (0.0 <= self.style_weight <= 1.0):
            raise ConfigError(f"dream.style_weight must be in [0, 1], got {self.style_weight}")


@dataclass(frozen=True, eq=False, slots=True)
class DreamFrame:
    """One blended frame: mixed features and where its two sources came from."""

    features: np.ndarray
    content_category: str
    style_category: str
    content_origin: GridCell
    # Edge distance from the previous frame's content category; None when unreachable.
    pair_distance: Optional[int]


@dataclass(frozen=True, slots=True)
class DreamFrameRow:
    """A frame as dreams.csv records it: who dreamed it, when, and its valence."""

    agent_id: int
    tick: int
    frame_index: int
    percept_id: str
    frame: DreamFrame
    valence: int


def walk_step(graph: SemanticGraph, current: str, omega: int, rng: np.random.Generator) -> str:
    """Take `omega` uniform neighbor hops from `current`.

    The endpoint is always within `omega` edges of the start.
    """
    node = current
    for _ in range(omega):
        nbrs = graph.neighbors(node)
        node = nbrs[int(rng.integers(len(nbrs)))]
    return node


def blend(content: Percept, style: Percept, style_weight: float) -> np.ndarray:
    """Mix content and style features, (1 - w) * content + w * style: [0, 1] stays in [0, 1]."""
    return (1.0 - style_weight) * content.features + style_weight * style.features


def _nearest_populated(graph: SemanticGraph, start: str, store: PerceptStore) -> str:
    """Closest category (by hop count) holding at least one percept.

    Ties at the same distance resolve lexicographically; if nothing populated
    is reachable, the smallest populated category overall is used.
    """
    hops = hop_counts(graph, start)
    populated = store.categories()
    reachable = [(hops[c], c) for c in populated if c in hops]
    return min(reachable)[1] if reachable else populated[0]


def _pick(
    store: PerceptStore, graph: SemanticGraph, category: str, rng: np.random.Generator
) -> Percept:
    """A uniform draw from the category's bucket, or the nearest populated one's."""
    cands = store.in_category(category)
    if not cands:
        cands = store.in_category(_nearest_populated(graph, category, store))
    return cands[int(rng.integers(len(cands)))]


class DreamWalk:
    """Incremental dream state: current categories on both graphs.

    Both stores must be non-empty: `agent_tick` and the `dream` command check.
    Initial categories are drawn uniformly from the categories that hold at
    least one stored percept. Stores are read live, so percepts attached while
    the walk is in progress become eligible for later frames.
    """

    def __init__(
        self,
        content_store: PerceptStore,
        content_graph: SemanticGraph,
        style_store: PerceptStore,
        style_graph: SemanticGraph,
        config: DreamConfig,
        rng: np.random.Generator,
    ) -> None:
        self.content_store = content_store
        self.content_graph = content_graph
        self.style_store = style_store
        self.style_graph = style_graph
        self.config = config
        cats = content_store.categories()
        self._content_cat = cats[int(rng.integers(len(cats)))]
        scats = style_store.categories()
        self._style_cat = scats[int(rng.integers(len(scats)))]
        self._prev_frame_cat = self._content_cat

    def step(self, rng: np.random.Generator) -> DreamFrame:
        """Advance both walks one frame, each by a step drawn from the config."""
        lo, hi = self.config.step_lower, self.config.step_upper
        omega_c = int(rng.integers(lo, hi + 1))
        self._content_cat = walk_step(self.content_graph, self._content_cat, omega_c, rng)
        omega_s = int(rng.integers(lo, hi + 1))
        self._style_cat = walk_step(self.style_graph, self._style_cat, omega_s, rng)
        content_p = _pick(self.content_store, self.content_graph, self._content_cat, rng)
        style_p = _pick(self.style_store, self.style_graph, self._style_cat, rng)
        prev, self._prev_frame_cat = self._prev_frame_cat, content_p.category
        distance = semantic_distance(self.content_graph, prev, content_p.category)
        mixed = blend(content_p, style_p, self.config.style_weight)
        return DreamFrame(mixed, content_p.category, style_p.category, content_p.origin, distance)


def dream_valence(
    frame: DreamFrame, field: ValueField, theta_high: float, theta_low: float
) -> int:
    """Score a frame against a field: +1 above theta_high, -1 below theta_low.

    The frame is judged by the field value at its content origin, the place
    the dreamed content was originally perceived. `EmotionParams` keeps the
    thresholds finite and ordered.
    """
    v = field.value_at(frame.content_origin)
    if v > theta_high:
        return 1
    if v < theta_low:
        return -1
    return 0
