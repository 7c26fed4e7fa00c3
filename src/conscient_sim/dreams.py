"""Dream generation: paired random walks over content and style graphs.

A dream is a sequence of frames. Each frame takes one random walk step on the
content graph and one on the style graph (step sizes drawn uniformly from an
integer interval), picks a stored percept at each resulting category, and
blends their features. The walk over categories is what gives dreams their
drift; the blend weight decides how strongly style tints content.
`DreamWalk.step` returns each frame as one `DreamFrame` tuple, and a
`DreamFrameRow` tuple keeps it for dreams.csv: a frame costs those two tuples
and the dreamed percept an agent stores, and no frozen dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import bound, check_bounds
from .fields import GridCell, ValueField
from .seeds import Stream
from .semantics import Percept, PerceptStore, SemanticGraph, semantic_distance


# Every step span fits one 32-bit draw, and a frame walks at most 2,048 hops.
MAX_DREAM_STEP = 1024


@dataclass(frozen=True)
class DreamConfig:
    step_lower: int = bound(1, 0, at_most="step_upper")
    step_upper: int = bound(3, hi=MAX_DREAM_STEP)
    length: int = bound(8, 0)
    style_weight: float = bound(0.5, 0, 1)

    def __post_init__(self) -> None:
        check_bounds(self, "dream")


class DreamFrame(NamedTuple):
    """One blended frame: mixed features and where its two sources came from.

    A tuple compared, like a `Percept`, by identity: its features are an array.
    """

    features: np.ndarray
    content_category: str
    style_category: str
    content_origin: GridCell
    # Edge distance from the previous frame's content category; None when unreachable.
    pair_distance: Optional[int]

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


class DreamFrameRow(NamedTuple):
    """A frame as dreams.csv records it: who dreamed it, when, and its valence."""

    agent_id: int
    tick: int
    frame_index: int
    percept_id: str
    frame: DreamFrame
    valence: int


def walk_step(graph: SemanticGraph, current: str, omega: int, rng: Stream) -> str:
    """Take `omega` uniform neighbor hops from `current`.

    The endpoint is always within `omega` edges of the start.
    """
    adjacency = graph.adjacency
    node = current
    for _ in range(omega):
        nbrs = adjacency[node]
        node = nbrs[rng.integers(len(nbrs))]
    return node


def blend(content: Percept, style: Percept, style_weight: float) -> np.ndarray:
    """Mix content and style features, (1 - w) * content + w * style: [0, 1] stays in [0, 1]."""
    return (1.0 - style_weight) * content.features + style_weight * style.features


def _pick(store: PerceptStore, category: str, rng: Stream) -> Percept:
    """A uniform draw from the category's bucket, or the nearest populated one's."""
    cands = store.dream_bucket(category)
    return cands[rng.integers(len(cands))]


class DreamWalk:
    """Incremental dream state: current categories on both stores' graphs.

    Both stores must be non-empty: `agent_tick` and the `dream` command check.
    Initial categories are drawn uniformly from the categories that hold at
    least one stored percept. Stores are read live, so percepts attached while
    the walk is in progress become eligible for later frames.
    """

    def __init__(
        self,
        content_store: PerceptStore,
        style_store: PerceptStore,
        config: DreamConfig,
        rng: Stream,
    ) -> None:
        self.content_store = content_store
        self.style_store = style_store
        self.config = config
        cats = content_store.categories()
        self._content_cat = cats[rng.integers(len(cats))]
        scats = style_store.categories()
        self._style_cat = scats[rng.integers(len(scats))]
        self._prev_frame_cat = self._content_cat

    def step(self, rng: Stream) -> DreamFrame:
        """Advance both walks one frame, each by a step drawn from the config."""
        lo, hi = self.config.step_lower, self.config.step_upper
        content, style = self.content_store, self.style_store
        omega_c = lo + rng.integers(hi + 1 - lo)
        self._content_cat = walk_step(content.graph, self._content_cat, omega_c, rng)
        omega_s = lo + rng.integers(hi + 1 - lo)
        self._style_cat = walk_step(style.graph, self._style_cat, omega_s, rng)
        content_p = _pick(content, self._content_cat, rng)
        style_p = _pick(style, self._style_cat, rng)
        prev, self._prev_frame_cat = self._prev_frame_cat, content_p.category
        distance = semantic_distance(content.graph, prev, content_p.category)
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
    v = field.values.item(frame.content_origin)
    if v > theta_high:
        return 1
    if v < theta_low:
        return -1
    return 0
