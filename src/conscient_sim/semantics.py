"""Semantic category graphs, percepts, and a nearest-prototype classifier.

Categories live on undirected graphs loaded from plain edge lists; semantic
distance between two categories counts edges on a shortest path. Each category
carries a prototype feature vector derived deterministically from the load
seed, and new feature vectors are classified to the nearest prototype. Percept
stores are insertion-ordered memories grouped by category.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Container, Iterator, Optional, Sequence

import numpy as np

from .errors import GraphParseError
from .fields import GridCell
from .seeds import derive_seed, make_rng

PERCEPT_KINDS = ("observed", "style", "dreamed", "received")

# Two-level taxonomy shipped as the default content graph: five domain hubs in
# a ring, five members each, 30 nodes total.
BUILTIN_CONTENT_EDGES = """\
animal plant
plant vehicle
vehicle instrument
instrument place
place animal
animal dog
animal cat
animal bird
animal fish
animal horse
plant tree
plant flower
plant grass
plant moss
plant fern
vehicle car
vehicle boat
vehicle train
vehicle plane
vehicle bike
instrument drum
instrument flute
instrument violin
instrument piano
instrument cello
place beach
place forest
place city
place mountain
place river
"""

# Default style graph: a ring of eight rendering styles.
BUILTIN_STYLE_EDGES = """\
dark bright
bright vivid
vivid pastel
pastel sepia
sepia noir
noir neon
neon blur
blur dark
"""


@dataclass(frozen=True, eq=False)
class SemanticGraph:
    """Undirected category graph with per-category prototype features.

    Row k of the read-only `prototype_matrix` is the prototype of `nodes[k]`;
    `_hop_rows` memoises BFS hop counts per start node as `hop_counts` is
    asked for them, and `_classified` memoises `classify` by the bytes of the
    feature vector: at most one entry per distinct vector classified against
    this graph (a world classifies only its r^2 cell vectors).
    """

    nodes: tuple[str, ...]
    adjacency: dict[str, tuple[str, ...]]
    prototype_matrix: np.ndarray = field(repr=False)
    _hop_rows: dict[str, dict[str, int]] = field(init=False, repr=False, default_factory=dict)
    _classified: dict[bytes, str] = field(init=False, repr=False, default_factory=dict)

    def has_node(self, name: str) -> bool:
        return name in self.adjacency

    def neighbors(self, name: str) -> tuple[str, ...]:
        return self.adjacency[name]


def load_graph(source: str, seed: int, feature_dim: int) -> SemanticGraph:
    """Parse a newline-delimited `nodeA nodeB` edge list into a graph.

    Blank lines and `#` comments are ignored; duplicate edges collapse;
    self-loops and lines without exactly two tokens are parse errors whose
    message starts with the offending line number. The source must hold at
    least one edge, so every node has a neighbor. Prototypes in
    [0, 1]^feature_dim are generated per node from (seed, node name), so the
    same source and seed always yield the same graph.
    """
    nodes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected 'nodeA nodeB', got {line!r}")
        a, b = parts
        if a == b:
            raise GraphParseError(f"line {lineno}: self-loop on {a!r}")
        nodes.add(a)
        nodes.add(b)
        edges.add((min(a, b), max(a, b)))
    if not edges:
        raise GraphParseError("no edges: expected at least one 'nodeA nodeB' line")
    adjacency: dict[str, set[str]] = {n: set() for n in nodes}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    ordered = tuple(sorted(nodes))
    prototypes = np.array(
        [make_rng(derive_seed(seed, "prototype", name)).random(feature_dim) for name in ordered]
    ).reshape(len(ordered), feature_dim)
    prototypes.flags.writeable = False
    return SemanticGraph(
        nodes=ordered,
        adjacency={n: tuple(sorted(adjacency[n])) for n in ordered},
        prototype_matrix=prototypes,
    )


def hop_counts(graph: SemanticGraph, start: str) -> dict[str, int]:
    """Edge count on a shortest path from `start` to every node it reaches.

    Memoised per start node on the graph; callers must not mutate the result.
    """
    hops = graph._hop_rows.get(start)
    if hops is None:
        hops = {start: 0}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            d = hops[node]
            for nb in graph.neighbors(node):
                if nb not in hops:
                    hops[nb] = d + 1
                    queue.append(nb)
        graph._hop_rows[start] = hops
    return hops


def semantic_distance(graph: SemanticGraph, start: str, end: str) -> Optional[int]:
    """Edge count on a shortest path, or None when unreachable."""
    return hop_counts(graph, start).get(end)


def classify(features: np.ndarray, graph: SemanticGraph) -> str:
    """Name of the category whose prototype is nearest in Euclidean distance.

    Exact ties resolve to the lexicographically smallest name. Memoised per
    graph on the vector's bytes; `features` has the prototypes' length.
    """
    feats = np.asarray(features, dtype=float)
    key = feats.tobytes()
    best = graph._classified.get(key)
    if best is not None:
        return best
    best_d = float("inf")
    # sqrt(x.dot(x)) per row is exactly what np.linalg.norm computes for a
    # vector; a batched reduction sums in another order and can flip near-ties.
    diffs = feats - graph.prototype_matrix
    for name, row in zip(graph.nodes, diffs):  # sorted, so first strict win is the tie-break
        d = math.sqrt(row.dot(row))
        if d < best_d:
            best, best_d = name, d
    assert best is not None
    graph._classified[key] = best
    return best


@dataclass(frozen=True, eq=False)
class Percept:
    """One remembered frame: features plus provenance; `kind` is one of PERCEPT_KINDS."""

    id: str
    features: np.ndarray
    category: str
    origin: GridCell
    tick: int
    kind: str


class PerceptStore:
    """Insertion-ordered percept memory with category buckets.

    Attaching a percept whose id is already present is a no-op, which makes
    repeated exchanges of the same percept idempotent.
    """

    def __init__(self) -> None:
        self._by_id: dict[str, Percept] = {}  # insertion order is attach order
        self._by_category: dict[str, list[Percept]] = {}

    def __contains__(self, percept_id: str) -> bool:
        return percept_id in self._by_id

    def attach(self, percept: Percept) -> bool:
        if percept.id in self._by_id:
            return False
        self._by_id[percept.id] = percept
        self._by_category.setdefault(percept.category, []).append(percept)
        return True

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Percept]:
        return iter(self._by_id.values())

    def categories(self) -> tuple[str, ...]:
        """Sorted category names that currently hold at least one percept."""
        return tuple(sorted(self._by_category))

    def in_category(self, category: str) -> Sequence[Percept]:
        """The category's live bucket in attach order; callers must not mutate it."""
        return self._by_category.get(category, ())

    def latest(self, kinds: Container[str]) -> Optional[Percept]:
        """Most recently attached percept of one of the kinds."""
        for p in reversed(self._by_id.values()):
            if p.kind in kinds:
                return p
        return None
