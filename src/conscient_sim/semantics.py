"""Semantic category graphs, percepts, and a nearest-prototype classifier.

Categories live on undirected graphs loaded from plain edge lists; semantic
distance between two categories counts edges on a shortest path. Each category
carries a prototype feature vector derived deterministically from the load
seed, and `classify`, a pure function, names the nearest prototype to a
feature vector. A percept store is an insertion-ordered memory over one
graph's categories that also keeps its last percept of a kind an agent sends
to a peer. A percept a peer sent is stored as the sender's own object, with
a one-byte mark that it was received.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import GraphParseError
from .fields import GridCell
from .seeds import derive_seed, make_rng

# The kinds a percept log names: an agent makes the first three, and a percept
# its store holds as received is logged as `received`.
PERCEPT_KINDS = ("observed", "style", "dreamed", "received")
# Percept kinds an agent is willing to send to a peer.
SENDABLE_KINDS = ("observed", "dreamed")

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
    asked for them, at most one row per node. A world's graphs belong to its
    cached layout and outlive the world.
    """

    nodes: tuple[str, ...]
    adjacency: dict[str, tuple[str, ...]]
    prototype_matrix: np.ndarray = field(repr=False)
    _hop_rows: dict[str, dict[str, int]] = field(init=False, repr=False, default_factory=dict)


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
            for nb in graph.adjacency[node]:
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

    Exact ties resolve to the lexicographically smallest name; `features` has
    the prototypes' length. No memo: a world classifies each cell once, in its
    layout's cell table (`world.World.cell_view`).
    """
    best, best_d = graph.nodes[0], float("inf")
    # sqrt(x.dot(x)) per row is exactly what np.linalg.norm computes for a
    # vector; a batched reduction sums in another order and can flip near-ties.
    diffs = features - graph.prototype_matrix
    for name, row in zip(graph.nodes, diffs):  # sorted, so first strict win is the tie-break
        d = math.sqrt(row.dot(row))
        if d < best_d:
            best, best_d = name, d
    return best


@dataclass(frozen=True, eq=False, slots=True)
class Percept:
    """One remembered frame: features plus provenance; `kind` is one of PERCEPT_KINDS.

    An agent makes `observed`, `style` and `dreamed` percepts; only one read
    back from a percept log says `received`, as a store marks the ones it holds.
    """

    id: str
    features: np.ndarray
    category: str
    origin: GridCell
    tick: int
    kind: str


class PerceptStore:
    """Insertion-ordered percept memory with category buckets, each a node of `graph`.

    Attaching a percept whose id is already present is a no-op, which makes
    repeated exchanges of the same percept idempotent. A percept attached as
    received is the sender's own object, not a copy: the store keeps one byte
    per attach that marks it, `kinds` names it `received`, and it never
    becomes `latest`. The store keeps its sorted category names, its last
    percept of a sendable kind, and a memo of the bucket a dream pick at each
    category draws from, at most one entry per node of the graph; a new
    category clears that memo.
    """

    def __init__(self, graph: SemanticGraph) -> None:
        self.graph = graph
        self._by_id: dict[str, Percept] = {}  # insertion order is attach order
        self._by_category: dict[str, list[Percept]] = {}
        self._categories: tuple[str, ...] = ()
        self._dream_buckets: dict[str, list[Percept]] = {}
        self._latest: Optional[Percept] = None
        self._received = bytearray()  # in attach order: 1 for a percept attached as received

    def __contains__(self, percept_id: str) -> bool:
        return percept_id in self._by_id

    def attach(self, percept: Percept, received: bool = False) -> bool:
        if percept.id in self._by_id:
            return False
        self._by_id[percept.id] = percept
        bucket = self._by_category.get(percept.category)
        if bucket is None:
            bucket = self._by_category[percept.category] = []
            self._categories = tuple(sorted(self._by_category))
            self._dream_buckets.clear()
        bucket.append(percept)
        self._received.append(received)
        if not received and percept.kind in SENDABLE_KINDS:
            self._latest = percept
        return True

    def kinds(self) -> Iterator[str]:
        """The kind a percept log names each percept by, in attach order:
        `received` for one attached as received, else the percept's own."""
        return (
            "received" if mark else p.kind for p, mark in zip(self._by_id.values(), self._received)
        )

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Percept]:
        return iter(self._by_id.values())

    def categories(self) -> tuple[str, ...]:
        """Sorted category names that currently hold at least one percept."""
        return self._categories

    def dream_bucket(self, category: str) -> Sequence[Percept]:
        """The live bucket, in attach order, that a dream pick at `category` draws from.

        That is the category's own bucket when it holds a percept, else the
        bucket of the closest populated category by hop count on `graph`:
        ties at the same distance resolve lexicographically, and when nothing
        populated is reachable the smallest populated category is used. The
        store must hold a percept; callers must not mutate the bucket.
        """
        bucket = self._dream_buckets.get(category)
        if bucket is None:
            bucket = self._by_category.get(category)
            if bucket is None:
                hops = hop_counts(self.graph, category)
                reachable = [(hops[c], c) for c in self._categories if c in hops]
                nearest = min(reachable)[1] if reachable else self._categories[0]
                bucket = self._by_category[nearest]
            self._dream_buckets[category] = bucket
        return bucket

    def latest(self) -> Optional[Percept]:
        """Most recently attached percept of one of the SENDABLE_KINDS."""
        return self._latest
