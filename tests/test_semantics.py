"""Semantic graphs: parsing, distance, classification, percept stores."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conscient_sim.errors import GraphParseError
from conscient_sim.fields import GridCell
from conscient_sim.semantics import (
    BUILTIN_CONTENT_EDGES,
    BUILTIN_STYLE_EDGES,
    PERCEPT_KINDS,
    SENDABLE_KINDS,
    Percept,
    PerceptStore,
    classify,
    hop_counts,
    load_graph,
    semantic_distance,
)
from conscient_sim.seeds import make_rng


def _graph(lines, seed=0, dim=4):
    return load_graph("\n".join(lines), seed=seed, feature_dim=dim)


def test_load_graph_collects_nodes_and_edges():
    g = _graph(["a b", "b c", "a c"])
    assert g.nodes == ("a", "b", "c")
    assert sum(len(nbrs) for nbrs in g.adjacency.values()) == 2 * 3
    assert g.adjacency["a"] == ("b", "c")


def test_load_graph_dedup_comments_whitespace():
    g = _graph(["a b", "  b   a  ", "", "# note", "b c"])
    assert sum(len(nbrs) for nbrs in g.adjacency.values()) == 2 * 2
    assert g.adjacency["b"] == ("a", "c")


def test_load_graph_parse_errors_carry_line_numbers():
    with pytest.raises(GraphParseError, match=r"^line 2: "):
        _graph(["a b", "lonely"])
    with pytest.raises(GraphParseError, match=r"^line 3: "):
        _graph(["a b", "", "x x"])
    with pytest.raises(GraphParseError):
        _graph(["a b c"])
    # every node needs a neighbor, so a source without an edge is rejected
    with pytest.raises(GraphParseError, match=r"^no edges"):
        _graph(["# only a comment", ""])


def _prototype(g, name):
    return g.prototype_matrix[g.nodes.index(name)]


def test_prototypes_deterministic_and_in_unit_cube():
    g1 = _graph(["a b"], seed=42, dim=6)
    g2 = _graph(["a b"], seed=42, dim=6)
    g3 = _graph(["a b"], seed=43, dim=6)
    assert g1.prototype_matrix.shape == (2, 6)
    assert not g1.prototype_matrix.flags.writeable
    assert np.all(g1.prototype_matrix >= 0.0) and np.all(g1.prototype_matrix < 1.0)
    for node in g1.nodes:
        assert np.array_equal(_prototype(g1, node), _prototype(g2, node))
        assert not np.array_equal(_prototype(g1, node), _prototype(g3, node))


def test_prototype_depends_on_node_name_not_insertion_order():
    g1 = _graph(["a b", "b c"], seed=7)
    g2 = _graph(["b c", "a b"], seed=7)
    for node in ("a", "b", "c"):
        assert np.array_equal(_prototype(g1, node), _prototype(g2, node))


def _all_pairs_oracle(g):
    # Floyd-Warshall over the adjacency, independent of the BFS implementation
    nodes = list(g.nodes)
    inf = float("inf")
    dist = {a: {b: (0 if a == b else inf) for b in nodes} for a in nodes}
    for a in nodes:
        for b in g.adjacency[a]:
            dist[a][b] = 1
    for k in nodes:
        for a in nodes:
            for b in nodes:
                if dist[a][k] + dist[k][b] < dist[a][b]:
                    dist[a][b] = dist[a][k] + dist[k][b]
    return dist


def test_semantic_distance_matches_floyd_warshall_oracle():
    rng = make_rng(99)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        names = [f"n{k}" for k in range(n)]
        lines = []
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.3:
                    lines.append(f"{names[a]} {names[b]}")
        if not lines:
            lines = [f"{names[0]} {names[1]}"]
        g = _graph(lines, seed=int(rng.integers(1 << 30)))
        want = _all_pairs_oracle(g)
        for a in g.nodes:
            for b in g.nodes:
                got = semantic_distance(g, a, b)
                expect = want[a][b]
                if expect == float("inf"):
                    assert got is None
                else:
                    assert got == expect


def test_semantic_distance_edge_cases():
    g = _graph(["a b", "c d"])
    assert semantic_distance(g, "a", "a") == 0
    assert semantic_distance(g, "a", "b") == 1
    assert semantic_distance(g, "a", "c") is None


def test_hop_counts_is_the_memoised_row_semantic_distance_reads():
    g = _graph(["a b", "b c", "d e"])
    row = hop_counts(g, "a")
    assert row == {"a": 0, "b": 1, "c": 2}
    assert hop_counts(g, "a") is row  # one BFS per start node
    assert semantic_distance(g, "a", "c") == row["c"]


def test_builtin_graphs_shape():
    content = load_graph(BUILTIN_CONTENT_EDGES, seed=1, feature_dim=8)
    style = load_graph(BUILTIN_STYLE_EDGES, seed=1, feature_dim=8)
    assert len(content.nodes) == 30
    assert len(style.nodes) == 8
    # style ring: every node has exactly two neighbours
    for node in style.nodes:
        assert len(style.adjacency[node]) == 2
    # content: ring of five hubs, five leaves each
    assert semantic_distance(content, "dog", "cat") == 2
    assert semantic_distance(content, "animal", "plant") == 1
    assert semantic_distance(style, "dark", "neon") == 2


def _classify_oracle(x, g):
    # explicit per-prototype norms with lexicographic tie-break
    best, best_d = None, float("inf")
    for node in sorted(g.nodes):
        d = float(np.linalg.norm(x - _prototype(g, node)))
        if d < best_d:
            best, best_d = node, d
    return best


def test_classify_matches_brute_force_oracle():
    g = _graph(["a b", "b c", "c d"], seed=12, dim=5)
    rng = make_rng(3)
    for _ in range(200):
        x = rng.random(5)
        assert classify(x, g) == _classify_oracle(x, g)


@pytest.mark.parametrize(
    "edges", [BUILTIN_CONTENT_EDGES, BUILTIN_STYLE_EDGES], ids=["content", "style"]
)
def test_classify_matches_norm_loop_exactly_on_builtin_graphs(edges):
    g = load_graph(edges, seed=41, feature_dim=16)
    rng = make_rng(8)
    vectors = [rng.random(16) for _ in range(10_000)]
    # midpoints are equidistant from two prototypes: rounding decides them
    vectors += [
        (_prototype(g, a) + _prototype(g, b)) / 2.0
        for k, a in enumerate(g.nodes)
        for b in g.nodes[k + 1 :]
    ]
    for x in vectors:
        assert classify(x, g) == _classify_oracle(x, g)


def test_classify_memo_matches_oracle_on_repeated_and_interleaved_calls():
    g = _graph(["a b", "b c", "c d"], seed=12, dim=5)
    rng = make_rng(4)
    xs = [rng.random(5) for _ in range(20)]
    xs += [(_prototype(g, "a") + _prototype(g, "b")) / 2.0]  # a tie, memoised too
    want = [_classify_oracle(x, g) for x in xs]
    for _ in range(3):
        assert [classify(x, g) for x in xs] == want
        assert [classify(x, g) for x in reversed(xs)] == want[::-1]
    # a copy and a non-contiguous view of the same values hit the same entry
    strided = np.empty(10)
    strided[::2] = xs[0]
    assert classify(xs[0].copy(), g) == classify(strided[::2], g) == want[0]
    assert len(g._classified) == len(xs)


def test_classify_memo_is_per_graph():
    # same nodes, different prototypes: each graph answers by its own
    g1 = _graph(["a b", "b c"], seed=1, dim=3)
    g2 = _graph(["a b", "b c"], seed=2, dim=3)
    rng = make_rng(6)
    xs = [rng.random(3) for _ in range(200)]
    xs += [_prototype(g, n).copy() for g in (g1, g2) for n in g.nodes]
    for x in xs:
        assert classify(x, g1) == _classify_oracle(x, g1)
        assert classify(x, g2) == _classify_oracle(x, g2)
    # the prototypes differ, so some vector is classified differently
    assert any(classify(x, g1) != classify(x, g2) for x in xs)


def test_classify_exact_prototype_and_tie():
    g = _graph(["a b"], seed=5, dim=3)
    assert classify(_prototype(g, "b").copy(), g) == "b"
    # equidistant point: midpoint of the two prototypes; "a" wins the tie
    mid = (_prototype(g, "a") + _prototype(g, "b")) / 2.0
    assert classify(mid, g) == "a"


def _percept(pid, category, tick, kind="observed"):
    return Percept(pid, np.zeros(2), category, GridCell(0, 0), tick=tick, kind=kind)


PETS = load_graph("cat dog\ndog fish", seed=0, feature_dim=2)


def test_percept_is_a_frozen_slotted_identity_record():
    p = _percept("p1", "dog", 1)
    assert not hasattr(p, "__dict__")  # slots: no per-percept dict
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.tick = 2
    # compared by identity, so a copy is a different percept
    assert p != dataclasses.replace(p) and p == p


def test_percept_store_attach_and_idempotence():
    store = PerceptStore(PETS)
    p = _percept("x1", "dog", 1)
    assert store.attach(p) is True
    assert store.attach(p) is False
    assert len(store) == 1
    # same id, different payload: still rejected, first attach wins
    q = _percept("x1", "cat", 2)
    assert store.attach(q) is False
    assert list(store) == [p]
    assert store.categories() == ("dog",)


def test_percept_store_categories_and_latest():
    store = PerceptStore(PETS)
    assert store.graph is PETS and store.latest() is None
    a = _percept("a", "dog", 1)
    store.attach(a)
    assert store.latest() is a
    # received and style percepts are not sent on, nor is a duplicate id attached
    store.attach(_percept("b", "cat", 2, kind="received"))
    store.attach(_percept("s", "cat", 3, kind="style"))
    store.attach(_percept("a", "dog", 4, kind="dreamed"))
    assert store.latest() is a
    c = _percept("c", "dog", 5, kind="dreamed")
    store.attach(c)
    assert store.latest() is c
    assert store.categories() == ("cat", "dog")
    assert tuple(p.id for p in store.dream_bucket("dog")) == ("a", "c")
    # fish is empty: its picks draw from dog, one hop away
    assert store.dream_bucket("fish") is store.dream_bucket("dog")


def test_latest_matches_a_walk_back_over_the_store():
    rng = make_rng(5)
    store = PerceptStore(PETS)
    for k in range(500):
        kind = PERCEPT_KINDS[int(rng.integers(len(PERCEPT_KINDS)))]
        pid = f"p{int(rng.integers(300))}"  # some ids repeat
        store.attach(_percept(pid, PETS.nodes[int(rng.integers(3))], k, kind))
        walk_back = next((p for p in reversed(list(store)) if p.kind in SENDABLE_KINDS), None)
        assert store.latest() is walk_back
    assert store.latest() is not None and len(store) < 500


def test_dream_bucket_falls_back_by_hops_on_the_stores_own_graph():
    line = _graph(["a b", "b c", "c d", "d e"], dim=2)
    ring = _graph(["a b", "b c", "c d", "d e", "e a"], dim=2)
    # from a, c is two hops away on both graphs, and e is four on the line but one on the ring
    for graph, nearest in ((line, "c"), (ring, "e")):
        store = PerceptStore(graph)
        store.attach(_percept("p1", "c", 1))
        store.attach(_percept("p2", "e", 2))
        assert store.dream_bucket("a")[0].category == nearest


def test_dream_bucket_is_the_live_bucket():
    store = PerceptStore(PETS)
    store.attach(_percept("a", "dog", 1))
    dogs = store.dream_bucket("dog")
    store.attach(_percept("b", "cat", 2))
    store.attach(_percept("c", "dog", 3))
    store.attach(_percept("a", "dog", 4))  # a duplicate id is not attached
    assert [p.id for p in dogs] == ["a", "c"]
    assert store.dream_bucket("dog") is dogs
