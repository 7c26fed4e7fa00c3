"""Dream walks: graph walks, blending, valence."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from conscient_sim.dreams import (
    DreamConfig,
    DreamFrame,
    DreamFrameRow,
    DreamWalk,
    _pick,
    blend,
    dream_valence,
    walk_step,
)
from conscient_sim.errors import ConfigError
from conscient_sim.fields import GridCell, ValueField
from conscient_sim.semantics import (
    BUILTIN_CONTENT_EDGES,
    BUILTIN_STYLE_EDGES,
    Percept,
    PerceptStore,
    load_graph,
    semantic_distance,
)
from conscient_sim.seeds import make_rng


def _graph(lines, seed=0, dim=3):
    return load_graph("\n".join(lines), seed=seed, feature_dim=dim)


def _percept(pid, category, features=None, kind="observed", origin=GridCell(0, 0)):
    feats = np.zeros(3) if features is None else np.asarray(features, dtype=float)
    return Percept(pid, feats, category, origin, tick=1, kind=kind)


def _store(graph, *percepts):
    s = PerceptStore(graph)
    for p in percepts:
        s.attach(p)
    return s


def _dream(content, style, config, rng):
    """config.length frames of one walk, as the `dream` command takes them."""
    walk = DreamWalk(content, style, config, rng)
    return [walk.step(rng) for _ in range(config.length)]


def test_dream_config_validation():
    with pytest.raises(ConfigError):
        DreamConfig(step_lower=2, step_upper=1)
    with pytest.raises(ConfigError, match="dream.step_lower"):
        DreamConfig(step_lower=-1)
    with pytest.raises(ConfigError, match="dream.step_lower 0 exceeds dream.step_upper -1"):
        DreamConfig(step_lower=0, step_upper=-1)
    with pytest.raises(ConfigError):
        DreamConfig(length=-1)
    with pytest.raises(ConfigError):
        DreamConfig(style_weight=1.5)


def test_walk_step_contracts():
    g = _graph(["a b", "b c"])
    rng = make_rng(0)
    assert walk_step(g, "a", 0, rng) == "a"


def test_walk_step_isolated_node_stays():
    # load_graph gives every node an edge, so no node is isolated; a walk on a
    # two-component graph stays in its start's component
    g = _graph(["a b", "c d"])
    rng = make_rng(5)
    for _ in range(20):
        assert walk_step(g, "a", 4, rng) in ("a", "b")


def test_walk_step_endpoint_within_omega_of_start():
    # oracle: endpoint distance measured by BFS never exceeds the hop budget
    rng = make_rng(2718)
    for _ in range(200):
        n = int(rng.integers(4, 21))
        names = [f"n{k}" for k in range(n)]
        lines = [f"{names[k]} {names[k + 1]}" for k in range(n - 1)]
        for _ in range(n):
            a, b = rng.integers(n, size=2)
            if a != b:
                lines.append(f"{names[int(min(a, b))]} {names[int(max(a, b))]}")
        g = _graph(lines, seed=int(rng.integers(1 << 30)))
        start = names[int(rng.integers(n))]
        omega = int(rng.integers(0, 6))
        end = walk_step(g, start, omega, rng)
        d = semantic_distance(g, start, end)
        assert d is not None and d <= omega


def test_blend_endpoints_and_mix():
    c = _percept("c", "dog", [1.0, 0.0, 0.5])
    s = _percept("s", "dark", [0.0, 1.0, 0.5], kind="style")
    assert np.array_equal(blend(c, s, 0.0), c.features)
    assert np.array_equal(blend(c, s, 1.0), s.features)
    assert np.allclose(blend(c, s, 0.25), [0.75, 0.25, 0.5])


def test_blend_stays_in_unit_interval():
    rng = make_rng(12)
    for _ in range(100):
        c = _percept("c", "dog", rng.random(3))
        s = _percept("s", "dark", rng.random(3), kind="style")
        w = float(rng.random())
        out = blend(c, s, w)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


def _nearest(store, start):
    """The category of the bucket a dream pick at `start` draws from."""
    return store.dream_bucket(start)[0].category


def test_nearest_populated_walks_out_and_breaks_ties():
    g = _graph(["a b", "b c", "c d"])
    only_d = _store(g, _percept("p", "d"))
    assert _nearest(only_d, "a") == "d"
    assert _nearest(only_d, "d") == "d"
    star = _graph(["x b", "x c"])
    tied = _store(star, _percept("p1", "b"), _percept("p2", "c"))
    assert _nearest(tied, "x") == "b"
    split = _graph(["a b", "c d"])
    far = _store(split, _percept("p1", "d"), _percept("p2", "c"))
    # nothing populated reachable from a: smallest populated category wins
    assert _nearest(far, "a") == "c"


def test_dream_bucket_memo_clears_when_a_category_appears():
    g = _graph(["a b", "b c", "c d"])
    store = _store(g, _percept("p1", "d"))
    assert _nearest(store, "a") == "d"
    # a percept of a known category joins the memoised bucket
    store.attach(_percept("p2", "d"))
    assert [p.id for p in store.dream_bucket("a")] == ["p1", "p2"]
    store.attach(_percept("p3", "b"))
    assert _nearest(store, "a") == "b"
    assert store.dream_bucket("b") is store.dream_bucket("a")
    assert _nearest(store, "c") == "b"
    store.attach(_percept("p4", "c"))
    assert _nearest(store, "c") == "c"
    assert _nearest(store, "d") == "d"
    assert _nearest(store, "a") == "b"


def _level_bfs_nearest(graph, start, populated):
    """The level-by-level search dream picks used before hop counts."""
    if start in populated:
        return start
    seen = {start}
    level = [start]
    while level:
        nxt, hits = [], []
        for node in level:
            for nb in graph.adjacency[node]:
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
                    if nb in populated:
                        hits.append(nb)
        if hits:
            return min(hits)
        level = nxt
    return min(populated)


def test_nearest_populated_matches_level_bfs_oracle():
    three_parts = "a b\nb c\nc a\nd e\ne f\nf g\nh i"
    rng = make_rng(31)
    cases = 0
    for source in (BUILTIN_CONTENT_EDGES, BUILTIN_STYLE_EDGES, three_parts):
        g = load_graph(source, seed=0, feature_dim=3)
        for _ in range(60):
            size = int(rng.integers(1, len(g.nodes) + 1))
            populated = sorted(rng.choice(g.nodes, size=size, replace=False).tolist())
            store = _store(g, *(_percept(f"p-{c}", c) for c in populated))
            for start in g.nodes:
                want = _level_bfs_nearest(g, start, set(populated))
                assert _nearest(store, start) == want, (start, populated)
                cases += 1
    assert cases == 60 * (30 + 8 + 9)


def _copying_pick(store, category, rng):
    """`_pick` as it was when every pick searched the store and drew from a
    tuple copy of the bucket."""
    nearest = _level_bfs_nearest(store.graph, category, set(store.categories()))
    cands = tuple(p for p in store if p.category == nearest)
    return cands[int(rng.integers(len(cands)))]


def test_pick_matches_copying_oracle_while_buckets_grow():
    g = load_graph(BUILTIN_CONTENT_EDGES, seed=0, feature_dim=3)
    store = _store(g, _percept("p0", g.nodes[0]))
    driver, live_rng, oracle_rng = make_rng(57), make_rng(58), make_rng(58)
    for step in range(2_000):
        category = g.nodes[int(driver.integers(len(g.nodes)))]
        assert _pick(store, category, live_rng) is _copying_pick(store, category, oracle_rng)
        if driver.random() < 0.3:
            store.attach(_percept(f"p{step + 1}", g.nodes[int(driver.integers(len(g.nodes)))]))
    assert len(store) > 500
    assert live_rng.random() == oracle_rng.random()


def test_dream_walk_zero_bounds_freeze_categories():
    g = _graph(["a b", "b c"])
    sg = _graph(["dark bright"])
    c = _percept("p1", "b", [1.0, 0.0, 0.5], origin=GridCell(2, 3))
    s = _percept("s1", "dark", [0.0, 1.0, 0.5], kind="style")
    frozen = DreamConfig(step_lower=0, step_upper=0, style_weight=0.25)
    walk = DreamWalk(_store(g, c), _store(sg, s), frozen, make_rng(3))
    for _ in range(10):
        frame = walk.step(make_rng(0))
        # the frame carries its sources' categories and content origin
        assert frame.content_category == "b"
        assert frame.style_category == "dark"
        assert frame.content_origin == GridCell(2, 3)
        assert np.array_equal(frame.features, blend(c, s, 0.25))
        assert frame.pair_distance == 0


def test_dream_initial_categories_cover_populated_set():
    g = _graph(["a b", "b c"])
    sg = _graph(["dark bright"])
    content = _store(g, _percept("p1", "a"), _percept("p2", "c"))
    style = _store(sg, _percept("s1", "dark", kind="style"))
    seen = set()
    for k in range(200):
        walk = DreamWalk(content, style, DreamConfig(), make_rng(k))
        seen.add(walk._content_cat)
    assert seen == {"a", "c"}


def test_dream_length_and_determinism():
    g = _graph(["a b", "b c", "c d"], dim=3)
    sg = _graph(["dark bright", "bright vivid"], dim=3)
    content = _store(
        g,
        _percept("p1", "a", [0.1, 0.2, 0.3]),
        _percept("p2", "c", [0.9, 0.8, 0.7]),
    )
    style = _store(sg, _percept("s1", "dark", [0.5, 0.5, 0.5], kind="style"))
    cfg = DreamConfig(step_lower=0, step_upper=2, length=6, style_weight=0.3)
    d1 = _dream(content, style, cfg, make_rng(42))
    d2 = _dream(content, style, cfg, make_rng(42))
    d3 = _dream(content, style, cfg, make_rng(43))
    assert len(d1) == 6
    assert [f.content_category for f in d1] == [f.content_category for f in d2]
    for f1, f2 in zip(d1, d2):
        assert np.array_equal(f1.features, f2.features)
        assert f1.pair_distance == f2.pair_distance
    assert any(
        f1.content_category != f3.content_category or not np.array_equal(f1.features, f3.features)
        for f1, f3 in zip(d1, d3)
    )


def test_dream_zero_length():
    g = _graph(["a b"])
    sg = _graph(["dark bright"])
    content = _store(g, _percept("p1", "a"))
    style = _store(sg, _percept("s1", "dark", kind="style"))
    d = _dream(content, style, DreamConfig(length=0), make_rng(0))
    assert len(d) == 0


def test_dream_pair_distances_respect_step_bound():
    # with every category populated the frame category equals the walk
    # endpoint, so successive frames sit within step_upper of each other
    rng = make_rng(7)
    names = [f"n{k}" for k in range(12)]
    lines = [f"{names[k]} {names[k + 1]}" for k in range(11)]
    lines += ["n0 n5", "n3 n9", "n2 n7"]
    g = _graph(lines, seed=11, dim=3)
    sg = _graph(["dark bright", "bright vivid"], dim=3)
    content = _store(g, *[_percept(f"p{k}", n, rng.random(3)) for k, n in enumerate(names)])
    style = _store(sg, _percept("s1", "dark", kind="style"))
    cfg = DreamConfig(step_lower=0, step_upper=3, length=20)
    for seed in range(30):
        d = _dream(content, style, cfg, make_rng(seed))
        cats = [f.content_category for f in d]
        for a, b, frame in zip(cats, cats[1:], d[1:]):
            oracle = semantic_distance(g, a, b)
            assert oracle is not None and oracle <= 3
            assert frame.pair_distance == oracle


def test_dream_valence_thresholds():
    vals = np.array([[0.9, 0.0], [-0.5, 0.2]])
    field = ValueField(vals)
    frame_hi = DreamFrame(np.zeros(3), "dog", "dark", GridCell(0, 0), None)
    assert dream_valence(frame_hi, field, theta_high=0.5, theta_low=-0.2) == 1
    frame_lo = DreamFrame(np.zeros(3), "dog", "dark", GridCell(1, 0), None)
    assert dream_valence(frame_lo, field, theta_high=0.5, theta_low=-0.2) == -1
    frame_mid = DreamFrame(np.zeros(3), "dog", "dark", GridCell(1, 1), None)
    assert dream_valence(frame_mid, field, theta_high=0.5, theta_low=-0.2) == 0
    # thresholds are strict: sitting exactly on one scores neutral
    assert dream_valence(frame_hi, field, theta_high=0.9, theta_low=0.0) == 0
    assert dream_valence(frame_mid, field, theta_high=0.5, theta_low=0.2) == 0


def test_a_frame_compares_by_identity_and_a_row_by_value():
    # a frame is a tuple holding a feature array: it compares, like a percept,
    # by identity, so no comparison asks an array for its truth value
    frame = DreamFrame(np.full(3, 0.5), "dog", "dark", GridCell(0, 1), 2)
    twin = DreamFrame(frame.features.copy(), "dog", "dark", GridCell(0, 1), 2)
    assert frame == frame and frame != twin and not frame == twin
    assert len({frame, twin, frame}) == 2
    assert tuple(frame)[1:] == tuple(twin)[1:]
    with pytest.raises(AttributeError):
        frame.pair_distance = 3
    copy = pickle.loads(pickle.dumps(frame))
    assert copy != frame and np.array_equal(copy.features, frame.features)
    # a row is a value record over its frame: equal rows hold the same frame
    row = DreamFrameRow(0, 5, 1, "a0-d1", frame, 1)
    assert row == DreamFrameRow(0, 5, 1, "a0-d1", frame, 1) and hash(row) == hash(row._replace())
    assert row != row._replace(frame=twin)
    assert not hasattr(frame, "__dict__") and not hasattr(row, "__dict__")
