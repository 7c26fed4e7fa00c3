"""World assembly, the tick scheduler, and trace metrics."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from conscient_sim.agents import AgentConfig
from conscient_sim.configio import ENTRIES, parse_config_text
from conscient_sim.emotions import EmotionParams, EmotionState
from conscient_sim.errors import ConfigError
from conscient_sim.fields import GridCell, _bump_window
from conscient_sim.semantics import Percept
from conscient_sim.seeds import derive_seed, make_rng
from conscient_sim.traceio import write_dreams_csv
from conscient_sim.world import (
    InteractionRecord,
    World,
    WorldConfig,
    _cached_layout,
    build_world,
    interact,
    metrics,
    run,
    world_layout,
)


def _quiet_agent_config(**kw):
    # agents that neither move, photograph, nor fall asleep on their own
    defaults = dict(
        movement_budget=0,
        photo_period=1000,
        t_awake=100_000,
        t_asleep=100_000,
        emotion=EmotionParams(threshold=1.0),
    )
    defaults.update(kw)
    return AgentConfig(**defaults)


def _attach_photo(agent, world, n=1):
    for k in range(n):
        agent.photo_count += 1
        cell = agent.position
        agent.percepts.attach(
            Percept(
                id=f"a{agent.id}-p{agent.photo_count}",
                features=world.cell_features(cell),
                category="dog",
                origin=cell,
                tick=1,
                kind="observed",
            )
        )


def test_world_config_validation():
    with pytest.raises(ConfigError):
        WorldConfig(resolution=1)
    with pytest.raises(ConfigError):
        WorldConfig(resolution=129)
    with pytest.raises(ConfigError):
        WorldConfig(resolution=2, n_agents=5)
    with pytest.raises(ConfigError):
        WorldConfig(total_ticks=-1)
    with pytest.raises(ConfigError):
        WorldConfig(stimulus_probability=1.5)
    with pytest.raises(ConfigError):
        WorldConfig(stimulus_modalities=("music", "opera"))
    with pytest.raises(ConfigError):
        WorldConfig(stimulus_modalities=("music", "music"))
    with pytest.raises(ConfigError):
        WorldConfig(master_seed=2**64)


def test_build_world_distinct_spawns_and_private_fields():
    w = build_world(WorldConfig(resolution=6, n_agents=8, master_seed=3))
    positions = {(a.position.i, a.position.j) for a in w.agents}
    assert len(positions) == 8
    for a in w.agents:
        assert 0 <= a.position.i < 6 and 0 <= a.position.j < 6
    assert not np.array_equal(w.agents[0].field.values, w.agents[1].field.values)
    assert [a.id for a in w.agents] == list(range(8))


def test_reward_bumps_shared_across_agents():
    base_cfg = dict(resolution=8, n_agents=3, master_seed=12)
    plain = build_world(WorldConfig(reward_count=0, **base_cfg))
    bumped = build_world(WorldConfig(reward_count=4, reward_peak=0.8, **base_cfg))
    deltas = [
        b.field.values - p.field.values for p, b in zip(plain.agents, bumped.agents)
    ]
    # the environmental overlay is identical for every agent
    for d in deltas[1:]:
        assert np.allclose(d, deltas[0], atol=1e-12)
    assert float(np.max(deltas[0])) > 0.5


def test_stimulus_placement_extremes_and_score():
    none = build_world(WorldConfig(resolution=5, stimulus_probability=0.0, master_seed=1))
    assert none.stimuli == {}
    full = build_world(WorldConfig(resolution=5, stimulus_probability=1.0, master_seed=1))
    assert len(full.stimuli) == 25
    for stim in full.stimuli.values():
        assert stim.modality in ("music", "recipe")
        assert -1.0 <= stim.score <= 1.0


def test_stimulus_layout_deterministic():
    cfg = WorldConfig(resolution=6, stimulus_probability=0.4, master_seed=9)
    build_world(cfg)
    a = build_world(cfg)  # from the cached layout
    _cached_layout.cache_clear()
    b = build_world(cfg)  # from a cold build
    assert sorted(a.stimuli) == sorted(b.stimuli)
    for cell in a.stimuli:
        assert a.stimuli[cell] is not b.stimuli[cell]
        assert a.stimuli[cell].modality == b.stimuli[cell].modality
        assert a.stimuli[cell].score == b.stimuli[cell].score
    for x, y in zip(a.agents, b.agents):
        assert x.position == y.position
        assert x.field.values.tobytes() == y.field.values.tobytes()


def test_worlds_share_a_read_only_layout():
    cfg = WorldConfig(resolution=5, stimulus_probability=0.5, master_seed=8, total_ticks=80)
    first = build_world(cfg)
    table = dict(first.stimuli)
    field_bytes = [agent.field.values.tobytes() for agent in first.agents]
    for _ in range(cfg.total_ticks):
        first.step()
    for cell in list(first.stimuli):
        first.take_stimulus(cell)
    assert first.stimuli == {} and table
    assert [a.field.values.tobytes() for a in first.agents] != field_bytes
    second = build_world(cfg)
    assert second.stimuli == table
    assert [agent.field.values.tobytes() for agent in second.agents] == field_bytes
    # an in-place write into shared state fails instead of leaking into the next world
    with pytest.raises(ValueError):
        second.agents[0].field.values[0, 0] = 1.0
    with pytest.raises(ValueError):
        second.cell_features(GridCell(0, 0))[0] = 0.5


def test_agent_stores_are_bound_to_the_layout_graphs():
    cfg = WorldConfig(resolution=5, n_agents=3, master_seed=8)
    layout = world_layout(cfg)
    world = build_world(cfg)
    for agent in world.agents:
        assert agent.percepts.graph is layout.content_graph
        assert agent.styles.graph is layout.style_graph
    # the graphs are shared, the stores are each agent's own
    stores = {id(store) for a in world.agents for store in (a.percepts, a.styles)}
    assert len(stores) == 2 * cfg.n_agents


def test_crowded_run_leaves_windows_and_layout_fields_read_only():
    cfg = WorldConfig(resolution=8, n_agents=32, master_seed=21, total_ticks=200)
    _cached_layout.cache_clear()
    _bump_window.cache_clear()
    world = build_world(cfg)
    for _ in range(cfg.total_ticks):
        world.step()
    assert world.interactions  # the received-percept bumps ran
    agent = cfg.agent
    bumps = [(cfg.reward_width, cfg.reward_peak), (agent.visit_width, agent.visit_peak)]
    bumps += [(agent.visit_width, p) for p in (agent.visit_reward, -agent.visit_reward)]
    misses = _bump_window.cache_info().misses
    assert misses == len(bumps)
    # every bump of the run, the layout's reward bumps included, read a cached
    # window: a count that moves is a change in the work a run does
    assert _bump_window.cache_info().hits == 10_142
    for width, peak in bumps:
        window, _ = _bump_window(cfg.resolution, width, abs(peak), math.copysign(1.0, peak))
        assert not window.flags.writeable
    assert _bump_window.cache_info().misses == misses  # each was the cached array
    warm = world_layout(cfg)
    _cached_layout.cache_clear()
    cold = world_layout(cfg)
    assert cold is not warm
    for w, c in zip(warm.agent_fields, cold.agent_fields, strict=True):
        assert not w.values.flags.writeable
        assert w.values.tobytes() == c.values.tobytes()


def _changed_value(entry, tmp_path):
    """Rendered values for `entry`'s key that differ from its default, most plausible first."""
    d = entry.default
    if entry.key in ("world.content_graph", "world.style_graph"):
        path = tmp_path / "graph.txt"
        path.write_text("left right\n", encoding="utf-8")
        return [str(path)]
    if isinstance(d, tuple):
        return [entry.render(d[:1])]
    candidates = [d + 1, d - 1] if isinstance(d, int) else [d * 0.5, d + 0.01, d - 0.01]
    return [entry.render(v) for v in candidates]


@pytest.mark.parametrize(
    "entry",
    [e for e in ENTRIES if e.section != "ga"],
    ids=lambda e: e.key,
)
def test_layout_key_holds_every_world_and_kernel_key(entry, tmp_path):
    base = parse_config_text("").world
    for raw in _changed_value(entry, tmp_path):
        try:
            changed = parse_config_text("", overrides={entry.key: raw}).world
        except ConfigError:
            continue  # outside the key's range or order rule; try the next value
        if changed == base:
            continue
        shared = world_layout(base)
        reused = world_layout(changed) is shared
        per_run = entry.section in ("agent", "dream", "emotion") or entry.key == "world.total_ticks"
        assert reused == per_run
        return
    pytest.fail(f"no valid value for {entry.key} other than its default")


def test_cell_features_deterministic_and_cached():
    w = build_world(WorldConfig(resolution=4, master_seed=5, feature_dim=7))
    cell = GridCell(2, 3)
    f1 = w.cell_features(cell)
    assert f1.shape == (7,)
    assert np.all(f1 >= 0.0) and np.all(f1 < 1.0)
    assert w.cell_features(cell) is f1
    # oracle: the per-cell stream is keyed by the master seed and coordinates
    expect = make_rng(derive_seed(5, "cell", 2, 3)).random(7)
    assert np.array_equal(f1, expect)


def test_take_stimulus_is_one_shot():
    w = build_world(WorldConfig(resolution=4, stimulus_probability=1.0, master_seed=2))
    cell = next(iter(sorted(w.stimuli)))
    assert w.take_stimulus(cell) is not None
    assert w.take_stimulus(cell) is None


def test_tick0_rows_snapshot_initial_state():
    w = build_world(WorldConfig(resolution=5, n_agents=3, master_seed=4))
    assert len(w.rows) == 3
    for row, agent in zip(w.rows, w.agents):
        assert row.tick == 0
        assert row.agent_id == agent.id
        assert row.mode == "awake"
        assert row.events == ()
        assert (row.i, row.j) == (agent.position.i, agent.position.j)
    # emotions update in place: the rows copied the values, not the live states,
    # and no two agents share one state
    defaults = EmotionState()
    states = [agent.emotions for agent in w.agents]
    assert len({id(e) for e in states}) == len(states)
    for _ in range(20):
        w.step()
    tick0 = w.rows[:3]
    for row, agent, state in zip(tick0, w.agents, states):
        assert row.tick == 0
        assert (row.e_h, row.e_c, row.e_f, row.e_k, row.fatigue) == (
            defaults.happiness,
            defaults.curiosity,
            defaults.friendship,
            defaults.courage,
            defaults.fatigue,
        )
        assert agent.emotions is state
        assert agent.emotions.fatigue != defaults.fatigue


def test_interact_exchanges_and_records():
    w = build_world(
        WorldConfig(resolution=6, n_agents=2, master_seed=8, agent=_quiet_agent_config())
    )
    a, b = w.agents
    assert interact(a, b, 1) is None  # nothing shareable yet
    _attach_photo(a, w)
    assert interact(a, b, 1) is None  # still one-sided
    _attach_photo(b, w)
    ev_b_expected = b.field.values.item({p.id: p for p in a.percepts}["a0-p1"].origin)
    ev_a_expected = a.field.values.item({p.id: p for p in b.percepts}["a1-p1"].origin)
    rec = interact(a, b, 3)
    assert rec is not None
    assert (rec.agent_a, rec.agent_b, rec.tick) == (0, 1, 3)
    assert rec.sent_by_a == "a0-p1" and rec.sent_by_b == "a1-p1"
    assert rec.eval_by_b == pytest.approx(ev_b_expected)
    assert rec.eval_by_a == pytest.approx(ev_a_expected)
    assert {p.id: p for p in b.percepts}["a0-p1"].kind == "received"
    assert {p.id: p for p in a.percepts}["a1-p1"].kind == "received"
    # a record is a value: equal and hashed by its fields, immutable, picklable
    same = InteractionRecord(*rec)
    assert same == rec and hash(same) == hash(rec) and same is not rec
    assert rec._replace(tick=4) != rec
    with pytest.raises(AttributeError):
        rec.tick = 4
    assert pickle.loads(pickle.dumps(rec)) == rec


def test_step_pairs_all_colocated_awake_agents():
    cfg = WorldConfig(
        resolution=6,
        n_agents=3,
        master_seed=21,
        stimulus_probability=0.0,
        agent=_quiet_agent_config(),
    )
    w = build_world(cfg)
    meet = GridCell(2, 2)
    for a in w.agents:
        a.position = meet
        _attach_photo(a, w)
    w.step()
    assert len(w.interactions) == 3
    assert {(r.agent_a, r.agent_b) for r in w.interactions} == {(0, 1), (0, 2), (1, 2)}
    assert all(r.cell == meet and r.tick == 1 for r in w.interactions)
    tick1 = [r for r in w.rows if r.tick == 1]
    for row in tick1:
        assert sum(1 for e in row.events if e.startswith("int:")) == 2


def test_step_excludes_sleeping_agents_from_pairs():
    cfg = WorldConfig(
        resolution=6,
        n_agents=3,
        master_seed=21,
        stimulus_probability=0.0,
        agent=_quiet_agent_config(),
    )
    w = build_world(cfg)
    meet = GridCell(1, 1)
    for a in w.agents:
        a.position = meet
        _attach_photo(a, w)
    w.agents[2].mode = "asleep"
    w.step()
    assert {(r.agent_a, r.agent_b) for r in w.interactions} == {(0, 1)}


def test_step_resends_are_recorded_but_idempotent():
    cfg = WorldConfig(
        resolution=6,
        n_agents=2,
        master_seed=33,
        stimulus_probability=0.0,
        agent=_quiet_agent_config(),
    )
    w = build_world(cfg)
    meet = GridCell(3, 3)
    for a in w.agents:
        a.position = meet
        _attach_photo(a, w)
    w.step()
    w.step()
    # the same pair met twice and resent the same ids
    assert len(w.interactions) == 2
    assert w.interactions[0].sent_by_a == w.interactions[1].sent_by_a
    for a in w.agents:
        assert sum(p.kind == "received" for p in a.percepts) == 1
        assert len(a.percepts) == 2  # own photo + the single received copy


def test_run_is_deterministic(tmp_path):
    cfg = WorldConfig(resolution=8, n_agents=2, total_ticks=60, master_seed=77)
    t1 = run(cfg)
    t2 = run(cfg)
    assert t1.rows == t2.rows
    assert t1.interactions == t2.interactions
    # dream rows hold their frames, which compare by identity: compare the files
    for name, t in (("d1.csv", t1), ("d2.csv", t2)):
        write_dreams_csv(str(tmp_path / name), t.dream_rows)
    assert (tmp_path / "d1.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()
    assert len(t1.percept_rows) == len(t2.percept_rows)
    for (pa, p), (qa, q) in zip(t1.percept_rows, t2.percept_rows):
        assert p.id == q.id and pa == qa
        assert np.array_equal(p.features, q.features)
    t3 = run(WorldConfig(resolution=8, n_agents=2, total_ticks=60, master_seed=78))
    assert t3.rows != t1.rows


def test_run_row_count_and_zero_ticks():
    cfg = WorldConfig(resolution=6, n_agents=3, total_ticks=25, master_seed=5)
    trace = run(cfg)
    assert len(trace.rows) == 3 * (25 + 1)
    empty = run(WorldConfig(resolution=6, n_agents=3, total_ticks=0, master_seed=5))
    assert len(empty.rows) == 3
    m = metrics(empty)
    assert m.interactions == m.photos == m.dream_frames == m.total_moves == 0
    assert m.mean_happiness == pytest.approx(0.5)
    assert m.mean_fatigue == pytest.approx(0.0)


def test_metrics_moves_match_agent_counters():
    # two independent routes: counters inside agents vs position diffs in rows
    cfg = WorldConfig(resolution=10, n_agents=3, total_ticks=120, master_seed=13)
    w = build_world(cfg)
    for _ in range(cfg.total_ticks):
        w.step()
    trace = w.snapshot_trace()
    m = metrics(trace)
    assert m.moves_per_agent == tuple(a.moves_used for a in w.agents)
    assert m.total_moves == sum(a.moves_used for a in w.agents)
    assert m.photos == sum(a.photo_count for a in w.agents)
    assert m.dream_frames == sum(a.dream_frame_count for a in w.agents)


def test_percept_rows_provenance():
    cfg = WorldConfig(resolution=8, n_agents=2, total_ticks=80, master_seed=40)
    trace = run(cfg)
    w = build_world(cfg)  # fresh features oracle
    kinds = {p.kind for _, p in trace.percept_rows}
    assert "observed" in kinds
    for _, p in trace.percept_rows:
        if p.kind == "observed":
            assert np.array_equal(p.features, w.cell_features(p.origin))
        assert np.all(p.features >= 0.0) and np.all(p.features <= 1.0)
        assert 0 <= p.origin.i < 8 and 0 <= p.origin.j < 8
    # ids are globally unique within an agent's combined stores
    for aid in (0, 1):
        ids = [p.id for owner, p in trace.percept_rows if owner == aid]
        assert len(ids) == len(set(ids))


def test_a_world_is_its_own_record():
    cfg = WorldConfig(
        resolution=6,
        n_agents=3,
        total_ticks=80,
        master_seed=40,
        agent=AgentConfig(photo_period=1, style_every=2),
    )
    w = run(cfg)
    assert w.snapshot_trace() is w and w.snapshot_trace().rows is w.rows
    # every stored percept once, agent by agent, content store before style store
    expected = [(a.id, id(p)) for a in w.agents for p in (*a.percepts, *a.styles)]
    assert [(aid, id(p)) for aid, p in w.percept_rows] == expected
    for a in w.agents:
        styles = [p.kind == "style" for aid, p in w.percept_rows if aid == a.id]
        assert False in styles and True in styles
        assert styles == sorted(styles)


def test_dream_rows_reference_attached_percepts():
    cfg = WorldConfig(resolution=8, n_agents=2, total_ticks=200, master_seed=7)
    trace = run(cfg)
    assert trace.dream_rows, "expected at least one dream frame in 200 ticks"
    percept_ids = {p.id for _, p in trace.percept_rows}
    for row in trace.dream_rows:
        assert row.percept_id in percept_ids
        assert row.valence in (-1, 0, 1)
        assert row.frame.pair_distance is None or row.frame.pair_distance >= 0
