"""Agent behavior: navigation, photos, exchanges, the sleep cycle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conscient_sim.agents import (
    SENDABLE_KINDS,
    Agent,
    AgentConfig,
    agent_tick,
    logistic,
    maybe_take_photo,
    navigate_step,
    receive_percept,
)
from conscient_sim.dreams import DreamConfig
from conscient_sim.emotions import EmotionParams, EmotionState
from conscient_sim.errors import ConfigError
from conscient_sim.fields import GridCell, ValueField
from conscient_sim.semantics import (
    BUILTIN_CONTENT_EDGES,
    BUILTIN_STYLE_EDGES,
    Percept,
    load_graph,
)
from conscient_sim.seeds import derive_seed, make_rng

FEATURE_DIM = 4


class FakeWorld:
    """Minimal context: builtin graphs, hashed cell features, manual stimuli."""

    def __init__(self):
        self.content_graph = load_graph(BUILTIN_CONTENT_EDGES, seed=10, feature_dim=FEATURE_DIM)
        self.style_graph = load_graph(BUILTIN_STYLE_EDGES, seed=11, feature_dim=FEATURE_DIM)
        self.stimuli = {}

    def cell_features(self, cell):
        rng = make_rng(derive_seed(999, "cell", cell.i, cell.j))
        return rng.random(FEATURE_DIM)

    def take_stimulus(self, cell):
        return self.stimuli.pop((cell.i, cell.j), None)


class StubStimulus:
    def __init__(self, score, modality="text"):
        self.score = score
        self.modality = modality


def _agent(values, seed=0, position=GridCell(0, 0), config=None, **emotions):
    field = ValueField(values.shape[0], np.asarray(values, dtype=float))
    return Agent(
        id=1,
        config=config or AgentConfig(),
        position=position,
        field=field,
        rng=make_rng(seed),
        emotions=EmotionState(**emotions) if emotions else EmotionState(),
    )


def test_agent_config_validation():
    with pytest.raises(ConfigError):
        AgentConfig(t_awake=0)
    with pytest.raises(ConfigError):
        AgentConfig(photo_period=0)
    with pytest.raises(ConfigError):
        AgentConfig(explore_rate=1.1)
    with pytest.raises(ConfigError):
        AgentConfig(visit_peak=0.5)
    with pytest.raises(ConfigError):
        AgentConfig(movement_budget=-1)
    with pytest.raises(ConfigError):
        AgentConfig(style_every=0)


def test_logistic_matches_closed_form():
    for x in (-50.0, -3.0, -0.5, 0.0, 0.5, 3.0, 50.0):
        want = 1.0 / (1.0 + math.exp(-x)) if abs(x) < 40 else (0.0 if x < 0 else 1.0)
        assert logistic(x) == pytest.approx(want, abs=1e-12)
    assert logistic(0.0) == 0.5
    assert logistic(-700.0) == pytest.approx(0.0, abs=1e-30)
    assert logistic(700.0) == 1.0


def test_navigate_pure_ascent_matches_hill_climb_oracle():
    rng = make_rng(1)
    vals = rng.normal(size=(7, 7))
    cfg = AgentConfig(explore_rate=0.0)
    agent = _agent(vals, config=cfg, position=GridCell(6, 6))
    # oracle: greedy climb with the same first-best-neighbor rule
    def climb(values, i, j):
        path = [(i, j)]
        while True:
            best, best_v = (i, j), values[i, j]
            for ni in range(max(0, i - 1), min(7, i + 2)):
                for nj in range(max(0, j - 1), min(7, j + 2)):
                    if (ni, nj) != (i, j) and values[ni, nj] > best_v:
                        best, best_v = (ni, nj), values[ni, nj]
            if best == (i, j):
                return path
            i, j = best
            path.append((i, j))

    want = climb(vals, 6, 6)
    got = [(6, 6)]
    for _ in range(len(want) - 1):
        pos = navigate_step(agent)
        got.append((pos.i, pos.j))
    assert got == want
    # at the local peak the agent stays and spends no budget
    used = agent.moves_used
    assert navigate_step(agent) == agent.position
    assert agent.moves_used == used == len(want) - 1


def test_navigate_explore_is_uniform_over_neighbors():
    vals = np.zeros((5, 5))
    cfg = AgentConfig(explore_rate=1.0)
    counts = {}
    for seed in range(2000):
        agent = _agent(vals, seed=seed, config=cfg, position=GridCell(2, 2))
        pos = navigate_step(agent)
        counts[(pos.i, pos.j)] = counts.get((pos.i, pos.j), 0) + 1
    assert len(counts) == 8
    for n in counts.values():
        assert abs(n / 2000 - 1 / 8) < 0.03


def test_navigate_budget_exhaustion():
    vals = np.zeros((6, 6))
    frozen = _agent(vals, config=AgentConfig(explore_rate=1.0, movement_budget=0))
    for _ in range(10):
        assert navigate_step(frozen) == GridCell(0, 0)
    assert frozen.moves_used == 0
    capped = _agent(vals, seed=3, config=AgentConfig(explore_rate=1.0, movement_budget=4))
    for _ in range(20):
        navigate_step(capped)
    assert capped.moves_used == 4


def test_navigate_low_happiness_move_costs_fatigue():
    ramp = np.tile(np.arange(5, dtype=float), (5, 1))
    cfg = AgentConfig(explore_rate=0.0, low_happiness_cutoff=0.2)
    sad = _agent(ramp, config=cfg, position=GridCell(2, 1), happiness=0.1)
    navigate_step(sad)
    assert sad.emotions.fatigue == pytest.approx(cfg.emotion.fatigue_tick)
    fine = _agent(ramp, config=cfg, position=GridCell(2, 1), happiness=0.2)
    navigate_step(fine)
    assert fine.emotions.fatigue == 0.0


def test_photo_cadence_gates_attempts():
    ctx = FakeWorld()
    vals = np.full((4, 4), 50.0)  # take chance is effectively 1
    cfg = AgentConfig(photo_period=3)
    agent = _agent(vals, config=cfg)
    for ticks_in_mode in range(9):
        agent.ticks_in_mode = ticks_in_mode
        got = maybe_take_photo(agent, ctx, tick=1)
        if (ticks_in_mode + 1) % 3 == 0:
            assert got is not None
        else:
            assert got is None
    assert agent.photo_count == 3


def test_photo_chance_follows_field_value():
    ctx = FakeWorld()
    cfg = AgentConfig(photo_period=1)
    lo = _agent(np.full((4, 4), -50.0), config=cfg)
    for _ in range(300):
        assert maybe_take_photo(lo, ctx, 1) is None
    taken = 0
    for seed in range(2000):
        mid = _agent(np.zeros((4, 4)), seed=seed, config=cfg)
        if maybe_take_photo(mid, ctx, 1) is not None:
            taken += 1
    assert abs(taken / 2000 - 0.5) < 0.04


def test_photo_postconditions():
    ctx = FakeWorld()
    cfg = AgentConfig(photo_period=1, visit_peak=-0.5, style_every=2)
    agent = _agent(np.full((5, 5), 50.0), config=cfg, position=GridCell(2, 3))
    before = agent.field.value_at(GridCell(2, 3))
    p = maybe_take_photo(agent, ctx, tick=7)
    assert p is not None
    assert p.id == "a1-p1" and p.kind == "observed" and p.tick == 7
    assert p.origin == GridCell(2, 3)
    assert p.category == ctx.content_graph.nodes[
        ctx.content_graph.nodes.index(p.category)
    ]
    assert np.array_equal(p.features, ctx.cell_features(GridCell(2, 3)))
    # the visited cell is penalized by exactly the bump peak
    after = agent.field.value_at(GridCell(2, 3))
    assert after == pytest.approx(before - 0.5, abs=1e-12)
    assert {q.id: q for q in agent.percepts} == {p.id: p}
    assert len(agent.styles) == 0
    # second photo duplicates into the style store
    p2 = maybe_take_photo(agent, ctx, tick=8)
    assert p2 is not None and len(agent.styles) == 1
    style = {q.id: q for q in agent.styles}["a1-s2"]
    assert style.kind == "style"
    assert style.category in ctx.style_graph.nodes


def test_photo_emotion_direction_tracks_value():
    ctx = FakeWorld()
    cfg = AgentConfig(photo_period=1)
    rich = _agent(np.full((4, 4), 50.0), config=cfg)
    h0 = rich.emotions.happiness
    maybe_take_photo(rich, ctx, 1)
    assert rich.emotions.happiness > h0
    # negative-value cells are still photographed sometimes, and sadden
    poor = _agent(np.full((4, 4), -0.01), seed=8, config=cfg)
    while maybe_take_photo(poor, ctx, 1) is None:
        pass
    assert poor.emotions.happiness < h0
    assert poor.emotions.fatigue == pytest.approx(cfg.emotion.photo_fatigue_delta)


def _foreign_percept(pid, origin, dim=FEATURE_DIM):
    return Percept(pid, np.zeros(dim), "dog", origin, tick=1, kind="observed")


def test_receive_percept_evaluates_then_bumps():
    vals = np.zeros((5, 5))
    vals[1, 2] = 0.4
    cfg = AgentConfig(visit_reward=0.3, visit_width=1.5)
    agent = _agent(vals, config=cfg)
    origin = GridCell(1, 2)
    f0 = agent.emotions.friendship
    ev = receive_percept(agent, _foreign_percept("b2-p9", origin))
    assert ev == pytest.approx(0.4)
    assert sum(p.kind == "received" for p in agent.percepts) == 1
    assert agent.emotions.friendship > f0
    stored = {p.id: p for p in agent.percepts}["b2-p9"]
    assert stored.kind == "received"
    # positive evaluation rewards the origin cell by the full peak
    assert agent.field.value_at(origin) == pytest.approx(0.7, abs=1e-12)
    # next exchange at the same origin sees the post-bump field
    ev2 = receive_percept(agent, _foreign_percept("b2-p10", origin))
    assert ev2 == pytest.approx(0.7, abs=1e-12)


def test_receive_percept_negative_evaluation_penalizes():
    vals = np.zeros((5, 5))
    vals[3, 3] = -0.2
    agent = _agent(vals, config=AgentConfig(visit_reward=0.3))
    f0 = agent.emotions.friendship
    ev = receive_percept(agent, _foreign_percept("b9-p1", GridCell(3, 3)))
    assert ev == pytest.approx(-0.2)
    assert agent.emotions.friendship < f0
    assert agent.field.value_at(GridCell(3, 3)) == pytest.approx(-0.5, abs=1e-12)


def test_receive_percept_duplicate_is_inert():
    agent = _agent(np.zeros((4, 4)))
    p = _foreign_percept("b1-p1", GridCell(2, 2))
    receive_percept(agent, p)
    snapshot_field = agent.field.values.copy()
    snapshot_emotions = agent.emotions.copy()
    ev = receive_percept(agent, p)
    assert ev == pytest.approx(agent.field.value_at(GridCell(2, 2)))
    assert sum(p.kind == "received" for p in agent.percepts) == 1
    assert len(agent.percepts) == 1
    assert np.array_equal(agent.field.values, snapshot_field)
    assert agent.emotions == snapshot_emotions


def test_latest_sendable_percept_skips_received_and_style():
    agent = _agent(np.zeros((4, 4)))
    assert agent.percepts.latest(SENDABLE_KINDS) is None
    agent.percepts.attach(_foreign_percept("own-p1", GridCell(0, 0)))
    receive_percept(agent, _foreign_percept("other-p5", GridCell(1, 1)))
    pick = agent.percepts.latest(SENDABLE_KINDS)
    assert pick is not None and pick.id == "own-p1"


def _sleepy_config(**kw):
    # threshold 1.0 means the fatigue draw can never win: sleep only at the cap
    emotion = EmotionParams(threshold=1.0)
    defaults = dict(
        t_awake=3,
        t_asleep=2,
        photo_period=10,
        explore_rate=0.0,
        emotion=emotion,
        dream=DreamConfig(step_lower=0, step_upper=1, length=4),
        noise_sigma=0.0,
    )
    defaults.update(kw)
    return AgentConfig(**defaults)


def _seed_stores(agent, ctx):
    feats = ctx.cell_features(GridCell(0, 0))
    agent.percepts.attach(
        Percept("seed-p", feats, "dog", GridCell(0, 0), tick=1, kind="observed")
    )
    agent.styles.attach(
        Percept("seed-s", feats, "dark", GridCell(0, 0), tick=1, kind="style")
    )


def test_tick_mode_cycle_at_caps():
    ctx = FakeWorld()
    agent = _agent(np.zeros((4, 4)), config=_sleepy_config())
    _seed_stores(agent, ctx)
    events = []
    for tick in range(1, 11):
        tick_events, _ = agent_tick(agent, ctx, tick)
        events.append((tick, agent.mode, tuple(tick_events)))
    modes = [m for _, m, _ in events]
    assert modes == ["awake", "awake", "asleep", "asleep", "awake"] * 2
    assert events[2][2][-1] == "sleep"
    assert events[4][2][-1] == "wake"
    assert any(e.startswith("dream:") for e in events[3][2])


def test_sleep_produces_dream_frames_and_percepts():
    ctx = FakeWorld()
    agent = _agent(np.zeros((4, 4)), config=_sleepy_config())
    _seed_stores(agent, ctx)
    dream_ticks = []
    for tick in range(1, 6):
        events, dream_row = agent_tick(agent, ctx, tick)
        if dream_row is not None:
            dream_ticks.append(tick)
            assert dream_row.agent_id == agent.id
            assert dream_row.tick == tick
            assert dream_row.frame_index == agent.dream_frame_count
            assert dream_row.valence in (-1, 0, 1)
            assert dream_row.percept_id in {p.id for p in agent.percepts}
            assert f"dream:{dream_row.percept_id}" in events
    # asleep on ticks 4 and 5: one dream frame each
    assert dream_ticks == [4, 5]
    assert agent.dream_frame_count == 2
    dreamed = {p.id: p for p in agent.percepts}["a1-d1"]
    assert dreamed.kind == "dreamed"


def test_dreamless_sleep_when_stores_empty():
    ctx = FakeWorld()
    agent = _agent(np.zeros((4, 4)), config=_sleepy_config())
    saw_dreamless = False
    for tick in range(1, 6):
        events, dream_row = agent_tick(agent, ctx, tick)
        assert dream_row is None
        assert not any(e.startswith("dream:") for e in events)
        saw_dreamless = saw_dreamless or ("dreamless" in events)
    assert saw_dreamless
    assert agent.dream_frame_count == 0


def test_wake_contaminates_field():
    ctx = FakeWorld()
    noisy_cfg = _sleepy_config(noise_sigma=0.5)
    agent = _agent(np.zeros((4, 4)), config=noisy_cfg)
    _seed_stores(agent, ctx)
    before = None
    for tick in range(1, 6):
        if agent.mode == "asleep" and before is None:
            before = agent.field.values.copy()
        events, _ = agent_tick(agent, ctx, tick)
        if "wake" in events:
            assert before is not None
            assert not np.array_equal(agent.field.values, before)
            return
    raise AssertionError("agent never woke")


def test_stimulus_consumed_and_logged():
    ctx = FakeWorld()
    ctx.stimuli[(0, 0)] = StubStimulus(0.9, "image")
    cfg = _sleepy_config(t_awake=30, movement_budget=0)
    agent = _agent(np.zeros((4, 4)), config=cfg)
    c0 = agent.emotions.curiosity
    events, _ = agent_tick(agent, ctx, 1)
    assert "stim:image" in events
    assert agent.emotions.curiosity < c0 + cfg.emotion.curiosity_growth
    assert ctx.stimuli == {}
    # nothing left to consume on the next tick
    events, _ = agent_tick(agent, ctx, 2)
    assert not any(e.startswith("stim:") for e in events)
