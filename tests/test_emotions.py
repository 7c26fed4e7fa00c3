"""Emotion state updates: event deltas, time, sleep gate."""

from __future__ import annotations

import math
import re

import pytest

from conscient_sim.emotions import (
    EVENT_KINDS,
    EmotionParams,
    EmotionState,
    _delta,
    apply_event,
    should_sleep,
    tick_emotions,
)
from conscient_sim.errors import ConfigError, ContractError
from conscient_sim.seeds import make_rng


def test_state_validation_and_copy():
    with pytest.raises(ConfigError):
        EmotionState(happiness=1.2)
    with pytest.raises(ConfigError):
        EmotionState(fatigue=-0.1)
    with pytest.raises(ConfigError):
        EmotionState(courage=float("nan"))
    s = EmotionState(happiness=0.3, curiosity=0.4, friendship=0.6, courage=0.7, fatigue=0.2)
    c = s.copy()
    assert type(c) is EmotionState and c is not s and c == s
    c.happiness = 0.9
    c.fatigue = 1.0
    assert s == EmotionState(0.3, 0.4, 0.6, 0.7, 0.2)


def test_params_validation():
    with pytest.raises(ConfigError):
        EmotionParams(delta_lower=0.5, delta_upper=0.2)
    with pytest.raises(ConfigError):
        EmotionParams(threshold=1.5)
    with pytest.raises(ConfigError):
        EmotionParams(sleep_decay=-0.1)
    with pytest.raises(ConfigError):
        EmotionParams(valence_high=-0.5, valence_low=0.5)
    with pytest.raises(ConfigError):
        EmotionParams(courage_gain=-1.0)
    with pytest.raises(ConfigError, match="emotion.valence_high"):
        EmotionParams(valence_high=float("inf"))
    with pytest.raises(ConfigError, match="emotion.valence_low"):
        EmotionParams(valence_low=float("nan"))


def test_event_validation():
    params, base = EmotionParams(), EmotionState()
    for kind, payload, message in (
        ("applause", 0.5, f"unknown emotion event kind 'applause', expected one of {EVENT_KINDS}"),
        ("photo_taken", float("nan"), "event payload must be finite"),
    ):
        rng = make_rng(9)
        with pytest.raises(ContractError, match=re.escape(message)):
            apply_event(base, kind, payload, params, rng)
        # rejected before any draw
        assert rng.random() == make_rng(9).random()
    for kind in EVENT_KINDS:
        apply_event(base, kind, 0.0, params, make_rng(0))


def test_photo_event_directions():
    params = EmotionParams(delta_lower=0.1, delta_upper=0.2, photo_fatigue_delta=0.02)
    base = EmotionState()
    good = apply_event(base, "photo_taken", 0.7, params, make_rng(1))
    assert 0.1 <= good.happiness - base.happiness <= 0.2
    assert good.fatigue == base.fatigue
    bad = apply_event(base, "photo_taken", -0.7, params, make_rng(1))
    assert 0.1 <= base.happiness - bad.happiness <= 0.2
    assert bad.fatigue == pytest.approx(base.fatigue + 0.02)
    # payload exactly at the cutoff counts as not-high
    edge = apply_event(base, "photo_taken", 0.0, params, make_rng(1))
    assert edge.happiness < base.happiness
    assert base.curiosity == good.curiosity == bad.curiosity


def test_dream_frame_event_directions():
    params = EmotionParams(delta_lower=0.1, delta_upper=0.2)
    base = EmotionState()
    up = apply_event(base, "dream_frame", 1.0, params, make_rng(2))
    down = apply_event(base, "dream_frame", -1.0, params, make_rng(2))
    flat = apply_event(base, "dream_frame", 0.0, params, make_rng(2))
    assert 0.1 <= up.happiness - base.happiness <= 0.2
    assert 0.1 <= base.happiness - down.happiness <= 0.2
    assert flat.happiness == base.happiness


def test_interaction_event_directions_and_independent_draws():
    params = EmotionParams(delta_lower=0.05, delta_upper=0.25)
    base = EmotionState()
    pos = apply_event(base, "interaction", 0.4, params, make_rng(3))
    assert pos.friendship > base.friendship
    assert pos.happiness > base.happiness
    # the two moves use separate draws, not one shared delta
    assert pos.friendship - base.friendship != pos.happiness - base.happiness
    neg = apply_event(base, "interaction", -0.4, params, make_rng(3))
    assert neg.friendship < base.friendship
    assert neg.happiness < base.happiness


def test_content_stimulus_event_directions():
    params = EmotionParams(delta_lower=0.1, delta_upper=0.2)
    base = EmotionState()
    pos = apply_event(base, "content_stimulus", 0.8, params, make_rng(4))
    assert pos.curiosity < base.curiosity
    assert pos.happiness > base.happiness
    neg = apply_event(base, "content_stimulus", -0.8, params, make_rng(4))
    assert neg.curiosity < base.curiosity
    assert neg.happiness < base.happiness
    flat = apply_event(base, "content_stimulus", 0.0, params, make_rng(4))
    assert flat.curiosity < base.curiosity
    assert flat.happiness == base.happiness


def test_apply_event_does_not_mutate_input():
    params = EmotionParams()
    base = EmotionState()
    apply_event(base, "interaction", 1.0, params, make_rng(0))
    assert base == EmotionState()


def test_tick_awake_arithmetic():
    params = EmotionParams(fatigue_tick=0.01, curiosity_growth=0.002)
    s = EmotionState(happiness=0.5, curiosity=0.4, fatigue=0.2)
    out = tick_emotions(s, params, "awake")
    # fatigue grows by tick * (1 + sadness), sadness being 1 - happiness
    assert out.fatigue == pytest.approx(0.2 + 0.01 * 1.5)
    assert out.curiosity == pytest.approx(0.402)
    content = tick_emotions(EmotionState(happiness=1.0), params, "awake")
    assert content.fatigue == pytest.approx(0.01)
    glum = tick_emotions(EmotionState(happiness=0.0), params, "awake")
    assert glum.fatigue == pytest.approx(0.02)


def test_tick_asleep_arithmetic():
    params = EmotionParams(sleep_decay=0.1)
    s = EmotionState(curiosity=0.4, fatigue=0.35)
    out = tick_emotions(s, params, "asleep")
    assert out.fatigue == pytest.approx(0.25)
    assert out.curiosity == 0.4
    drained = tick_emotions(EmotionState(fatigue=0.05), params, "asleep")
    assert drained.fatigue == 0.0
    with pytest.raises(ConfigError):
        tick_emotions(s, params, "dozing")


def test_bounds_hold_under_long_fuzz():
    # invariant: every field stays in [0, 1] under arbitrary event streams
    params = EmotionParams(delta_lower=0.0, delta_upper=0.3, photo_fatigue_delta=0.05)
    rng = make_rng(2025)
    state = EmotionState()
    payloads = (-1.0, -0.3, 0.0, 0.3, 1.0)
    for step in range(100_000):
        r = rng.random()
        if r < 0.7:
            kind = EVENT_KINDS[int(rng.integers(len(EVENT_KINDS)))]
            payload = payloads[int(rng.integers(len(payloads)))]
            state = apply_event(state, kind, payload, params, rng)
        else:
            state = tick_emotions(state, params, "awake" if r < 0.85 else "asleep")
        for v in (state.happiness, state.curiosity, state.friendship, state.courage, state.fatigue):
            assert 0.0 <= v <= 1.0


def test_should_sleep_cap_and_zero_fatigue():
    params = EmotionParams(threshold=0.8)
    tired = EmotionState(fatigue=1.0)
    fresh = EmotionState(fatigue=0.0)
    rng = make_rng(0)
    assert should_sleep(tired, 10, 10, params, rng) is True
    assert should_sleep(fresh, 11, 10, params, rng) is True
    for _ in range(200):
        assert should_sleep(fresh, 0, 10, params, rng) is False


def test_should_sleep_rate_matches_uniform_law():
    # P(U(0, f) > threshold) = (f - threshold) / f for f > threshold
    params = EmotionParams(threshold=0.8)
    tired = EmotionState(fatigue=1.0)
    rng = make_rng(55)
    n = 4000
    hits = sum(should_sleep(tired, 0, 10_000, params, rng) for _ in range(n))
    assert abs(hits / n - 0.2) < 0.03
    half = EmotionState(fatigue=0.9)
    hits_half = sum(should_sleep(half, 0, 10_000, params, rng) for _ in range(n))
    assert abs(hits_half / n - 1.0 / 9.0) < 0.03
    below = EmotionState(fatigue=0.5)
    assert not any(should_sleep(below, 0, 10_000, params, rng) for _ in range(200))


# (0, f) for f in {0, 0.37, 1} are the shapes should_sleep draws with
DRAW_BOUNDS = [(0.0, 0.0), (0.02, 0.08), (0.1, 0.1), (0.0, 0.37), (0.0, 1.0)]


@pytest.mark.parametrize("lo,hi", DRAW_BOUNDS)
def test_delta_draw_equals_generator_uniform_bit_for_bit(lo, hi):
    params = EmotionParams(delta_lower=lo, delta_upper=hi)
    for seed in range(200):
        ours, numpys = make_rng(seed), make_rng(seed)
        got, want = _delta(params, ours), numpys.uniform(lo, hi)
        assert type(got) is float and got.hex() == float(want).hex()
        assert ours.bit_generator.state == numpys.bit_generator.state


@pytest.mark.parametrize("f", [0.0, 0.37, 1.0])
def test_should_sleep_draw_equals_generator_uniform_bit_for_bit(f):
    # the draw u is pinned from both sides: it is not above u itself, and it
    # is above the next double below u
    state = EmotionState(fatigue=f)
    for seed in range(200):
        numpys = make_rng(seed)
        u = float(numpys.uniform(0.0, f))
        below = math.nextafter(u, -math.inf)
        for threshold, want in ((u, False), (below, True)):
            if not 0.0 <= threshold <= 1.0:
                continue
            ours = make_rng(seed)
            assert should_sleep(state, 0, 10, EmotionParams(threshold=threshold), ours) is want
            assert ours.bit_generator.state == numpys.bit_generator.state
