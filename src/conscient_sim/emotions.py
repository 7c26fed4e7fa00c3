"""Bounded emotion dynamics.

Four emotion intensities (happiness, curiosity, friendship, courage) plus
fatigue, each clamped to [0, 1] after every update. Events move emotions by a
step drawn uniformly from [delta_lower, delta_upper]; the passage of time
moves fatigue and curiosity. Each emotion's complement (sadness, boredom,
enmity, fear) is implicit as 1 - value. Updates return new states; inputs are
never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import bound, check_bounds

EVENT_KINDS = ("photo_taken", "dream_frame", "interaction", "content_stimulus")


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


@dataclass(slots=True)
class EmotionState:
    happiness: float = 0.5
    curiosity: float = 0.5
    friendship: float = 0.5
    courage: float = 0.5
    fatigue: float = 0.0

    def copy(self) -> "EmotionState":
        new = object.__new__(EmotionState)
        new.happiness = self.happiness
        new.curiosity = self.curiosity
        new.friendship = self.friendship
        new.courage = self.courage
        new.fatigue = self.fatigue
        return new


@dataclass(frozen=True, slots=True)
class EmotionParams:
    """Declared defaults for every rate; all overridable via config."""

    delta_lower: float = bound(0.02, 0, at_most="delta_upper")
    delta_upper: float = bound(0.08, hi=1)
    fatigue_tick: float = bound(0.01, 0)
    photo_fatigue_delta: float = 0.02
    sleep_decay: float = bound(0.1, 0)
    threshold: float = bound(0.8, 0, 1)
    # No event moves courage, so nothing reads this gain; it stays a config key.
    courage_gain: float = bound(0.5, 0)
    valence_high: float = 0.5
    valence_low: float = bound(-0.5, at_most="valence_high")
    high_value_cutoff: float = 0.0
    curiosity_growth: float = bound(0.002, 0)

    def __post_init__(self) -> None:
        check_bounds(self, "emotion")


# Generator.uniform(lo, hi) returns lo + (hi - lo) * next_double, and
# Generator.random() returns next_double from the same stream position, so
# _delta and should_sleep draw uniform's doubles bit for bit without paying
# for its argument handling.
def _delta(params: EmotionParams, rng: np.random.Generator) -> float:
    lo = params.delta_lower
    return lo + (params.delta_upper - lo) * rng.random()


def apply_event(
    state: EmotionState,
    kind: str,
    payload: float,
    params: EmotionParams,
    rng: np.random.Generator,
) -> EmotionState:
    """Move emotions for one event of `kind`. Every delta below is an independent draw.

    photo_taken: payload is the field value at the photo cell. Above the
      high-value cutoff happiness rises and fatigue takes min(eps, 0); at or
      below, happiness falls and fatigue takes max(eps, 0).
    dream_frame: payload is the frame valence in {-1, 0, +1}; happiness moves
      by valence * delta.
    interaction: payload is the receiver's evaluation of the exchanged
      percept; friendship and happiness move together, up when positive.
    content_stimulus: payload is the stimulus score in [-1, 1]; curiosity
      drops (boredom relieved) and happiness moves with the score's sign.
    Each payload is a finite field value, valence or score, and `kind` is one
    of EVENT_KINDS.
    """
    new = state.copy()
    eps = params.photo_fatigue_delta
    if kind == "photo_taken":
        if payload > params.high_value_cutoff:
            new.happiness = _clamp01(new.happiness + _delta(params, rng))
            new.fatigue = _clamp01(new.fatigue + min(eps, 0.0))
        else:
            new.happiness = _clamp01(new.happiness - _delta(params, rng))
            new.fatigue = _clamp01(new.fatigue + max(eps, 0.0))
    elif kind == "dream_frame":
        new.happiness = _clamp01(new.happiness + payload * _delta(params, rng))
    elif kind == "interaction":
        sign = 1.0 if payload > 0.0 else -1.0
        new.friendship = _clamp01(new.friendship + sign * _delta(params, rng))
        new.happiness = _clamp01(new.happiness + sign * _delta(params, rng))
    else:  # content_stimulus
        new.curiosity = _clamp01(new.curiosity - _delta(params, rng))
        if payload > 0.0:
            new.happiness = _clamp01(new.happiness + _delta(params, rng))
        elif payload < 0.0:
            new.happiness = _clamp01(new.happiness - _delta(params, rng))
    return new


def tick_emotions(state: EmotionState, params: EmotionParams, mode: str) -> EmotionState:
    """One tick of time. Awake: fatigue grows, faster when unhappy, and
    curiosity drifts up toward boredom. Asleep: fatigue decays.
    """
    new = state.copy()
    if mode == "awake":
        new.fatigue = _clamp01(
            new.fatigue + params.fatigue_tick * (1.0 + (1.0 - new.happiness))
        )
        new.curiosity = _clamp01(new.curiosity + params.curiosity_growth)
    else:
        new.fatigue = _clamp01(new.fatigue - params.sleep_decay)
    return new


def should_sleep(
    state: EmotionState,
    ticks_awake: int,
    t_awake_cap: int,
    params: EmotionParams,
    rng: np.random.Generator,
) -> bool:
    """Sleep at the awake-tick cap, else with a fatigue-driven random draw.

    The draw is uniform on [0, fatigue] and compared against the threshold, so
    zero fatigue never sleeps early and the chance grows with fatigue.
    """
    if ticks_awake >= t_awake_cap:
        return True
    return state.fatigue * rng.random() > params.threshold
