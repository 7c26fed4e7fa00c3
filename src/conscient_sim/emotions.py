"""Bounded emotion dynamics.

Four emotion intensities (happiness, curiosity, friendship, courage) plus
fatigue, each clamped to [0, 1] after every update. Events move emotions by a
step drawn uniformly from [delta_lower, delta_upper]; the passage of time
moves fatigue and curiosity. Each emotion's complement (sadness, boredom,
enmity, fear) is implicit as 1 - value. An `EmotionState` is its agent's own
record for the agent's whole life: updates write into it in place.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import bound, check_bounds
from .seeds import Stream


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


@dataclass(slots=True)
class EmotionState:
    happiness: float = 0.5
    curiosity: float = 0.5
    friendship: float = 0.5
    courage: float = 0.5
    fatigue: float = 0.0


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
# Stream.random() returns next_double from the same stream position, so
# _delta and should_sleep draw uniform's doubles bit for bit without paying
# for its argument handling.
def _delta(params: EmotionParams, rng: Stream) -> float:
    lo = params.delta_lower
    return lo + (params.delta_upper - lo) * rng.random()


def apply_event(
    state: EmotionState,
    kind: str,
    payload: float,
    params: EmotionParams,
    rng: Stream,
) -> None:
    """Move emotions in place for one event of `kind`. Every delta below is an independent draw.

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
    of the four above.
    """
    eps = params.photo_fatigue_delta
    if kind == "photo_taken":
        if payload > params.high_value_cutoff:
            state.happiness = _clamp01(state.happiness + _delta(params, rng))
            state.fatigue = _clamp01(state.fatigue + min(eps, 0.0))
        else:
            state.happiness = _clamp01(state.happiness - _delta(params, rng))
            state.fatigue = _clamp01(state.fatigue + max(eps, 0.0))
    elif kind == "dream_frame":
        state.happiness = _clamp01(state.happiness + payload * _delta(params, rng))
    elif kind == "interaction":
        sign = 1.0 if payload > 0.0 else -1.0
        state.friendship = _clamp01(state.friendship + sign * _delta(params, rng))
        state.happiness = _clamp01(state.happiness + sign * _delta(params, rng))
    else:  # content_stimulus
        state.curiosity = _clamp01(state.curiosity - _delta(params, rng))
        if payload > 0.0:
            state.happiness = _clamp01(state.happiness + _delta(params, rng))
        elif payload < 0.0:
            state.happiness = _clamp01(state.happiness - _delta(params, rng))


def tick_emotions(state: EmotionState, params: EmotionParams, mode: str) -> None:
    """One tick of time, in place. Awake: fatigue grows, faster when unhappy,
    and curiosity drifts up toward boredom. Asleep: fatigue decays.
    """
    if mode == "awake":
        state.fatigue = _clamp01(
            state.fatigue + params.fatigue_tick * (1.0 + (1.0 - state.happiness))
        )
        state.curiosity = _clamp01(state.curiosity + params.curiosity_growth)
    else:
        state.fatigue = _clamp01(state.fatigue - params.sleep_decay)


def should_sleep(
    state: EmotionState,
    ticks_awake: int,
    t_awake_cap: int,
    params: EmotionParams,
    rng: Stream,
) -> bool:
    """Sleep at the awake-tick cap, else with a fatigue-driven random draw.

    The draw is uniform on [0, fatigue] and compared against the threshold, so
    zero fatigue never sleeps early and the chance grows with fatigue.
    """
    if ticks_awake >= t_awake_cap:
        return True
    return state.fatigue * rng.random() > params.threshold
