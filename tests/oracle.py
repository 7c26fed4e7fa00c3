"""Plain reference definitions that tests check the simulator against.

Nothing in `src/` uses these; each is written the straight way, with no memo
and no cache, so a fast path in `src/` can be compared with it.
"""

from __future__ import annotations

import math

# the closed list of event kinds `emotions.apply_event` handles
EVENT_KINDS = ("photo_taken", "dream_frame", "interaction", "content_stimulus")


def bump_amount(peak: float, width: float, distance: float) -> float:
    """Gaussian radial profile `fields.local_bump` applies at a given cell distance."""
    return peak * math.exp(-(distance * distance) / (2.0 * width * width))
