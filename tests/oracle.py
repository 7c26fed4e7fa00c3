"""Plain reference definitions that tests check the simulator against.

Nothing in `src/` uses these; each is written the straight way, with no memo
and no cache, so a fast path in `src/` can be compared with it.
"""

from __future__ import annotations

import math

import numpy as np

# the closed list of event kinds `emotions.apply_event` handles
EVENT_KINDS = ("photo_taken", "dream_frame", "interaction", "content_stimulus")


def bump_amount(peak: float, width: float, distance: float) -> float:
    """Gaussian radial profile `fields.local_bump` applies at a given cell distance."""
    return peak * math.exp(-(distance * distance) / (2.0 * width * width))


def classify(features, graph) -> str:
    """Name of the prototype of `graph` nearest to `features` by `np.linalg.norm`,
    one node at a time in sorted order, so an exact tie goes to the first name."""
    best, best_d = None, float("inf")
    for node in sorted(graph.nodes):
        prototype = graph.prototype_matrix[graph.nodes.index(node)]
        d = float(np.linalg.norm(features - prototype))
        if d < best_d:
            best, best_d = node, d
    return best
