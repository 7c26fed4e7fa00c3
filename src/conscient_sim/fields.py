"""Importance fields: Gaussian-prior samples on a square grid.

A field assigns a real importance value to every cell of an r x r grid. Fields
are drawn from a zero-mean multivariate normal whose covariance is a squared
exponential over cell coordinates, then reshaped over an agent's life by local
Gaussian bumps (visit penalties, rewards, social feedback) and by additive
white noise on waking. Every operation here is a pure function of its inputs
and the supplied random stream: callers get a new field back, inputs are never
mutated.

A bump on an r x r grid is an r x r slice of one cached (2r - 1) x (2r - 1)
window of the unit bump per (resolution, width), so repeated bumps exponentiate
nothing; the slice holds the same doubles a per-cell evaluation gives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, CovarianceDegeneracyError

# Exact sampling factorizes an r^2 x r^2 covariance; memory grows as r^4, and
# the last two factors stay cached.
MAX_RESOLUTION = 128
JITTER_CEILING = 1e-4


@dataclass(frozen=True)
class KernelConfig:
    """Squared-exponential kernel amplitude * exp(-|p-q|^2 / (2 lengthscale^2)).

    `jitter` is added to the diagonal for numerical stability; distances are
    Euclidean in cell units.
    """

    amplitude: float = 1.0
    lengthscale: float = 2.0
    jitter: float = 1e-8

    def __post_init__(self) -> None:
        if not (math.isfinite(self.amplitude) and self.amplitude > 0):
            raise ConfigError(f"kernel.amplitude must be > 0, got {self.amplitude}")
        if not (math.isfinite(self.lengthscale) and self.lengthscale > 0):
            raise ConfigError(f"kernel.lengthscale must be > 0, got {self.lengthscale}")
        # kernel_matrix divides by 2 * lengthscale**2: at 0 its diagonal is
        # 0/0, and a square that overflows raises OverflowError
        if not 0.0 < 2.0 * self.lengthscale * self.lengthscale < math.inf:
            raise ConfigError(
                f"kernel.lengthscale {self.lengthscale} is out of range: "
                f"2 * lengthscale**2 underflows to 0 or overflows"
            )
        if not (math.isfinite(self.jitter) and self.jitter >= 0):
            raise ConfigError(f"kernel.jitter must be >= 0, got {self.jitter}")


@dataclass(frozen=True, order=True)
class GridCell:
    i: int
    j: int


@dataclass(eq=False)
class ValueField:
    """Importance values on an r x r grid, row-major, always finite."""

    resolution: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if not np.isfinite(self.values).all():
            raise ConfigError(
                "field values must be finite; check the keys that feed a field: "
                "world.reward_peak, world.reward_count, agent.visit_peak, "
                "agent.visit_reward, agent.noise_sigma and kernel.*"
            )

    def value_at(self, cell: GridCell) -> float:
        return float(self.values[cell.i, cell.j])


def kernel_matrix(kernel: KernelConfig, resolution: int) -> np.ndarray:
    """Covariance over the r^2 grid cells in row-major order, jitter included."""
    idx = np.arange(resolution, dtype=float)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    pts = np.column_stack([ii.ravel(), jj.ravel()])
    diff = pts[:, None, :] - pts[None, :, :]
    sq = np.sum(diff * diff, axis=-1)
    cov = kernel.amplitude * np.exp(-sq / (2.0 * kernel.lengthscale**2))
    cov[np.diag_indices_from(cov)] += kernel.jitter
    return cov


def sample_field(kernel: KernelConfig, resolution: int, rng: np.random.Generator) -> ValueField:
    """Draw one field from the zero-mean prior with the given kernel.

    The covariance is factorized by Cholesky; on failure the diagonal jitter
    escalates tenfold per retry up to JITTER_CEILING before giving up. The
    same kernel, resolution, and seed always reproduce the same field.
    """
    draw = _covariance_factor(kernel, resolution) @ rng.standard_normal(resolution * resolution)
    return ValueField(resolution, draw.reshape(resolution, resolution))


# Keyed on the whole kernel, so every world sharing a kernel and resolution
# shares one factor. A failed factorization raises and is not cached.
@functools.lru_cache(maxsize=2)
def _covariance_factor(kernel: KernelConfig, resolution: int) -> np.ndarray:
    """Read-only lower Cholesky factor of the kernel's covariance."""
    jitter = kernel.jitter
    while True:
        try:
            chol = np.linalg.cholesky(kernel_matrix(replace(kernel, jitter=jitter), resolution))
            break
        except np.linalg.LinAlgError:
            jitter = max(jitter, 1e-12) * 10.0
            if jitter > JITTER_CEILING:
                raise CovarianceDegeneracyError(
                    f"covariance not positive definite up to jitter {JITTER_CEILING}; "
                    "check kernel.amplitude, kernel.lengthscale and kernel.jitter"
                ) from None
    chol.flags.writeable = False
    return chol


def bump_amount(peak: float, width: float, distance: float) -> float:
    """Gaussian radial profile local_bump applies at a given cell distance."""
    return peak * math.exp(-(distance * distance) / (2.0 * width * width))


def local_bump(field: ValueField, center: GridCell, peak: float, width: float) -> ValueField:
    """Add an unnormalized Gaussian bump centered on a cell.

    Every cell gains peak * exp(-d^2 / (2 width^2)) where d is the Euclidean
    distance to `center` in cell units; negative peaks penalize, positive
    peaks reward. Exactly inverted by a second bump with -peak.
    """
    r = field.resolution
    window = _unit_bump_window(r, width)
    # rows r-1-i .. 2r-2-i hold offsets -i .. r-1-i from the center row, so the
    # slice holds exp(-d^2 / (2 width^2)) at every cell of the grid
    unit = window[r - 1 - center.i : 2 * r - 1 - center.i, r - 1 - center.j : 2 * r - 1 - center.j]
    # ValueField reports a non-finite peak or an overflowing sum, naming the keys
    with np.errstate(over="ignore", invalid="ignore"):
        values = field.values + peak * unit
    return ValueField(field.resolution, values)


@functools.lru_cache(maxsize=8)
def _unit_bump_window(resolution: int, width: float) -> np.ndarray:
    """Read-only unit bump exp(-d^2 / (2 width^2)) over every offset a grid holds.

    Entry [a, b] is at offset (a - r + 1, b - r + 1), so the window is
    (2r - 1) x (2r - 1) and its center is offset (0, 0). d^2 is an exact
    integer in float, the same value as the per-cell squared distance.
    """
    off = np.arange(1 - resolution, resolution, dtype=float) ** 2
    d2 = off[:, None] + off[None, :]
    # a width whose square underflows gives a NaN center, which ValueField rejects
    with np.errstate(over="ignore", invalid="ignore"):
        window = np.exp(-d2 / (2.0 * width * width))
    window.flags.writeable = False
    return window


def contaminate(field: ValueField, sigma: float, rng: np.random.Generator) -> ValueField:
    """Add i.i.d. N(0, sigma^2) noise to every cell; sigma 0 is the identity."""
    noise = rng.normal(0.0, sigma, size=field.values.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        values = field.values + noise
    return ValueField(field.resolution, values)


@functools.lru_cache(maxsize=MAX_RESOLUTION * MAX_RESOLUTION)
def moore_neighbors(cell: GridCell, resolution: int) -> tuple[GridCell, ...]:
    """In-bounds 8-neighborhood of a cell, ordered by (i, j); a shared, cached tuple."""
    out = []
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            ni, nj = cell.i + di, cell.j + dj
            if 0 <= ni < resolution and 0 <= nj < resolution:
                out.append(GridCell(ni, nj))
    return tuple(out)


def steepest_neighbor(field: ValueField, cell: GridCell) -> GridCell:
    """Highest-valued in-bounds Moore neighbor, or the cell itself.

    Returns `cell` when no neighbor strictly improves on it; ties between
    equally good neighbors resolve to the lowest (i, j).
    """
    best = cell
    best_val = field.value_at(cell)
    values = field.values
    for nb in moore_neighbors(cell, field.resolution):
        v = values.item(nb.i, nb.j)
        if v > best_val:
            best, best_val = nb, v
    return best
