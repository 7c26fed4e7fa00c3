"""Field sampling, bumps, noise, and navigation primitives."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conscient_sim.errors import ConfigError, CovarianceDegeneracyError
from conscient_sim.fields import (
    MAX_RESOLUTION,
    GridCell,
    KernelConfig,
    ValueField,
    _covariance_factor,
    bump_amount,
    contaminate,
    kernel_matrix,
    local_bump,
    moore_neighbors,
    sample_field,
    steepest_neighbor,
)
from conscient_sim.seeds import make_rng


def test_kernel_config_validation():
    with pytest.raises(ConfigError):
        KernelConfig(amplitude=0.0)
    with pytest.raises(ConfigError):
        KernelConfig(amplitude=-1.0)
    with pytest.raises(ConfigError):
        KernelConfig(lengthscale=0.0)
    with pytest.raises(ConfigError):
        KernelConfig(jitter=-1e-9)


def test_kernel_matrix_matches_scalar_formula():
    # oracle: direct per-pair evaluation of the kernel definition
    kernel = KernelConfig(amplitude=1.3, lengthscale=0.9, jitter=1e-6)
    r = 4
    got = kernel_matrix(kernel, r)
    pts = [(i, j) for i in range(r) for j in range(r)]
    for a, (pi, pj) in enumerate(pts):
        for b, (qi, qj) in enumerate(pts):
            d2 = (pi - qi) ** 2 + (pj - qj) ** 2
            want = 1.3 * math.exp(-d2 / (2.0 * 0.9**2))
            if a == b:
                want += 1e-6
            assert got[a, b] == pytest.approx(want, abs=1e-12)


def test_sample_field_determinism():
    kernel = KernelConfig()
    a = sample_field(kernel, 8, make_rng(123))
    b = sample_field(kernel, 8, make_rng(123))
    c = sample_field(kernel, 8, make_rng(124))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_sample_field_matches_uncached_factor():
    # oracle: factor the jittered covariance afresh for every draw
    kernels = [KernelConfig(), KernelConfig(lengthscale=1.0), KernelConfig(amplitude=2.0)]
    for kernel in kernels + kernels[:1]:  # the last draw follows an eviction
        for seed in (0, 1):
            chol = np.linalg.cholesky(kernel_matrix(kernel, 6))
            want = (chol @ make_rng(seed).standard_normal(36)).reshape(6, 6)
            assert np.array_equal(sample_field(kernel, 6, make_rng(seed)).values, want)


def test_sample_field_marginal_law():
    # Monte-Carlo oracle: per-cell mean ~ 0 and variance ~ amplitude + jitter
    kernel = KernelConfig(amplitude=1.0, lengthscale=2.0)
    rng = make_rng(2024)
    n = 1000
    draws = np.stack([sample_field(kernel, 6, rng).values for _ in range(n)])
    se = math.sqrt(1.0 / n)
    assert np.all(np.abs(draws.mean(axis=0)) < 4 * se)
    var = draws.var(axis=0, ddof=1)
    assert np.all(np.abs(var - 1.0) < 0.2)


def test_sample_field_adjacent_covariance():
    # closed form: cov between cells at distance 1 is amp * exp(-1 / (2 ls^2))
    kernel = KernelConfig(amplitude=1.0, lengthscale=2.0)
    rng = make_rng(77)
    xs = []
    ys = []
    for _ in range(2000):
        f = sample_field(kernel, 8, rng)
        xs.append(f.values[0, 0])
        ys.append(f.values[0, 1])
    cov = np.cov(np.array(xs), np.array(ys), ddof=1)[0, 1]
    assert abs(cov - math.exp(-1.0 / 8.0)) < 0.08


def test_sample_field_degenerate_covariance():
    # identical columns at this scale: escalated jitter drowns in rounding
    kernel = KernelConfig(amplitude=1e16, lengthscale=1e6, jitter=1e-8)
    for _ in range(2):  # a failed factorization is not cached
        with pytest.raises(CovarianceDegeneracyError):
            sample_field(kernel, 4, make_rng(5))


@pytest.mark.parametrize(
    "kernel, r", [(KernelConfig(), 16), (KernelConfig(2.5, 0.7, 1e-6), 9)]
)
def test_covariance_factor_is_the_cholesky_of_the_kernel_matrix(kernel, r):
    # without escalation the cached factor is exactly that of the jittered covariance
    want = np.linalg.cholesky(kernel_matrix(kernel, r))
    got = _covariance_factor(kernel, r)
    assert got.tobytes() == want.tobytes()


def test_jitter_escalation_recovers_rank_deficiency():
    # flat kernel is rank-1 at base jitter but recoverable within the ceiling
    kernel = KernelConfig(amplitude=1.0, lengthscale=1e6, jitter=0.0)
    f = sample_field(kernel, 4, make_rng(9))
    assert np.all(np.isfinite(f.values))


def test_bump_profile_closed_form():
    assert bump_amount(-1.0, 1.0, 0.0) == pytest.approx(-1.0, abs=1e-9)
    assert bump_amount(-1.0, 1.0, math.sqrt(2.0 * math.log(2.0))) == pytest.approx(
        -0.5, abs=1e-9
    )
    assert bump_amount(0.8, 2.0, 0.0) == pytest.approx(0.8, abs=1e-9)


def test_local_bump_matches_profile_everywhere():
    # oracle: per-cell loop over the radial profile
    base = ValueField(5, np.zeros((5, 5)))
    center = GridCell(2, 1)
    bumped = local_bump(base, center, -1.0, 1.0)
    for i in range(5):
        for j in range(5):
            d = math.hypot(i - 2, j - 1)
            assert bumped.values[i, j] == pytest.approx(bump_amount(-1.0, 1.0, d), abs=1e-12)
    assert bumped.values[2, 1] == pytest.approx(-1.0, abs=1e-9)
    assert bumped.values[2, 2] == pytest.approx(-math.exp(-0.5), abs=1e-9)


def test_local_bump_matches_closed_form_bit_for_bit():
    for r in (2, 5, 16, 33):
        idx = np.arange(r, dtype=float)
        base = ValueField(r, make_rng(r).normal(size=(r, r)))
        for width in (0.5, 1.5, 2.0, 7.3):
            for i in range(r):
                for j in range(r):
                    d2 = (idx[:, None] - i) ** 2 + (idx[None, :] - j) ** 2
                    want = base.values + -0.5 * np.exp(-d2 / (2.0 * width * width))
                    got = local_bump(base, GridCell(i, j), -0.5, width)
                    assert np.array_equal(got.values, want)
    # the window's extreme slices: the four corners and the centre of the
    # largest grid
    r = MAX_RESOLUTION
    idx = np.arange(r, dtype=float)
    base = ValueField(r, make_rng(r).normal(size=(r, r)))
    for width in (0.5, 7.3):
        for i, j in ((0, 0), (0, r - 1), (r - 1, 0), (r - 1, r - 1), (r // 2, r // 2)):
            d2 = (idx[:, None] - i) ** 2 + (idx[None, :] - j) ** 2
            want = base.values + -0.5 * np.exp(-d2 / (2.0 * width * width))
            got = local_bump(base, GridCell(i, j), -0.5, width)
            assert np.array_equal(got.values, want)


def test_local_bump_roundtrip_restores_field():
    rng = make_rng(31)
    base = ValueField(9, rng.normal(size=(9, 9)))
    center = GridCell(4, 7)
    there = local_bump(base, center, 0.7, 1.3)
    back = local_bump(there, center, -0.7, 1.3)
    assert np.max(np.abs(back.values - base.values)) <= 1e-12


def test_local_bump_validation():
    base = ValueField(4, np.zeros((4, 4)))
    with pytest.raises(ConfigError):
        local_bump(base, GridCell(0, 0), float("nan"), 1.0)


def test_contaminate_identity_and_determinism():
    rng = make_rng(8)
    base = ValueField(6, rng.normal(size=(6, 6)))
    same = contaminate(base, 0.0, make_rng(1))
    assert np.array_equal(same.values, base.values)
    a = contaminate(base, 0.3, make_rng(55))
    b = contaminate(base, 0.3, make_rng(55))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, base.values)


def test_contaminate_noise_scale():
    base = ValueField(32, np.zeros((32, 32)))
    noisy = contaminate(base, 0.5, make_rng(404))
    sd = float(np.std(noisy.values - base.values))
    assert abs(sd - 0.5) < 0.05


def test_moore_neighbors_bounds_and_order():
    mid = moore_neighbors(GridCell(2, 2), 5)
    assert len(mid) == 8
    assert mid == tuple(sorted(mid))
    corner = moore_neighbors(GridCell(0, 0), 5)
    assert corner == (GridCell(0, 1), GridCell(1, 0), GridCell(1, 1))
    # one shared, immutable tuple per (cell, resolution)
    assert moore_neighbors(GridCell(0, 0), 5) is corner
    assert moore_neighbors(GridCell(0, 0), 6) == corner


def _climb_oracle(values: np.ndarray, i: int, j: int) -> tuple[int, int]:
    r = values.shape[0]
    best = (i, j)
    best_v = values[i, j]
    cands = []
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == dj == 0:
                continue
            ni, nj = i + di, j + dj
            if 0 <= ni < r and 0 <= nj < r:
                cands.append((ni, nj))
    for ni, nj in sorted(cands):
        if values[ni, nj] > best_v:
            best, best_v = (ni, nj), values[ni, nj]
    return best


def test_steepest_neighbor_matches_enumeration_oracle():
    fields = [ValueField(6, make_rng(seed).normal(size=(6, 6))) for seed in (3, 17, 90)]
    # integer values in {0, 1, 2}: ties between neighbours everywhere
    for r in (2, 3, 6, 11):
        for seed in (1, 2):
            fields.append(ValueField(r, make_rng(seed).integers(0, 3, size=(r, r))))
    for field in fields:
        r = field.resolution
        for i in range(r):
            for j in range(r):
                want = _climb_oracle(field.values, i, j)
                got = steepest_neighbor(field, GridCell(i, j))
                assert (got.i, got.j) == want


def test_steepest_neighbor_tie_break_and_peak():
    vals = np.zeros((4, 4))
    vals[0, 1] = 1.0
    vals[1, 0] = 1.0  # tied with (0, 1); lower (i, j) wins
    field = ValueField(4, vals)
    assert steepest_neighbor(field, GridCell(1, 1)) == GridCell(0, 1)
    peak = ValueField(4, np.zeros((4, 4)))
    assert steepest_neighbor(peak, GridCell(2, 2)) == GridCell(2, 2)


def test_value_field_validation():
    bad = np.zeros((3, 3))
    bad[0, 0] = float("nan")
    with pytest.raises(ConfigError):
        ValueField(3, bad)
