"""Field sampling, bumps, noise, and navigation primitives."""

from __future__ import annotations

import math
import pickle
import warnings

import numpy as np
import pytest

from conscient_sim.errors import ConfigError, CovarianceDegeneracyError
from conscient_sim.fields import (
    MAX_RESOLUTION,
    GridCell,
    KernelConfig,
    ValueField,
    _bump_window,
    _covariance_factor,
    contaminate,
    kernel_matrix,
    local_bump,
    moore_neighbors,
    sample_field,
    steepest_neighbor,
)
from conscient_sim.seeds import make_rng
from oracle import bump_amount


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
    base = ValueField(np.zeros((5, 5)))
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
        base = ValueField(make_rng(r).normal(size=(r, r)))
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
    base = ValueField(make_rng(r).normal(size=(r, r)))
    for width in (0.5, 7.3):
        for i, j in ((0, 0), (0, r - 1), (r - 1, 0), (r - 1, r - 1), (r // 2, r // 2)):
            d2 = (idx[:, None] - i) ** 2 + (idx[None, :] - j) ** 2
            want = base.values + -0.5 * np.exp(-d2 / (2.0 * width * width))
            got = local_bump(base, GridCell(i, j), -0.5, width)
            assert np.array_equal(got.values, want)


def test_local_bump_roundtrip_restores_field():
    rng = make_rng(31)
    base = ValueField(rng.normal(size=(9, 9)))
    center = GridCell(4, 7)
    there = local_bump(base, center, 0.7, 1.3)
    back = local_bump(there, center, -0.7, 1.3)
    assert np.max(np.abs(back.values - base.values)) <= 1e-12


def test_local_bump_validation():
    base = ValueField(np.zeros((4, 4)))
    with pytest.raises(ConfigError):
        local_bump(base, GridCell(0, 0), float("nan"), 1.0)


def _bump_oracle(base: ValueField, center: GridCell, peak: float, width: float) -> np.ndarray:
    idx = np.arange(len(base.values), dtype=float)
    d2 = (idx[:, None] - center.i) ** 2 + (idx[None, :] - center.j) ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        return base.values + peak * np.exp(-d2 / (2.0 * width * width))


@pytest.mark.parametrize("peaks", [(0.0, -0.0), (-0.0, 0.0)])
def test_local_bump_keeps_signed_zero_peaks_apart(peaks):
    # x + 0.0 is 0.0 but x + -0.0 is -0.0 where x is -0.0: a window cached
    # for one zero must not serve the other
    values = np.full((4, 4), -0.0)
    values[1, 2] = 0.25
    base = ValueField(values)
    center = GridCell(1, 1)
    _bump_window.cache_clear()
    for peak in peaks:
        got = local_bump(base, center, peak, 1.5)
        assert got.values.tobytes() == _bump_oracle(base, center, peak, 1.5).tobytes()


def test_local_bump_near_the_largest_double():
    top = np.finfo(float).max
    values = np.zeros((5, 5))
    values[0, 0] = 0.75 * top
    base = ValueField(values)
    assert base.limit == 0.75 * top
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the bound 0.75 top + 0.5 top overflows, but at (0, 0) the bump is
        # 0.5 top * exp(-64) and no value does
        far = local_bump(base, GridCell(4, 4), 0.5 * top, 0.5)
        assert far.values.tobytes() == _bump_oracle(base, GridCell(4, 4), 0.5 * top, 0.5).tobytes()
        assert math.isfinite(far.limit) and far.limit >= np.abs(far.values).max()
        message = "field values must be finite"
        with pytest.raises(ConfigError, match=message):
            local_bump(base, GridCell(0, 0), 0.5 * top, 0.5)
        for peak in (math.inf, -math.inf):
            with pytest.raises(ConfigError, match=message):
                local_bump(base, GridCell(2, 2), peak, 1.0)
            with pytest.raises(ConfigError, match=message):
                local_bump(ValueField(np.zeros((5, 5))), GridCell(2, 2), peak, 1.0)


def test_field_limit_bounds_values_through_random_bumps_and_noise():
    rng = make_rng(2718)
    fields = [ValueField(rng.normal(size=(r, r))) for r in (2, 5, 9)]
    for _ in range(2000):
        k = int(rng.integers(len(fields)))
        field = fields[k]
        r = len(field.values)
        if rng.random() < 0.2:
            field = contaminate(field, float(rng.uniform(0.0, 2.0)), rng)
        else:
            # peaks from 1e-6 to 1e300 and both zeros; widths 0.3 to 5
            scale = float(rng.choice([0.0, -0.0, 10.0 ** rng.uniform(-6, 300)]))
            peak = scale * (1.0 if rng.random() < 0.5 else -1.0)
            cell = GridCell(int(rng.integers(r)), int(rng.integers(r)))
            field = local_bump(field, cell, peak, float(rng.uniform(0.3, 5.0)))
        assert math.isfinite(field.limit)
        assert field.limit >= np.abs(field.values).max()
        fields[k] = field


def test_contaminate_identity_and_determinism():
    rng = make_rng(8)
    base = ValueField(rng.normal(size=(6, 6)))
    same = contaminate(base, 0.0, make_rng(1))
    assert np.array_equal(same.values, base.values)
    a = contaminate(base, 0.3, make_rng(55))
    b = contaminate(base, 0.3, make_rng(55))
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, base.values)


def test_contaminate_noise_scale():
    base = ValueField(np.zeros((32, 32)))
    noisy = contaminate(base, 0.5, make_rng(404))
    sd = float(np.std(noisy.values - base.values))
    assert abs(sd - 0.5) < 0.05


def test_grid_cell_is_an_immutable_ordered_picklable_value():
    cell = GridCell(2, 3)
    with pytest.raises(AttributeError):
        cell.i = 0
    assert (cell.i, cell.j) == (2, 3)
    assert repr(cell) == "GridCell(i=2, j=3)"
    cells = [GridCell(i, j) for i in (3, 0, 2) for j in (1, 4, 0)]
    assert sorted(cells) == [GridCell(i, j) for i in (0, 2, 3) for j in (0, 1, 4)]
    # values cross the GA's process pool by pickle
    back = pickle.loads(pickle.dumps(cell))
    assert back == cell and type(back) is GridCell and hash(back) == hash(cell)
    assert {GridCell(2, 3): "x"}[back] == "x"


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
    fields = [ValueField(make_rng(seed).normal(size=(6, 6))) for seed in (3, 17, 90)]
    # integer values in {0, 1, 2}: ties between neighbours everywhere
    for r in (2, 3, 6, 11):
        for seed in (1, 2):
            fields.append(ValueField(make_rng(seed).integers(0, 3, size=(r, r))))
    for field in fields:
        r = len(field.values)
        for i in range(r):
            for j in range(r):
                want = _climb_oracle(field.values, i, j)
                got = steepest_neighbor(field, GridCell(i, j))
                assert (got.i, got.j) == want


def test_steepest_neighbor_tie_break_and_peak():
    vals = np.zeros((4, 4))
    vals[0, 1] = 1.0
    vals[1, 0] = 1.0  # tied with (0, 1); lower (i, j) wins
    field = ValueField(vals)
    assert steepest_neighbor(field, GridCell(1, 1)) == GridCell(0, 1)
    peak = ValueField(np.zeros((4, 4)))
    assert steepest_neighbor(peak, GridCell(2, 2)) == GridCell(2, 2)


def test_value_field_validation():
    bad = np.zeros((3, 3))
    bad[0, 0] = float("nan")
    with pytest.raises(ConfigError):
        ValueField(bad)
    bad[0, 0] = -math.inf
    with pytest.raises(ConfigError):
        ValueField(bad)
    field = ValueField([[1, -4, 2], [0, 3, 0], [0, 0, 0]])
    assert field.values.dtype == float and field.limit == 4.0
