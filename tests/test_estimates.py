"""Weighted statistics, KS machinery, and the boundary table."""

import numpy as np
import pytest

from sigma_lab import (
    ContractError,
    TableBoundary,
    count_check,
    effective_sample_size,
    exact_check,
    exponential_cdf,
    flatness_test,
    ks_test,
    mean_check,
    ratio_check,
    weighted_mean,
)

RNG = np.random.default_rng(99)


def test_weighted_mean_against_direct_computation():
    v = np.array([1.0, 2.0, 3.0, 4.0])
    w = np.array([2.0, 1.0, 1.0, 0.0])
    est = weighted_mean(v, w)
    prod = v * w
    assert est.value == prod.mean()
    assert est.stderr == prod.std(ddof=1) / 2.0
    assert est.ci_lo < est.value < est.ci_hi
    plain = weighted_mean(v)
    assert plain.value == 2.5


def test_effective_sample_size():
    assert effective_sample_size(np.ones(50)) == pytest.approx(50.0)
    lopsided = np.array([1.0, 0.0, 0.0, 0.0])
    assert effective_sample_size(lopsided) == pytest.approx(1.0)
    with pytest.raises(ContractError):
        effective_sample_size(np.zeros(3))


def test_flatness_passes_for_flat_and_fails_for_drift():
    n = 5000
    base = RNG.standard_normal(n)
    flat = np.stack([base + 0.001 * RNG.standard_normal(n) for _ in range(4)])
    report = flatness_test(flat, None, times=[1.0, 2.0, 3.0, 4.0])
    assert report.passed, report.max_z
    drifted = flat.copy()
    drifted[3] = drifted[3] + 0.2
    bad = flatness_test(drifted, None, times=[1.0, 2.0, 3.0, 4.0])
    assert not bad.passed
    assert bad.max_z > 4.0


def test_ks_uniform_sample():
    x = RNG.uniform(size=2000)
    report = ks_test(x, None, lambda t: np.clip(t, 0.0, 1.0))
    assert report.passed
    shifted = ks_test(x + 0.08, None, lambda t: np.clip(t, 0.0, 1.0))
    assert not shifted.passed
    with pytest.raises(ContractError):
        ks_test(x, -np.ones_like(x), lambda t: t)


def test_ks_effective_size_shrinks_with_weights():
    x = RNG.uniform(size=1000)
    w = np.ones_like(x)
    w[:10] = 50.0
    report = ks_test(x, w, lambda t: np.clip(t, 0.0, 1.0))
    assert report.n_effective < 1000.0
    assert report.critical > 1.63 / np.sqrt(1000.0)


def test_mean_check_budget():
    v = np.full(100, 0.5) + 0.001 * RNG.standard_normal(100)
    good = mean_check("m", 0.5, v)
    assert good.passed and good.kind == "mean"
    bad = mean_check("m", 0.6, v)
    assert not bad.passed
    saved = mean_check("m", 0.6, v, grid_allowance=0.15, truncation_allowance=0.05)
    assert saved.passed
    assert saved.tolerance == pytest.approx(saved.stat_tolerance + 0.2)
    assert saved.grid_allowance == 0.15 and saved.truncation_allowance == 0.05


def test_exact_and_count_checks():
    assert exact_check("zero", 0.0).passed
    assert not exact_check("zero", 1e-9).passed
    assert exact_check("tol", 1e-9, tolerance=1e-6).passed
    assert count_check("v", 0).passed
    assert not count_check("v", 3).passed


def test_ratio_check_with_floor():
    r = ratio_check("conv", 0.4, 0.2, min_ratio=1.3)
    assert r.passed and r.estimate == pytest.approx(2.0)
    assert not ratio_check("conv", 0.22, 0.2, min_ratio=1.3).passed
    floor = ratio_check("conv", 1e-14, 5e-14, min_ratio=1.3)
    assert floor.passed and "rounding" in floor.detail


def test_constant_boundary():
    b = TableBoundary(((0.0, 2.0),))
    assert np.allclose(b.phi_of(np.array([0.0, 5.0])), [2.0, 2.0])
    assert b.integral_to(3.0) == 1.5
    assert np.isinf(b.integral_total())
    assert b.crossing_probability(2.0) == pytest.approx(1.0 - np.exp(-1.0))
    assert b.full_crossing_probability() == 1.0


def test_table_boundary():
    b = TableBoundary(segments=((0.0, 1.0), (1.0, np.inf)))
    assert np.allclose(b.phi_of(np.array([0.0, 0.5, 2.0])), [1.0, 1.0, np.inf])
    # a start belongs to its own segment; below 0 the first value holds
    assert b.phi_of(np.array([-1.0, 1.0])).tolist() == [1.0, np.inf]
    assert b.integral_to(0.5) == 0.5
    assert b.integral_to(3.0) == 1.0
    assert b.integral_total() == 1.0
    assert b.full_crossing_probability() == pytest.approx(1.0 - np.exp(-1.0))
    with pytest.raises(Exception):
        TableBoundary(segments=((0.5, 1.0),))


def test_growth_law():
    xs = np.array([-1.0, 0.0, 1.0, 2.0])
    cdf = exponential_cdf(xs)
    assert cdf[0] == 0.0 and cdf[1] == 0.0
    assert np.allclose(1.0 - cdf[1:], np.exp(-xs[1:]))
