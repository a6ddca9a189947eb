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
    flatness_check,
    ks_check,
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
    check = flatness_check("flat", flat, None, [1.0, 2.0, 3.0, 4.0], "unit-weighted")
    assert check.passed and check.kind == "flatness", check.z
    assert check.estimate == check.z < check.stat_tolerance == 4.0
    drifted = flat.copy()
    drifted[3] = drifted[3] + 0.2
    bad = flatness_check("drifted", drifted, None, [1.0, 2.0, 3.0, 4.0], "unit-weighted")
    assert not bad.passed
    assert bad.z > 4.0


def test_ks_uniform_sample():
    x = RNG.uniform(size=2000)
    check = ks_check("uniform", x, None, lambda t: np.clip(t, 0.0, 1.0))
    assert check.passed and check.kind == "ks"
    shifted = ks_check("shifted", x + 0.08, None, lambda t: np.clip(t, 0.0, 1.0))
    assert not shifted.passed
    with pytest.raises(ContractError):
        ks_check("negative", x, -np.ones_like(x), lambda t: t)


def _completed_ks_brute(c, r, w):
    """sup |mean completed cdf - (1 - e^{-g})| over a dense grid and every
    sample, at each point and in the limit from its left."""
    g = np.concatenate([np.linspace(0.0, c.max() + 5.0, 20001), c])[:, None]
    tail = 1.0 - r * np.exp(-np.maximum(g - c, 0.0))
    target = exponential_cdf(g[:, 0])
    return float(max(np.max(np.abs((opened * tail) @ w / w.sum() - target)) for opened in (g >= c, g > c)))


def test_ks_with_tails_is_the_exact_sup():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = int(rng.integers(20, 60))
        c = rng.exponential(size=n)
        c[: n // 5] = rng.uniform(0.0, 0.5, size=n // 5).round(1)  # ties
        r = np.where(rng.uniform(size=n) < 0.5, 0.0, rng.uniform(size=n))
        w = rng.uniform(0.5, 2.0, size=n)
        check = ks_check("tails", c, w, exponential_cdf, tails=r)
        assert abs(check.estimate - _completed_ks_brute(c, r, w)) <= 1e-12


def test_ks_without_tails_is_unchanged():
    # zero tails are the plain empirical cdf, bit for bit
    x = RNG.exponential(size=500)
    w = RNG.uniform(size=500)
    for weights in (None, w):
        plain = ks_check("plain", x, weights, exponential_cdf)
        zero = ks_check("zero", x, weights, exponential_cdf, tails=np.zeros_like(x))
        assert plain.estimate == zero.estimate and plain.stat_tolerance == zero.stat_tolerance


def test_ks_effective_size_shrinks_with_weights():
    x = RNG.uniform(size=1000)
    w = np.ones_like(x)
    w[:10] = 50.0
    check = ks_check("weighted", x, w, lambda t: np.clip(t, 0.0, 1.0), grid_allowance=0.01)
    n_eff = effective_sample_size(w)
    assert n_eff < 1000.0 and f"(n_eff {n_eff:.0f})" in check.detail
    assert check.stat_tolerance == pytest.approx(1.63 / np.sqrt(n_eff))
    assert check.stat_tolerance > 1.63 / np.sqrt(1000.0)
    assert check.grid_allowance == 0.01
    assert check.tolerance == pytest.approx(check.stat_tolerance + 0.01)


def test_mean_check_budget():
    v = np.full(100, 0.5) + 0.001 * RNG.standard_normal(100)
    good = mean_check("m", 0.5, v)
    assert good.passed and good.kind == "mean"
    bad = mean_check("m", 0.6, v)
    assert not bad.passed
    saved = mean_check("m", 0.6, v, grid_allowance=0.2)
    assert saved.passed
    assert saved.tolerance == pytest.approx(saved.stat_tolerance + 0.2)
    assert saved.grid_allowance == 0.2 and saved.tolerance == saved.stat_tolerance + saved.grid_allowance


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


def test_constant_boundary():
    b = TableBoundary(((0.0, 2.0),))
    assert np.allclose(b.phi_of(np.array([0.0, 5.0])), [2.0, 2.0])
    assert b.integral_to(3.0) == 1.5
    assert np.isinf(b.integral_to(np.inf))
    assert b.crossing_probability(2.0) == pytest.approx(1.0 - np.exp(-1.0))
    assert b.crossing_probability(np.inf) == 1.0


def test_table_boundary():
    b = TableBoundary(segments=((0.0, 1.0), (1.0, np.inf)))
    assert np.allclose(b.phi_of(np.array([0.0, 0.5, 2.0])), [1.0, 1.0, np.inf])
    # a start belongs to its own segment; below 0 the first value holds
    assert b.phi_of(np.array([-1.0, 1.0])).tolist() == [1.0, np.inf]
    assert b.integral_to(0.5) == 0.5
    assert b.integral_to(3.0) == 1.0
    assert b.integral_to(np.inf) == 1.0
    assert b.crossing_probability(np.inf) == pytest.approx(1.0 - np.exp(-1.0))
    with pytest.raises(Exception):
        TableBoundary(segments=((0.5, 1.0),))


# today's targets of passage-eq2/3/4 and levy-eq6, in the scalar form
# 1 - exp(-I(u)) they were stated in
_BOUNDARIES = (
    TableBoundary(((0.0, 1.0), (0.5, 2.0))),
    TableBoundary(((0.0, 1.0), (1.0, np.inf))),
    TableBoundary(((0.0, 1.0),)),
    TableBoundary(((0.0, np.inf), (0.05, 1.0))),
)


def _scalar_integral(b, u):
    total = 0.0
    for i, (a, v) in enumerate(b.segments):
        end = b.segments[i + 1][0] if i + 1 < len(b.segments) else np.inf
        span = min(u, end) - a
        if span <= 0.0:
            break
        if np.isfinite(v):
            total += span / v
    return total


@pytest.mark.parametrize("b", _BOUNDARIES)
def test_crossing_from_the_origin_is_the_stated_target(b):
    for u in (0.0, 0.02, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0, 3.0, np.inf):
        stated = 1.0 - float(np.exp(-_scalar_integral(b, u)))
        assert b.crossing_probability(u) == stated
        assert type(b.crossing_probability(u)) is float
        assert b.crossing_probability(u, np.zeros(3), np.zeros(3)).tolist() == [stated] * 3


def test_crossing_from_a_state():
    unit = TableBoundary(((0.0, 1.0),))
    x, a = np.array([0.0, 0.25, 0.25, 0.25, 1.0]), np.array([0.0, 0.0, 0.5, 1.5, 0.5])
    # reach 1 before 0 with chance x, else restart from (0, a); nothing once A is past u
    expected = [1.0 - np.exp(-1.0), 0.25 + 0.75 * (1.0 - np.exp(-1.0)), 0.25 + 0.75 * (1.0 - np.exp(-0.5)), 0.0, 1.0]
    assert np.allclose(unit.crossing_probability(1.0, x, a), expected, rtol=0.0, atol=1e-15)
    assert unit.crossing_probability(np.inf, 0.25, 3.0) == 1.0
    # an infinite boundary cannot be reached: only the growth past its end counts
    windowed = TableBoundary(((0.0, np.inf), (0.05, 1.0)))
    assert windowed.crossing_probability(1.0, 0.5, 0.0) == pytest.approx(1.0 - np.exp(-0.95), abs=1e-15)
    assert windowed.crossing_probability(1.0, 0.5, 0.5) == pytest.approx(0.5 + 0.5 * (1.0 - np.exp(-0.5)), abs=1e-15)
    capped = TableBoundary(((0.0, 1.0), (1.0, np.inf)))
    assert capped.crossing_probability(np.inf, 0.5, 1.0) == 0.0
    assert capped.crossing_probability(np.inf, 0.5, 0.5) == pytest.approx(0.5 + 0.5 * (1.0 - np.exp(-0.5)), abs=1e-15)
    assert np.allclose(capped.integral_to(np.array([0.5, 3.0])), [0.5, 1.0])


def test_growth_law():
    xs = np.array([-1.0, 0.0, 1.0, 2.0])
    cdf = exponential_cdf(xs)
    assert cdf[0] == 0.0 and cdf[1] == 0.0
    assert np.allclose(1.0 - cdf[1:], np.exp(-xs[1:]))
