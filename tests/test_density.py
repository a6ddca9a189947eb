"""Density models, zero-set geometry, ensemble reweighting, and the normal CDF."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import ndtr as scipy_ndtr

from sigma_lab import (
    ConfigurationError,
    DegenerateMeasureError,
    ErfSign,
    SeedSpec,
    StoppedBM,
    density_driver_path,
    density_path,
    driver_zero_set,
    ensemble_weights,
    make_grid,
    sample_bm,
    zero_set,
    zero_set_from_level_series,
)
from sigma_lab.density import ZeroSetInfo, density_matrix, driver_matrix, ndtr, terminal_density
from sigma_lab.experiments import _D0_ERF, _P_HIT

SEED = 20260822

# Frozen analytic values.
HIT_PROB_FROM_1_BY_1 = 0.31731050786291415  # 2 * (1 - Phi(1))
ERF_SIGN_START = 0.6826894921370859  # 2 * Phi(1) - 1


def test_forced_sign_change_geometry():
    # Values (1, 0.5, -0.2, 0.3): crossings in the 2nd and 3rd intervals.
    grid = make_grid(horizon=3.0, step=1.0)
    zs = zero_set_from_level_series(np.array([1.0, 0.5, -0.2, 0.3]), grid)
    assert list(zs.h_indices) == [2, 3]
    assert zs.gbar_index == 3
    assert list(zs.gamma_index) == [0, 0, 2, 3]
    # the run anchors: 0 for the initial run, else the zero opening it
    assert list(np.unique(zs.gamma_index)) == [0, 2, 3]


def test_exact_zero_counts_once():
    grid = make_grid(horizon=3.0, step=1.0)
    zs = zero_set_from_level_series(np.array([1.0, 0.0, -1.0, -2.0]), grid)
    # The touch at index 1 is seen by both neighbouring intervals.
    assert list(zs.h_indices) == [1, 2]
    flat = zero_set_from_level_series(np.array([1.0, 0.0, 0.0, 2.0]), grid)
    # A flat stretch of exact zeros is not a sign change by itself.
    assert list(flat.h_indices) == [1, 3]


def test_stopped_bm_freezes_and_hits():
    grid = make_grid(horizon=2.0, step=1.0 / 512.0)
    model = StoppedBM(start=1.0, stop_time=1.0)
    n = 4000
    hit = np.zeros(n, dtype=bool)
    frozen_ok = True
    for i in range(n):
        D = density_path(model, SeedSpec(SEED, i), grid)
        zs = zero_set(D, model)
        hit[i] = zs.h_indices.size > 0
        stop = grid.index_of(1.0)
        frozen_ok &= bool(np.all(D.values[stop:] == D.values[stop]))
    assert frozen_ok
    p = hit.mean()
    se = np.sqrt(p * (1 - p) / n)
    # Discrete monitoring misses crossings: allow the grid bias as well.
    assert abs(p - HIT_PROB_FROM_1_BY_1) < 3 * se + 0.02, p


def test_erf_sign_start_terminal_and_martingale():
    grid = make_grid(horizon=1.0, step=0.005)
    model = ErfSign(offset=1.0, terminal_time=1.0)
    n = 4000
    terminals = np.empty(n)
    for i in range(n):
        D = density_path(model, SeedSpec(SEED, i), grid)
        assert abs(D.values[0] - ERF_SIGN_START) < 1e-12
        assert abs(D.values[-1]) == 1.0
        terminals[i] = D.values[-1]
    mean = terminals.mean()
    se = terminals.std(ddof=1) / np.sqrt(n)
    assert abs(mean - ERF_SIGN_START) < 3 * se


def test_erf_sign_zero_detection_matches_driver():
    grid = make_grid(horizon=1.0, step=0.002)
    model = ErfSign(offset=1.0, terminal_time=1.0)
    for i in range(300):
        seed = SeedSpec(SEED + 1, i)
        driver = density_driver_path(model, seed, grid)
        D = density_path(model, seed, grid)
        via_D = zero_set(D, model)
        via_driver = driver_zero_set(model, driver)
        assert np.array_equal(via_D.h_indices, via_driver.h_indices)
    # StoppedBM's driver runs on past the freeze; detection stops there
    grid = make_grid(horizon=2.0, step=0.002)
    model = StoppedBM(start=1.0, stop_time=1.0)
    for i in range(100):
        seed = SeedSpec(SEED + 1, i)
        D = density_path(model, seed, grid)
        via_driver = driver_zero_set(model, density_driver_path(model, seed, grid))
        assert np.array_equal(zero_set(D, model).gamma_index, via_driver.gamma_index)


def test_horizon_shorter_than_model_time_rejected():
    grid = make_grid(horizon=0.5, step=0.01)
    with pytest.raises(ConfigurationError):
        density_path(StoppedBM(start=1.0, stop_time=1.0), SeedSpec(SEED, 0), grid)
    with pytest.raises(ConfigurationError):
        density_path(ErfSign(offset=1.0, terminal_time=1.0), SeedSpec(SEED, 0), grid)


def test_model_parameter_validation():
    with pytest.raises(ConfigurationError):
        StoppedBM(start=0.0, stop_time=1.0)
    with pytest.raises(ConfigurationError):
        StoppedBM(start=1.0, stop_time=-1.0)
    with pytest.raises(ConfigurationError):
        ErfSign(offset=0.0, terminal_time=1.0)


def test_ensemble_weights_normalization():
    t = np.array([1.0, -2.0, 0.0, 3.0])
    w = ensemble_weights(t)
    assert np.array_equal(w, np.abs(t) / np.mean(np.abs(t)))
    assert abs(w.mean() - 1.0) < 1e-15
    with pytest.raises(DegenerateMeasureError):
        ensemble_weights(np.zeros(5))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=40))
def test_zero_geometry_invariants(raw):
    values = np.asarray(raw)
    grid = make_grid(horizon=float(len(raw) - 1), step=1.0)
    zs = zero_set_from_level_series(values, grid)
    n = grid.n_steps
    # Index 0 never carries a zero; gamma is monotone, bounded by the index.
    assert 0 not in zs.h_indices
    assert np.all(np.diff(zs.gamma_index) >= 0)
    assert np.all(zs.gamma_index <= np.arange(n + 1))
    assert zs.gbar_index == zs.gamma_index[-1]
    # On H the anchor is the point itself; off H it is a zero or 0.
    in_h = np.zeros(n + 1, dtype=bool)
    in_h[zs.h_indices] = True
    assert np.all(zs.gamma_index[in_h] == np.arange(n + 1)[in_h])
    off = ~in_h
    anchors = zs.gamma_index[off]
    assert np.all(in_h[anchors] | (anchors == 0))


@pytest.mark.parametrize("model", [StoppedBM(start=1.0, stop_time=1.0), ErfSign(offset=1.0, terminal_time=1.0)])
@pytest.mark.parametrize("horizon", [1.0, 1.5])
def test_terminal_density_is_the_density_matrix_last_column(model, horizon):
    grid = make_grid(horizon=horizon, step=0.01)
    driver = driver_matrix(model, SEED, 0, 300, grid)
    # row 0 sits on D's zero level from the model time 1.0 on: ErfSign's D is +1 there
    driver[0, 100:] = -model.offset if isinstance(model, ErfSign) else 0.0
    D = density_matrix(model, driver, grid)
    got = terminal_density(model, driver, grid)
    assert got.tobytes() == D[:, -1].tobytes()
    assert got.tobytes() == D[:, grid.index_of(1.0)].tobytes()
    if isinstance(model, ErfSign):
        assert got[0] == 1.0 and set(got) == {-1.0, 1.0}


@settings(max_examples=60, deadline=None)
@given(arrays(bool, st.tuples(st.integers(1, 5), st.integers(2, 12)), elements=st.booleans()))
@example(np.zeros((3, 6), dtype=bool))  # every zero set empty
@example(np.eye(4, 6, 2, dtype=bool))  # one row's only zero at the last index
def test_last_zero_read_off_the_mask_is_the_last_anchor(in_h):
    grid = make_grid(horizon=float(in_h.shape[1] - 1), step=1.0)
    rows = ZeroSetInfo(grid=grid, in_h=in_h)
    want = rows.gamma_index
    assert rows.gbar_index.dtype == want.dtype
    assert rows.gbar_index.tobytes() == want[:, -1].tobytes()
    for i in range(in_h.shape[0]):
        one = ZeroSetInfo(grid=grid, in_h=in_h[i]).gbar_index
        assert type(one) is int and one == want[i, -1]


def _ulp_neighbourhood(centre: float, k: int) -> np.ndarray:
    """The 2k + 1 doubles within k ulp of ``centre`` (> 0), and their negatives."""
    bits = np.float64(centre).view(np.int64) + np.arange(-k, k + 1)
    around = bits.view(np.float64)
    return np.concatenate([around, -around])


@pytest.mark.parametrize(
    "where",
    [
        np.linspace(-40.0, 40.0, 800_001),
        # the T/U and P/Q branches meet at |a| = sqrt(2), P/Q and R/S at 8 sqrt(2)
        _ulp_neighbourhood(np.sqrt(2.0), 20_000),
        _ulp_neighbourhood(8.0 * np.sqrt(2.0), 20_000),
        # exp(-a^2/2) underflows near a = -37.68, where Phi is set to 0
        np.linspace(-38.5, -37.5, 200_001),
        -_ulp_neighbourhood(np.sqrt(2.0 * 7.09782712893383996843e2), 20_000),
    ],
    ids=["sweep", "sqrt2", "8sqrt2", "underflow", "underflow-ulp"],
)
def test_ndtr_matches_the_scipy_reference(where):
    # the port and scipy run the same Cephes code; only numpy's exp
    # rounds differently from libm's
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        got = ndtr(where)
    ref = scipy_ndtr(where)
    gap = np.abs(got - ref)
    assert gap.max() <= 2.3e-16
    assert np.all(gap <= 4 * np.spacing(ref))


def test_ndtr_special_values():
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        got = ndtr(np.array([0.0, -0.0, -np.inf, np.inf, np.nan]))
        scalar = ndtr(1.0)
    assert list(got[:4]) == [0.5, 0.5, 0.0, 1.0]
    assert np.isnan(got[4])
    assert scalar == scipy_ndtr(1.0)
    assert ndtr(np.empty((3, 0))).shape == (3, 0)
    # a strided input keeps its shape and order across blocks
    grid = np.linspace(-5.0, 5.0, 3 * 40_001).reshape(3, -1)
    assert np.array_equal(ndtr(grid.T), ndtr(grid).T)


def test_erf_constants_are_scipys_bit_for_bit():
    assert _D0_ERF == float(2.0 * scipy_ndtr(1.0) - 1.0) == ERF_SIGN_START
    assert _P_HIT == float(2.0 * (1.0 - scipy_ndtr(1.0))) == HIT_PROB_FROM_1_BY_1
