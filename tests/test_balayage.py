"""Restart operator algebra, Q-integrals, brackets, and local times."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigma_lab import (
    ContractError,
    DegenerateShiftError,
    Path,
    SeedSpec,
    assert_adapted,
    constant,
    integral_against,
    ito_residual,
    linear_combination,
    make_grid,
    net_change,
    occupation_kernel,
    product_of,
    q_bracket,
    q_integral,
    q_local_time,
    quadratic_variation,
    rho,
    running_sup,
    sample_bm,
    shift,
    tanaka_residual,
    zero_set_from_level_series,
)
from sigma_lab.balayage import SegmentLayout
from sigma_lab.sigma_classes import _held_at

SEED = 20260822

EXPECTED_L1_AT_0 = 0.7978845608028654  # sqrt(2 / pi)


def _bm(grid, index=0, start=0.0, master=SEED):
    return sample_bm(grid, start, SeedSpec(master, index))


def test_restart_of_constant_is_zero_on_h_one_off_h():
    grid = make_grid(horizon=6.0, step=1.0)
    series = np.array([1.0, 0.5, -0.2, 0.3, 1.0, 2.0, 3.0])
    zs = zero_set_from_level_series(series, grid)
    X = Path(grid=grid, values=np.arange(7.0))
    out = rho(constant(1.0), X, zs).values
    assert list(out) == [1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]


def test_restart_matches_shifted_evaluation_past_last_zero():
    grid = make_grid(horizon=2.0, step=0.01)
    W = _bm(grid, 5)
    # Build a zero set from an independent sign series with a few crossings.
    D = _bm(grid, 6, start=0.4, master=SEED + 9)
    zs = zero_set_from_level_series(D.values, grid)
    if zs.gbar_index in (0, grid.n_steps):
        pytest.skip("need an interior last zero for this seed")
    for phi in (running_sup, quadratic_variation, net_change):
        out = rho(phi, W, zs)
        tail = shift(W, zs)
        direct = phi(tail.values, grid.step)
        assert np.array_equal(out.values[zs.gbar_index + 1 :], direct[1:])
        assert out.values[zs.gbar_index] == 0.0


def test_restart_is_linear_and_multiplicative_bitwise():
    grid = make_grid(horizon=2.0, step=0.02)
    W = _bm(grid, 1)
    D = _bm(grid, 2, start=0.3, master=SEED + 9)
    zs = zero_set_from_level_series(D.values, grid)
    a, b = 2.5, -1.25
    phi, psi = running_sup, quadratic_variation
    combo = rho(linear_combination([a, b], [phi, psi]), W, zs).values
    split = a * rho(phi, W, zs).values + b * rho(psi, W, zs).values
    assert np.array_equal(combo, split)
    prod = rho(product_of([phi, psi]), W, zs).values
    factors = rho(phi, W, zs).values * rho(psi, W, zs).values
    assert np.array_equal(prod, factors)


def test_restart_nonnegative_functional_stays_nonnegative():
    grid = make_grid(horizon=1.0, step=0.01)
    W = _bm(grid, 3)
    D = _bm(grid, 4, start=0.2, master=SEED + 9)
    zs = zero_set_from_level_series(D.values, grid)
    out = rho(quadratic_variation, W, zs).values
    assert np.all(out >= 0.0)


def test_shift_empty_zero_set_is_identity_and_end_zero_degenerates():
    grid = make_grid(horizon=1.0, step=0.25)
    W = _bm(grid, 7)
    empty = zero_set_from_level_series(np.ones(5), grid)
    assert shift(W, empty) is W
    series = np.array([1.0, 1.0, 1.0, 1.0, -1.0])
    zs_end = zero_set_from_level_series(series, grid)
    with pytest.raises(DegenerateShiftError):
        shift(W, zs_end)


def test_q_integral_against_unit_weight_restarts_the_path():
    grid = make_grid(horizon=2.0, step=0.01)
    W = _bm(grid, 8)
    D = _bm(grid, 9, start=0.3, master=SEED + 9)
    zs = zero_set_from_level_series(D.values, grid)
    out = q_integral(np.ones(grid.n_steps), W, zs).values
    expected = W.values - W.values[zs.gamma_index]
    assert np.allclose(out, expected, atol=1e-10)
    assert np.all(out[zs.h_indices] == 0.0)


def test_q_integral_integrand_forms_agree():
    grid = make_grid(horizon=1.0, step=0.01)
    W = _bm(grid, 10)
    D = _bm(grid, 11, start=0.3, master=SEED + 9)
    zs = zero_set_from_level_series(D.values, grid)
    h_callable = q_integral(lambda x: x, W, zs).values
    h_array = q_integral(W.values[:-1].copy(), W, zs).values
    assert np.array_equal(h_callable, h_array)
    with pytest.raises(ContractError):
        q_integral(np.ones(7), W, zs)


def test_q_integral_functional_integrand_restarts_per_segment():
    grid = make_grid(horizon=4.0, step=1.0)
    X = Path(grid=grid, values=np.array([0.0, 1.0, 3.0, 2.0, 5.0]))
    series = np.array([1.0, 1.0, -1.0, -1.0, -1.0])  # single zero at index 2
    zs = zero_set_from_level_series(series, grid)
    out = rho(integral_against(running_sup), X, zs).values
    # Segment [0, 2]: sup-weighted sums; at the zero the value drops to 0;
    # segment [2, 4] restarts the running sup at X_2 = 3.
    assert out[0] == 0.0
    assert out[1] == 0.0 * 1.0 + 0.0  # left sup at index 0 is X_0 = 0
    assert out[2] == 0.0
    assert out[3] == 3.0 * (2.0 - 3.0)
    assert out[4] == 3.0 * (2.0 - 3.0) + 3.0 * (5.0 - 2.0)


def test_q_bracket_of_bm_approximates_elapsed_time():
    grid = make_grid(horizon=1.0, step=1e-4)
    W = _bm(grid, 12)
    empty = zero_set_from_level_series(np.ones(grid.n_steps + 1), grid)
    bracket = q_bracket(W, empty).values
    assert abs(bracket[-1] - 1.0) < 0.05
    assert np.all(np.diff(bracket) >= 0.0)


def test_q_bracket_restarts_and_skips_crossing_increment():
    grid = make_grid(horizon=4.0, step=1.0)
    X = Path(grid=grid, values=np.array([0.0, 2.0, 1.0, 4.0, 6.0]))
    series = np.array([1.0, 1.0, -1.0, -1.0, -1.0])
    zs = zero_set_from_level_series(series, grid)
    out = q_bracket(X, zs).values
    # The crossing interval (1, 2) is never charged to any segment.
    assert list(out) == [0.0, 4.0, 0.0, 9.0, 13.0]


def test_q_local_time_mean_matches_reflection_law():
    grid = make_grid(horizon=1.0, step=1e-3)
    empty = zero_set_from_level_series(np.ones(grid.n_steps + 1), grid)
    n = 300
    vals = np.empty(n)
    for i in range(n):
        W = _bm(grid, i, master=SEED + 3)
        vals[i] = q_local_time(W, 0.0, empty).values[-1]
    se = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - EXPECTED_L1_AT_0) < 3 * se + 0.02


def test_q_local_time_agrees_with_crossing_count_oracle():
    grid = make_grid(horizon=1.0, step=1e-3)
    empty = zero_set_from_level_series(np.ones(grid.n_steps + 1), grid)
    n = 200
    diffs = np.empty(n)
    for i in range(n):
        W = _bm(grid, i, master=SEED + 4)
        kernel = q_local_time(W, 0.0, empty).values[-1]
        crossings = np.count_nonzero(W.values[:-1] * W.values[1:] < 0.0)
        oracle = crossings * np.sqrt(np.pi * grid.step / 2.0)
        diffs[i] = kernel - oracle
    se = diffs.std(ddof=1) / np.sqrt(n)
    assert abs(diffs.mean()) < 3 * se + 0.02, diffs.mean()


def test_tanaka_forms_are_consistent():
    grid = make_grid(horizon=1.0, step=1e-3)
    W = _bm(grid, 13)
    empty = zero_set_from_level_series(np.ones(grid.n_steps + 1), grid)
    level = 0.25
    res_abs = tanaka_residual(W, level, empty, form="abs")
    res_p = tanaka_residual(W, level, empty, form="plus")
    res_m = tanaka_residual(W, level, empty, form="minus")
    mixed = 0.5 * (res_p.identity_local_time.values + res_m.identity_local_time.values)
    assert np.allclose(res_abs.identity_local_time.values, mixed, atol=1e-9)
    assert np.array_equal(res_p.kernel_local_time.values, res_abs.kernel_local_time.values)
    # Identity-based local time is nonnegative and nondecreasing in t
    # up to kernel comparison; the residual itself stays modest.
    assert abs(res_abs.residual.values[-1]) < 6.0 * grid.step**0.25
    with pytest.raises(Exception):
        tanaka_residual(W, level, empty, form="bogus")


def test_ito_residual_quadratic_is_exact_to_rounding():
    grid = make_grid(horizon=1.0, step=1e-3)
    W = _bm(grid, 14)
    D = _bm(grid, 15, start=0.3, master=SEED + 9)
    zs = zero_set_from_level_series(D.values, grid)
    res = ito_residual(lambda x: x**2, lambda x: 2 * x, lambda x: 2 * np.ones_like(x), W, zs)
    assert np.max(np.abs(res.values)) < 1e-9
    res_lin = ito_residual(lambda x: 3 * x, lambda x: 3 * np.ones_like(x), lambda x: np.zeros_like(x), W, zs)
    assert np.max(np.abs(res_lin.values)) < 1e-9


def test_ito_residual_smooth_function_is_small_but_nonzero():
    grid = make_grid(horizon=1.0, step=1e-3)
    W = _bm(grid, 16)
    empty = zero_set_from_level_series(np.ones(grid.n_steps + 1), grid)
    res = ito_residual(np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x), W, empty)
    tail = abs(res.values[-1])
    assert 0.0 < tail < 0.05


def test_adaptedness_probe():
    grid = make_grid(horizon=1.0, step=0.05)
    W = _bm(grid, 17)

    def peek_ahead(values, step):
        return values - values[-1]

    assert_adapted(running_sup, W.values, grid.step)
    with pytest.raises(ContractError):
        assert_adapted(peek_ahead, W.values, grid.step)


def test_local_time_functional_under_restart_matches_q_local_time():
    grid = make_grid(horizon=2.0, step=0.01)
    W = _bm(grid, 18)
    D = _bm(grid, 19, start=0.3, master=SEED + 9)
    zs = zero_set_from_level_series(D.values, grid)
    level = 0.1
    via_rho = rho(partial(occupation_kernel, level=level), W, zs).values
    direct = q_local_time(W, level, zs).values
    # Same counting rule, but rho recounts the level hits per segment
    # while the q-form gathers global prefix sums: equal up to rounding,
    # and the q-form is exactly 0 on H while rho is 0 there by masking.
    assert np.allclose(via_rho, direct, atol=1e-12)
    assert np.all(direct[zs.h_indices] == 0.0)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-3, 3, allow_nan=False), min_size=3, max_size=25),
    st.lists(st.floats(-1, 1, allow_nan=False), min_size=3, max_size=25),
)
def test_restart_properties_hold_for_arbitrary_series(xs, ds):
    m = min(len(xs), len(ds))
    xs, ds = xs[:m], ds[:m]
    grid = make_grid(horizon=float(m - 1), step=1.0)
    X = Path(grid=grid, values=np.asarray(xs))
    zs = zero_set_from_level_series(np.asarray(ds), grid)
    out = rho(quadratic_variation, X, zs).values
    # Zero on H, nonnegative everywhere for a nonnegative functional.
    assert np.all(out[zs.h_indices] == 0.0)
    assert np.all(out >= 0.0)
    bracket = q_bracket(X, zs).values
    assert np.all(bracket[zs.h_indices] == 0.0)


def _builtin_functionals():
    return (
        running_sup,
        integral_against(lambda values, step: values * values),
        integral_against(running_sup),
        quadratic_variation,
        partial(occupation_kernel, level=0.1),
        constant(2.0),
        net_change,
        linear_combination([2.0, -1.0], [running_sup, net_change]),
        product_of([net_change, quadratic_variation]),
        # lifted_reflected's stop, at a level that the probe paths first
        # reach after their start
        partial(_held_at, level=0.03),
    )


def test_adaptedness_probe_rejects_functionals_that_mix_rows():
    grid = make_grid(horizon=1.0, step=0.05)
    W = _bm(grid, 21)

    def one_dimensional(values, step):
        # adapted on one path, but on rows it subtracts the first row
        return values - values[0]

    with pytest.raises(ContractError, match="last axis"):
        assert_adapted(one_dimensional, W.values, grid.step)
    for phi in _builtin_functionals():
        assert_adapted(phi, W.values, grid.step)


def _per_run_restart(phi, values, in_h, step):
    """The restart evaluated run by run: each run from its anchor to the
    point before the next zero, its anchor booked 0 when it is a zero."""
    n = values.shape[0] - 1
    anchors = [0] + [j for j in range(1, n + 1) if in_h[j]]
    out = np.zeros_like(values)
    for i, g in enumerate(anchors):
        e = anchors[i + 1] - 1 if i + 1 < len(anchors) else n
        vals = phi(values[g : e + 1], step)
        if in_h[g]:
            out[g + 1 : e + 1] = vals[1:]
        else:
            out[g : e + 1] = vals
    return out


def _masks(n):
    cases = {
        "empty": [],
        "zero-at-1": [1],
        "single-point-runs": [5, 6, 7, 12],
        "last-zero-at-end": [9, n],
        "anchors-in-h": [3, 30],
        "zero-at-1-and-end": [1, 2, n - 1, n],
    }
    masks = np.zeros((len(cases), n + 1), dtype=bool)
    for row, zeros in enumerate(cases.values()):
        masks[row, zeros] = True
    return masks


def test_segment_layout_matches_the_per_run_loop():
    n, step = 40, 0.025
    masks = _masks(n)
    rng = np.random.default_rng(7)
    values = np.cumsum(rng.standard_normal((masks.shape[0], n + 1)), axis=1)
    layout = SegmentLayout(values, masks)
    grid = make_grid(horizon=n * step, step=step)
    for phi in _builtin_functionals():
        rows = layout.restart(phi, step)
        for r in range(masks.shape[0]):
            expected = _per_run_restart(phi, values[r], masks[r], step)
            assert np.array_equal(rows[r], expected)
            # the one-row case: rho over the same zero set
            zs = zero_set_from_level_series(np.where(np.cumsum(masks[r]) % 2 == 0, 1.0, -1.0), grid)
            assert np.array_equal(zs.in_h, masks[r])
            assert np.array_equal(rho(phi, Path(grid=grid, values=values[r]), zs).values, expected)
