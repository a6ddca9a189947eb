"""Decomposition constructors, stability operations, membership checks."""

import numpy as np
import pytest

from sigma_lab import (
    CLASSICAL,
    ConfigurationError,
    ContractError,
    Path,
    SIGMA_H,
    SIGMA_SH,
    SeedSpec,
    abs_martingale,
    assemble,
    drawdown,
    lifted_reflected,
    make_grid,
    pm_combination,
    product,
    retag,
    sample_bm,
    scaled_by_f,
    sigma_s_characterization_process,
    verify_membership,
    zero_set_from_level_series,
)

SEED = 20260822


def _bm(grid, index=0, start=0.0, master=SEED):
    return sample_bm(grid, start, SeedSpec(master, index))


def _signed_zero_set(grid, index=0, master=SEED + 9, start=0.3, require_interior=True):
    # Scan forward from the index until the driver actually crosses zero
    # (a start of 0.3 escapes on a sizeable fraction of paths).
    for j in range(index, index + 50):
        zs = zero_set_from_level_series(_bm(grid, j, start=start, master=master).values, grid)
        if zs.h_indices.size and (not require_interior or zs.gbar_index < grid.n_steps):
            return zs
    raise AssertionError("no crossing found in 50 paths; check the setup")


def _empty(grid):
    return zero_set_from_level_series(np.ones(grid.n_steps + 1), grid)


def _report_or_fail(report):
    assert report.passed, [c.detail for c in report.failing()]


def test_drawdown_is_exact_and_supported_on_zeros():
    grid = make_grid(horizon=2.0, step=1e-3)
    d = drawdown(_bm(grid, 0))
    assert d.gap_scale == 0.0 and d.class_tag == SIGMA_H
    assert d.support_scale == 0.0
    gap = np.max(np.abs((d.x.values - d.a.values) - d.n.values))
    assert gap == 0.0
    # Wherever A grows, the right endpoint of X is exactly zero.
    da = np.diff(d.a.values)
    assert np.all(d.x.values[1:][da > 0.0] == 0.0)
    report = verify_membership(d)
    _report_or_fail(report)
    assert report.support is not None and report.support.violation_mass == 0.0
    # Under a trivial ambient zero set the same triple is a classical member.
    _report_or_fail(verify_membership(retag(d, CLASSICAL)))


def test_abs_martingale_verifies_within_kernel_tolerance():
    grid = make_grid(horizon=1.0, step=1e-3)
    for i in range(10):
        d = abs_martingale(_bm(grid, i))
        assert d.gap_scale > 0.0
        assert d.class_tag == SIGMA_H
        _report_or_fail(verify_membership(d))
    with pytest.raises(ContractError):
        abs_martingale(_bm(grid, 0, start=0.5))


def test_abs_martingale_over_a_real_zero_set_keeps_honest_flags():
    grid = make_grid(horizon=1.0, step=1e-3)
    zs = _signed_zero_set(grid, 2, require_interior=False)
    d = abs_martingale(_bm(grid, 2), zs)
    # The driver is independent of the ambient zeros, so X does not
    # vanish on H and the shifted classical check must not run.
    assert np.any(d.x.values[zs.h_indices] != 0.0)
    report = verify_membership(d)
    _report_or_fail(report)
    assert "shifted_classical" not in [c.name for c in report.checks]


def test_pm_combination_bitwise_matches_abs_at_unit_weights():
    grid = make_grid(horizon=1.0, step=1e-3)
    M = _bm(grid, 1)
    via_abs = abs_martingale(M)
    via_pm = pm_combination(M, 1.0, 1.0)
    assert np.array_equal(via_abs.x.values, via_pm.x.values)
    assert np.array_equal(via_abs.n.values, via_pm.n.values)
    assert np.array_equal(via_abs.a.values, via_pm.a.values)


def test_pm_combination_general_weights_verify_at_defaults():
    grid = make_grid(horizon=1.0, step=1e-3)
    d = pm_combination(_bm(grid, 2), 2.0, 0.5)
    # The declared support scale covers the weighted kernel band, so
    # the default-tolerance check passes as is.
    assert d.support_scale == pytest.approx(2.0 * np.sqrt(grid.step))
    _report_or_fail(verify_membership(d))
    with pytest.raises(ConfigurationError):
        pm_combination(_bm(grid, 2), -1.0, 1.0)
    with pytest.raises(ConfigurationError):
        pm_combination(_bm(grid, 2), 2.0, 0.0)


def test_lifted_reflected_structure_over_signed_zero_set():
    grid = make_grid(horizon=2.0, step=1e-3)
    zs = _signed_zero_set(grid, 3)
    assert zs.h_indices.size > 0, "seed choice must produce zeros"
    d = lifted_reflected(_bm(grid, 3), zs)
    assert d.class_tag == SIGMA_SH and d.gap_scale == 0.0
    # X, N, A all vanish exactly on the zero set.
    for part in (d.x, d.n, d.a):
        assert np.all(part.values[zs.h_indices] == 0.0)
    report = verify_membership(d)
    _report_or_fail(report)
    assert "shifted_classical" in [c.name for c in report.checks]


def test_lifted_reflected_stop_freezes_each_run_and_stays_null_on_h():
    grid = make_grid(horizon=4.0, step=1e-3)
    level = 0.5
    found_frozen_before_last_zero = False
    for i in range(30):
        zs = _signed_zero_set(grid, i, start=0.2)
        d = lifted_reflected(_bm(grid, i), zs, stop_level=level)
        # Null on H survives stopping because each run freezes on its own.
        for part in (d.x, d.n, d.a):
            assert np.all(part.values[zs.h_indices] == 0.0)
        x = d.x.values
        a = d.a.values
        # Within the run past the last zero: frozen from the first reach on.
        g = zs.gbar_index
        tail = x[g:]
        reached = np.nonzero(tail >= level)[0]
        if reached.size:
            h0 = reached[0]
            assert np.all(tail[h0:] == tail[h0])
            assert np.all(a[g:][h0:] == a[g:][h0])
        # An earlier run that froze proves the per-run semantics.
        if reached.size and np.any(zs.h_indices > 0):
            pre = x[: g + 1]
            if np.any(pre >= level):
                found_frozen_before_last_zero = True
        _report_or_fail(verify_membership(d))
    assert found_frozen_before_last_zero


def test_product_exact_identity_and_support():
    grid = make_grid(horizon=1.0, step=1e-3)
    d1 = drawdown(_bm(grid, 4))
    d2 = drawdown(_bm(grid, 5))
    p = product([d1, d2])
    assert p.gap_scale == 0.0
    gap = np.max(np.abs((p.x.values - p.a.values) - p.n.values))
    assert gap == 0.0
    assert p.support_scale == 0.0
    report = verify_membership(p)
    _report_or_fail(report)
    assert report.support is not None and report.support.violation_mass == 0.0
    assert not p.warnings


def test_product_single_factor_returns_input_and_folds_three():
    grid = make_grid(horizon=1.0, step=1e-3)
    d1 = drawdown(_bm(grid, 4))
    assert product([d1]) is d1
    d2 = drawdown(_bm(grid, 5))
    d3 = drawdown(_bm(grid, 6, master=SEED + 4))
    p = product([d1, d2, d3])
    assert np.array_equal(p.x.values, d1.x.values * d2.x.values * d3.x.values)
    _report_or_fail(verify_membership(p))


def test_product_with_itself_warns_about_cross_bracket():
    grid = make_grid(horizon=1.0, step=1e-3)
    d = drawdown(_bm(grid, 6))
    p = product([d, d])
    assert any("cross bracket" in w for w in p.warnings)


def test_product_rejects_non_members_and_mixed_tags():
    grid = make_grid(horizon=1.0, step=0.01)
    ones = Path(grid=grid, values=np.ones(grid.n_steps + 1))
    zero = Path(grid=grid, values=np.zeros(grid.n_steps + 1))
    fake = assemble(ones, zero)
    good = drawdown(_bm(grid, 7))
    with pytest.raises(ContractError):
        product([fake, good])
    zs = _signed_zero_set(grid, 8)
    lifted = lifted_reflected(_bm(grid, 8), zs)
    with pytest.raises(ContractError):
        product([good, lifted])
    with pytest.raises(ConfigurationError):
        product([])


def test_product_restarted_members_share_zero_set():
    grid = make_grid(horizon=2.0, step=1e-3)
    zs = _signed_zero_set(grid, 9)
    d1 = lifted_reflected(_bm(grid, 9), zs)
    d2 = lifted_reflected(_bm(grid, 9, master=SEED + 1), zs)
    p = product([d1, d2])
    assert p.class_tag == SIGMA_SH
    for part in (p.x, p.n, p.a):
        assert np.all(part.values[zs.h_indices] == 0.0)
    _report_or_fail(verify_membership(p))
    other = _signed_zero_set(grid, 10, master=SEED + 2)
    d3 = lifted_reflected(_bm(grid, 10), other)
    if not np.array_equal(other.h_indices, zs.h_indices):
        with pytest.raises(ContractError):
            product([d1, d3])


def test_scaled_by_f_classical_branch():
    grid = make_grid(horizon=1.0, step=1e-3)
    d = drawdown(_bm(grid, 11))
    s = scaled_by_f(d, lambda a: 2.0 * a, primitive=lambda a: a**2)
    assert s.gap_scale == 0.0
    assert np.array_equal(s.a.values, d.a.values ** 2)
    assert np.array_equal(s.x.values, 2.0 * d.a.values * d.x.values)
    _report_or_fail(verify_membership(s))
    with pytest.raises(TypeError):
        scaled_by_f(d, lambda a: 2.0 * a)  # no primitive
    with pytest.raises(ContractError):
        scaled_by_f(d, lambda a: a - 10.0, primitive=lambda a: a**2 / 2 - 10 * a)
    with pytest.raises(ContractError):
        scaled_by_f(d, lambda a: 2.0 * a, primitive=lambda a: a**2 + 1.0)


def test_scaled_by_f_restarted_branch():
    grid = make_grid(horizon=2.0, step=1e-3)
    zs = _signed_zero_set(grid, 12)
    d = lifted_reflected(_bm(grid, 12), zs)
    s = scaled_by_f(d, lambda a: a, primitive=lambda a: a**2 / 2.0)
    assert s.class_tag == SIGMA_SH
    assert np.array_equal(s.a.values, d.a.values ** 2 / 2.0)
    for part in (s.x, s.n, s.a):
        assert np.all(part.values[zs.h_indices] == 0.0)
    _report_or_fail(verify_membership(s))
    with pytest.raises(ContractError):
        scaled_by_f(d, lambda a: a + 1.0, primitive=lambda a: a**2 / 2.0 + a)


def test_retag_between_classes():
    grid = make_grid(horizon=1.0, step=1e-3)
    d = drawdown(_bm(grid, 13))
    classical = retag(d, CLASSICAL)
    assert classical.class_tag == CLASSICAL and classical.zero_set is None
    _report_or_fail(verify_membership(classical))
    back = retag(classical, SIGMA_H, zs=_empty(grid))
    assert back.class_tag == SIGMA_H
    report = verify_membership(back)
    _report_or_fail(report)
    assert "shifted_classical" in [c.name for c in report.checks]
    # The restarted tag demands exact nullity on H.
    zs = _signed_zero_set(grid, 13)
    with pytest.raises(ContractError):
        retag(d, SIGMA_SH, zs=zs)
    with pytest.raises(ContractError):
        retag(classical, SIGMA_SH)  # no zero set anywhere


def test_characterization_processes():
    grid = make_grid(horizon=1.0, step=1e-3)
    d = drawdown(_bm(grid, 14))
    zs = _signed_zero_set(grid, 15)
    lifted = lifted_reflected(_bm(grid, 15), zs)
    ch_s = sigma_s_characterization_process(lifted, lambda a: a)
    assert np.all(ch_s.values[zs.h_indices] == 0.0)
    with pytest.raises(ContractError):
        sigma_s_characterization_process(d, lambda a: a)


def test_verify_membership_detects_corruption():
    grid = make_grid(horizon=1.0, step=1e-3)
    d = drawdown(_bm(grid, 16))
    # A ramp in A grows away from the zeros of X.
    ramp = Path(grid=grid, values=d.a.values + 0.5 * grid.times)
    bad_a = assemble(d.x, ramp)
    report = verify_membership(bad_a, support_tolerance=0.0)
    names = [c.name for c in report.failing()]
    assert "support_condition" in names
    assert report.support is not None and report.support.violation_mass > 0.0
    # A negative dip in X.
    dipped = d.x.values.copy()
    dipped[len(dipped) // 2] = -0.1
    bad_x = assemble(Path(grid=grid, values=dipped), d.a)
    assert not verify_membership(bad_x, support_tolerance=0.0).passed
    # Decomposition identity broken by hand.
    broken = Path(grid=grid, values=d.n.values + 1e-6)
    bad_n = assemble(d.x, d.a)
    bad_n = bad_n.__class__(**{**bad_n.__dict__, "n": broken})
    assert not verify_membership(bad_n).passed


def test_verify_membership_shifted_branch_runs_for_restarted_class():
    grid = make_grid(horizon=2.0, step=1e-3)
    zs = _signed_zero_set(grid, 17)
    assert 0 < zs.gbar_index < grid.n_steps
    d = lifted_reflected(_bm(grid, 17), zs)
    report = verify_membership(d)
    names = [c.name for c in report.checks]
    assert "shifted_classical" in names
    _report_or_fail(report)
