"""One API for one path and for rows of paths.

Every public function that takes a ``Path`` takes rows of paths on one
grid as well, and row i of its result equals the one-path call on
path i bit for bit.  The concepts that only make sense for one path
raise ``ContractError`` on rows.
"""

from functools import partial

import numpy as np
import pytest

from sigma_lab import (
    CLASSICAL,
    SIGMA_H,
    SIGMA_SH,
    ContractError,
    ErfSign,
    Path,
    abs_martingale,
    assemble,
    drawdown,
    driver_zero_set,
    integral_against,
    ito_residual,
    lifted_reflected,
    linear_combination,
    make_grid,
    occupation_kernel,
    pm_combination,
    product,
    q_bracket,
    q_integral,
    q_local_time,
    quadratic_variation,
    retag,
    rho,
    running_sup,
    scaled_by_f,
    shift,
    tanaka_residual,
    verify_membership,
    zero_set_from_level_series,
)
from sigma_lab.density import driver_matrix
from sigma_lab.paths import SUBSTREAM_PRIMARY, SUBSTREAM_SECONDARY, cumsum_paths, increments_matrix

SEED = 20260822
MODEL = ErfSign(offset=1.0, terminal_time=1.0)
K = 7
GRID = make_grid(horizon=2.0, step=0.01)


def _draw(substream):
    return cumsum_paths(increments_matrix(SEED, 0, K, GRID.n_steps, GRID.step, substream))


def _setup():
    w = Path(grid=GRID, values=_draw(SUBSTREAM_PRIMARY))
    w2 = Path(grid=GRID, values=_draw(SUBSTREAM_SECONDARY))
    zs = driver_zero_set(MODEL, Path(grid=GRID, values=driver_matrix(MODEL, SEED, 0, K, GRID)))
    return w, w2, zs


def _row(p: Path, i: int) -> Path:
    return Path(grid=p.grid, values=p.values[i])


def _row_zs(zs, i):
    return zero_set_from_level_series(np.where(np.cumsum(zs.in_h[i]) % 2 == 0, 1.0, -1.0), zs.grid)


def _same_zero_set(rows, i, one):
    assert np.array_equal(rows.in_h[i], one.in_h)
    assert np.array_equal(rows.gamma_index[i], one.gamma_index)
    assert rows.gbar_index[i] == one.gbar_index


def _same_decomposition(rows, i, one):
    for part in ("x", "n", "a"):
        assert np.array_equal(getattr(rows, part).values[i], getattr(one, part).values), part
    assert np.broadcast_to(rows.support_scale, (K,))[i] == one.support_scale
    assert (rows.class_tag, rows.gap_scale) == (one.class_tag, one.gap_scale)
    if one.zero_set is None:
        assert rows.zero_set is None
    else:
        _same_zero_set(rows.zero_set, i, one.zero_set)


def _same_report(rows, i, one):
    assert one.verdicts == {name: ok[i] for name, ok in rows.verdicts.items()}
    assert one.passed == rows.passed[i]
    assert (one.support.violation_mass, one.support.total_mass) == (
        rows.support.violation_mass[i],
        rows.support.total_mass[i],
    )
    assert one.support.ratio == rows.support.ratio[i]
    # the one-path detail lists exactly the checks that apply to that path
    assert {c.name: c.passed for c in one.checks}.items() <= one.verdicts.items()


def test_zero_sets_of_rows_are_the_rows_zero_sets():
    w, _, zs = _setup()
    driver = driver_matrix(MODEL, SEED, 0, K, GRID)
    level = driver + MODEL.offset
    series = zero_set_from_level_series(level, GRID, last_index=GRID.index_of(1.0))
    assert zs.gbar_index.shape == (K,) and np.any(zs.gbar_index > 0)
    for i in range(K):
        one = driver_zero_set(MODEL, Path(grid=GRID, values=driver[i]))
        _same_zero_set(zs, i, one)
        _same_zero_set(series, i, zero_set_from_level_series(level[i], GRID, last_index=GRID.index_of(1.0)))
        _same_zero_set(zs, i, _row_zs(zs, i))


def test_restart_calculus_on_rows_is_the_one_path_calculus():
    w, _, zs = _setup()
    functionals = (
        running_sup,
        linear_combination((2.0, -1.0), (quadratic_variation, partial(occupation_kernel, level=0.0))),
        # a functional integrand, restarted per segment
        integral_against(integral_against(lambda values, step: values)),
    )
    integrands = (lambda v: v * v, np.cos(w.values))
    for i in range(K):
        one, one_zs = _row(w, i), _row_zs(zs, i)
        for phi in functionals:
            assert np.array_equal(rho(phi, w, zs).values[i], rho(phi, one, one_zs).values)
        for h in integrands:
            h_one = h[i] if isinstance(h, np.ndarray) else h
            assert np.array_equal(q_integral(h, w, zs).values[i], q_integral(h_one, one, one_zs).values)
        assert np.array_equal(q_bracket(w, zs).values[i], q_bracket(one, one_zs).values)
        assert np.array_equal(q_local_time(w, 0.3, zs).values[i], q_local_time(one, 0.3, one_zs).values)
        for form in ("abs", "plus", "minus"):
            rows, alone = tanaka_residual(w, 0.1, zs, form), tanaka_residual(one, 0.1, one_zs, form)
            for part in ("identity_local_time", "kernel_local_time", "residual"):
                assert np.array_equal(getattr(rows, part).values[i], getattr(alone, part).values)
        ito = (np.sin, np.cos, lambda v: -np.sin(v))
        assert np.array_equal(ito_residual(*ito, w, zs).values[i], ito_residual(*ito, one, one_zs).values)


def test_constructors_and_membership_on_rows_are_the_one_path_ones():
    w, w2, zs = _setup()
    # an increasing part that grows off the zeros on every row, by different amounts
    growth = np.cumsum(np.random.default_rng(5).exponential(1e-3, w.values.shape), axis=1)
    noisy = Path(grid=GRID, values=drawdown(w).a.values + growth - growth[:, :1])
    built = {
        "drawdown": lambda p, p2, a, z: drawdown(p),
        "drawdown-over-h": lambda p, p2, a, z: drawdown(p, z),
        "abs": lambda p, p2, a, z: abs_martingale(p, z),
        "pm": lambda p, p2, a, z: pm_combination(p, 2.0, 0.5, z),
        "lifted": lambda p, p2, a, z: lifted_reflected(p, z),
        "lifted-stopped": lambda p, p2, a, z: lifted_reflected(p, z, stop_level=0.5),
        "product": lambda p, p2, a, z: product([drawdown(p), drawdown(p2)]),
        "restarted-product": lambda p, p2, a, z: product([lifted_reflected(p, z), lifted_reflected(p2, z)]),
        "scaled": lambda p, p2, a, z: scaled_by_f(drawdown(p), lambda v: 2.0 * v, lambda v: v * v),
        "retag": lambda p, p2, a, z: retag(drawdown(p), CLASSICAL),
        "retag-over-h": lambda p, p2, a, z: retag(retag(drawdown(p), CLASSICAL), SIGMA_H, z),
        "retag-restarted": lambda p, p2, a, z: retag(lifted_reflected(p, z), SIGMA_SH),
        "assemble-noisy": lambda p, p2, a, z: assemble(drawdown(p).x, a, support_scale=0.0),
    }
    for name, make in built.items():
        d_rows = make(w, w2, noisy, zs)
        for tol in (None, 0.0, 0.05):
            report_rows = verify_membership(d_rows, tol)
            for i in range(K):
                d_one = make(_row(w, i), _row(w2, i), _row(noisy, i), _row_zs(zs, i))
                _same_decomposition(d_rows, i, d_one)
                _same_report(report_rows, i, verify_membership(d_one, tol))
    # the comparison covers failing verdicts too
    assert not verify_membership(built["assemble-noisy"](w, w2, noisy, zs)).passed.all()


def test_one_path_concepts_reject_rows():
    w, _, zs = _setup()
    with pytest.raises(ContractError):
        shift(w, zs)
    with pytest.raises(ContractError):
        zs.h_indices
    report = verify_membership(drawdown(w))
    with pytest.raises(ContractError):
        report.checks
    with pytest.raises(ContractError):
        report.failing()
    # rows and a zero set of other rows do not mix
    with pytest.raises(ContractError):
        rho(running_sup, _row(w, 0), zs)
    with pytest.raises(ContractError):
        lifted_reflected(_row(w, 0), zs)
