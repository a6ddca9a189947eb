"""The row-batched pathwise chunks against per-path references.

rho-algebra, membership, the residual ladders, t1, sigma-s and
q-bracket evaluate whole chunks of path rows at once, and zero-geometry
reads its bridged hit chance per row.  Each reference
below rebuilds one path's features from the public per-path API
(``rho``, the constructors, ``characterization``,
``verify_membership``, ``q_bracket``, ``tanaka_residual`` and
``ito_residual``), and the chunk features must equal them bit for bit.
The density block that every chunk but the ladder's reads is checked
against each model's own driver, density rows and zero set.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigma_lab import (
    ErfSign,
    StoppedBM,
    Path,
    SeedSpec,
    abs_martingale,
    assemble,
    characterization,
    density_driver_path,
    density_path,
    driver_zero_set,
    drawdown,
    ito_residual,
    lifted_reflected,
    linear_combination,
    make_grid,
    occupation_kernel,
    pm_combination,
    product,
    product_of,
    q_bracket,
    quadratic_variation,
    rho,
    sample_bm,
    sample_independent_pair,
    scaled_by_f,
    shift,
    tanaka_residual,
    verify_membership,
)
from sigma_lab.density import density_matrix, driver_matrix, terminal_density, zero_level, zero_set_from_level_series
import sigma_lab.experiments as experiments
from sigma_lab.experiments import (
    _F_PAIRS,
    _ITO_FORMS,
    _SHIFTED_VARIANTS,
    _T1_DRIFT,
    _density_block,
    _geom_chunk,
    _ladder_chunk,
    _membership_chunk,
    _qbracket_chunk,
    _rho_chunk,
    _rho_pairs,
    _rung_grids,
    _sigs_chunk,
    _t1_chunk,
)
from sigma_lab.paths import SUBSTREAM_DENSITY, cumsum_paths, increments_matrix

SEED = 20260822
MODEL = ErfSign(offset=1.0, terminal_time=1.0)
STOPPED = StoppedBM(start=1.0, stop_time=1.0)
PATHS = 12


def _zero_set(spec, grid):
    return driver_zero_set(MODEL, density_driver_path(MODEL, spec, grid))


def _rho_reference(spec, step, horizon):
    grid = make_grid(horizon, step)
    w = sample_bm(grid, 0.0, spec)
    zs = _zero_set(spec, grid)
    shifted = shift(w, zs)
    g = zs.gbar_index
    out = dict.fromkeys(("lin", "pos", "prod", "defn"), 0.0)
    for v1, v2, _ in _rho_pairs():
        u1 = rho(v1, w, zs).values
        u2 = rho(v2, w, zs).values
        combo = rho(linear_combination((2.0, -1.0), (v1, v2)), w, zs).values
        out["lin"] += not np.array_equal(combo, 2.0 * u1 - u2)
        out["prod"] += not np.array_equal(rho(product_of((v1, v2)), w, zs).values, u1 * u2)
        direct = v1(shifted.values, step)
        head = 0.0 if g > 0 else direct[0]
        out["defn"] += not (np.array_equal(u1[g + 1 :], direct[1:]) and u1[g] == head)
    for v in (quadratic_variation, partial(occupation_kernel, level=0.0)):
        out["pos"] += float(np.min(rho(v, w, zs).values)) < 0.0
    return out


def _double(a):
    return 2.0 * a


def _square(a):
    return a * a


def _membership_reference(spec, step, horizon):
    grid = make_grid(horizon, step)
    w, w2 = sample_independent_pair(grid, (0.0, 0.0), spec)
    zs = _zero_set(spec, grid)
    members = {
        "drawdown": drawdown(w),
        "abs-martingale": abs_martingale(w, zs),
        "pm-combination": pm_combination(w, 2.0, 0.5, zs),
        "lifted": lifted_reflected(w, zs),
        "lifted-stopped": lifted_reflected(w, zs, stop_level=1.0),
        "product": product([drawdown(w), drawdown(w2)]),
        "scaled": scaled_by_f(drawdown(w), _double, _square),
    }
    out = {"shifted_fail": 0.0}
    for key, d in members.items():
        rep = verify_membership(d)
        out[f"fail|{key}"] = float(not rep.passed)
        out[f"supratio|{key}"] = rep.support.ratio
        if key in _SHIFTED_VARIANTS:
            out["shifted_fail"] += sum(c.name == "shifted_classical" and not c.passed for c in rep.checks)
    base = members["drawdown"]
    ramp = Path(grid=grid, values=base.a.values + 0.5 * grid.times)
    bad = assemble(base.x, ramp, base.class_tag, base.zero_set, support_scale=base.support_scale)
    out["corrupt_pass"] = float(verify_membership(bad).passed)
    for factor in (2, 1):
        g = make_grid(horizon, step * factor)
        rep = verify_membership(abs_martingale(Path(grid=g, values=w.values[::factor])), 0.6 * np.sqrt(2.0 * step))
        out[f"viol|{factor}"] = rep.support.violation_mass
        out[f"tot|{factor}"] = rep.support.total_mass
    return out


def _residual_reference(x, zs, form):
    if form in _ITO_FORMS:
        return ito_residual(*_ITO_FORMS[form], x, zs).values
    return tanaka_residual(x, 0.0, zs, form=form).residual.values


def _ladder_reference(spec, step, horizon, forms):
    fine = make_grid(horizon, step)
    w = sample_bm(fine, 0.0, spec)
    driver = density_driver_path(MODEL, spec, fine)
    out = {}
    for factor in (4, 2, 1):
        grid = make_grid(horizon, step * factor)
        zs = driver_zero_set(MODEL, Path(grid=grid, values=driver.values[::factor]))
        values = w.values[::factor]
        x = Path(grid=grid, values=values - values[zs.gamma_index])
        for form in forms:
            res = _residual_reference(x, zs, form)
            out[f"sup{factor}|{form}"] = float(np.max(np.abs(res)))
            if factor == 1 and form in ("plus", "minus"):
                out[f"gap|{form}"] = float(np.max(np.abs(res - _residual_reference(x, zs, "abs"))))
    return out


def _terminal(model, spec, step):
    return density_path(model, spec, make_grid(1.0, step)).values[-1]


def _t1_reference(spec, step, horizon, cols):
    grid = make_grid(horizon, step)
    w = sample_bm(grid, 0.0, spec)
    drifted = drawdown(Path(grid=grid, values=w.values + _T1_DRIFT * grid.times))
    out = {
        "q_sbm": _terminal(STOPPED, spec, step),
        "control": characterization(*_F_PAIRS["one"], drifted.a.values[cols], drifted.x.values[cols]),
    }
    for cons, d in (("drawdown", drawdown(w)), ("abs", abs_martingale(w))):
        for kind, pair in _F_PAIRS.items():
            out[f"{cons}|{kind}"] = characterization(*pair, d.a.values[cols], d.x.values[cols])
    return out


def _sigs_reference(spec, step, horizon, cols):
    grid = make_grid(horizon, step)
    d = lifted_reflected(sample_bm(grid, 0.0, spec), _zero_set(spec, grid))
    g = d.zero_set.gbar_index
    out = {kind: characterization(*pair, d.a.values[cols], d.x.values[cols]) for kind, pair in _F_PAIRS.items()}
    out["q_erf"] = _terminal(MODEL, spec, step)
    out["null_mag"] = abs(d.x.values[g]) + abs(d.a.values[g])
    return out


def _qbracket_reference(spec, step, horizon, offset_steps):
    grid = make_grid(horizon, step)
    w = sample_bm(grid, 0.0, spec)
    zs = _zero_set(spec, grid)
    bracket = q_bracket(w, zs).values
    g = zs.gbar_index
    cols = [g + d for d in offset_steps]
    beta = w.values[cols] - w.values[g]
    return {
        "v": beta * beta - bracket[cols],
        "brack_min": min(np.inf, *bracket[cols]),
        "q_erf": _terminal(MODEL, spec, step),
    }


def _assert_rows_match(batch, reference, start):
    refs = [reference(SeedSpec(SEED, start + i)) for i in range(PATHS)]
    assert set(batch) == set(refs[0])
    for key, values in batch.items():
        expected = np.array([r[key] for r in refs])
        assert np.array_equal(values, expected), key


@pytest.mark.parametrize("start", [0, 40])
def test_rho_chunk_matches_per_path_restarts(start):
    batch = _rho_chunk(start, PATHS, seed=SEED, grid=make_grid(2.0, 0.02))
    _assert_rows_match(batch, lambda spec: _rho_reference(spec, 0.02, 2.0), start)


@pytest.mark.parametrize("start", [0, 40])
def test_membership_chunk_matches_per_path_verdicts(start):
    batch = _membership_chunk(start, PATHS, seed=SEED, grids=_rung_grids(1.0, 0.01, (2, 1)))
    _assert_rows_match(batch, lambda spec: _membership_reference(spec, 0.01, 1.0), start)


def test_ladder_chunk_matches_per_path_residuals():
    forms = ("abs", "plus", "minus") + tuple(_ITO_FORMS)
    batch = _ladder_chunk(0, PATHS, seed=SEED, grids=_rung_grids(1.0, 0.005, (4, 2, 1)))
    _assert_rows_match(batch, lambda spec: _ladder_reference(spec, 0.005, 1.0, forms), 0)


@pytest.mark.parametrize("start", [0, 40])
def test_t1_chunk_matches_per_path_characterization(start):
    cols = (25, 50, 75, 100)
    batch = _t1_chunk(start, PATHS, seed=SEED, grid=make_grid(1.0, 0.01), cols=cols)
    _assert_rows_match(batch, lambda spec: _t1_reference(spec, 0.01, 1.0, list(cols)), start)


@pytest.mark.parametrize("start", [0, 40])
def test_sigs_chunk_matches_per_path_characterization(start):
    cols = (50, 100, 150, 200)
    batch = _sigs_chunk(start, PATHS, seed=SEED, grid=make_grid(2.0, 0.01), cols=cols)
    _assert_rows_match(batch, lambda spec: _sigs_reference(spec, 0.01, 2.0, list(cols)), start)


@pytest.mark.parametrize("start", [0, 40])
def test_qbracket_chunk_matches_per_path_bracket(start):
    # the chunk gathers the bracket from each row's last zero alone; the
    # reference reads q_bracket on the path's whole zero set
    offsets = (10, 20, 50, 100)
    batch = _qbracket_chunk(start, PATHS, seed=SEED, grid=make_grid(2.0, 0.01), offset_steps=offsets)
    _assert_rows_match(batch, lambda spec: _qbracket_reference(spec, 0.01, 2.0, offsets), start)
    zeros = [_zero_set(SeedSpec(SEED, start + i), make_grid(2.0, 0.01)).gbar_index > 0 for i in range(PATHS)]
    assert 0 < sum(zeros) < PATHS


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    step=st.sampled_from((0.01, 2e-3, 1e-3, 2.5e-4)),
    start=st.sampled_from((0, 256, 4096)) | st.integers(0, 2**64 - 8),
)
def test_density_block_matches_each_models_own_rows(seed, step, start):
    # one draw gives both models' terminal values and their one zero set,
    # each bit for bit what that model reads off its own driver; so do a
    # kept block served again and a sub-range of it, hit chance included
    span = make_grid(1.0, step)
    experiments._BLOCKS.clear()
    miss = _density_block(seed, start, 8, span)
    hit = _density_block(seed, start, 8, span)
    sub = _density_block(seed, start + 2, 4, span)
    assert len(experiments._BLOCKS[seed, step]) == 1
    for rows, block in ((slice(0, 8), miss), (slice(0, 8), hit), (slice(2, 6), sub)):
        for model, q in ((MODEL, block.q_erf), (STOPPED, block.q_sbm)):
            driver = driver_matrix(model, seed, start, 8, span)[rows]
            assert q.tobytes() == terminal_density(model, driver, span).tobytes()
            assert q.tobytes() == density_matrix(model, driver, span)[:, -1].tobytes()
            assert np.array_equal(block.zs.in_h, driver_zero_set(model, Path(grid=span, values=driver)).in_h)
        assert block.hit.tobytes() == miss.hit[rows].tobytes()
        assert set(block.q_erf) <= {-1.0, 1.0}


def _geom_reference(spec, step):
    span = make_grid(1.0, step)
    x = zero_level(MODEL, density_driver_path(MODEL, spec, span).values)
    zs = _zero_set(spec, span)
    g = zs.gbar_index
    # the bridge's no-crossing chance over each grid step, written out per path
    clear = np.log1p(-np.minimum(np.exp(-2.0 * x[:-1] * x[1:] / step), 1.0 - 1e-16))
    return {
        "hit": 1.0 if g > 0 else -np.expm1(np.sum(clear)),
        "gamma_moves": float(np.any(zs.gamma_index[g:] != g)),
        "origin_in_h": float(zs.in_h[0]),
    }


@pytest.mark.parametrize("start", [0, 40])
def test_geom_chunk_matches_per_path_bridged_hits(start):
    batch = _geom_chunk(start, PATHS, seed=SEED, grid=make_grid(1.0, 0.01))
    _assert_rows_match(batch, lambda spec: _geom_reference(spec, 0.01), start)
    # paths with and without a zero on the grid, and bridged chances strictly between
    assert 0 < np.count_nonzero(batch["hit"] == 1.0) < PATHS
    assert np.all((batch["hit"] > 0.0) & (batch["hit"] <= 1.0))


def test_kept_density_arrays_are_read_only():
    experiments._BLOCKS.clear()
    grid = make_grid(1.0, 0.01)
    for block in (_density_block(SEED, 0, 16, grid), _density_block(SEED, 4, 8, grid)):
        for values in (block.q_erf, block.q_sbm, block.hit):
            with pytest.raises(ValueError):
                values[0] = 0.0
    (kept,) = experiments._BLOCKS[SEED, 0.01].values()
    with pytest.raises(ValueError):
        kept.h_bits[0, 0] = 0


def test_density_keep_holds_one_seed():
    experiments._BLOCKS.clear()
    grid = make_grid(1.0, 0.01)
    _density_block(SEED, 0, 16, grid)
    _density_block(SEED, 0, 16, make_grid(1.0, 0.02))
    assert set(experiments._BLOCKS) == {(SEED, 0.01), (SEED, 0.02)}
    _density_block(SEED + 1, 0, 16, grid)
    assert set(experiments._BLOCKS) == {(SEED + 1, 0.01)}
    # a wider miss replaces the kept ranges it covers
    _density_block(SEED + 1, 16, 16, grid)
    _density_block(SEED + 1, 0, 64, grid)
    assert {first: len(b.hit) for first, b in experiments._BLOCKS[SEED + 1, 0.01].items()} == {0: 64}


@pytest.mark.parametrize("horizon", [2.0, 0.5])
def test_density_block_zero_set_on_longer_and_shorter_grids(horizon):
    # padded past the span, cut to a shorter grid's prefix: either way the
    # zero set of a driver drawn on that grid itself
    grid = make_grid(horizon, 0.01)
    zs = _density_block(SEED, 40, 64, grid).zs
    assert zs.grid == grid
    if horizon > 1.0:
        want = driver_zero_set(MODEL, Path(grid=grid, values=driver_matrix(MODEL, SEED, 40, 64, grid)))
    else:
        # a grid short of the model span holds no driver of its own, so
        # the reference reads the drawn prefix's sign changes
        incs = increments_matrix(SEED, 40, 64, grid.n_steps, grid.step, SUBSTREAM_DENSITY)
        want = zero_set_from_level_series(zero_level(MODEL, cumsum_paths(incs)), grid)
    assert np.array_equal(zs.in_h, want.in_h)
    assert 0 < np.count_nonzero(zs.gbar_index) < 64
