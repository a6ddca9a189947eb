"""Registry of Monte Carlo experiments behind the command line tool.

Each experiment simulates an ensemble in fixed 256-path chunks (a few
use smaller chunks to bound memory), reduces it to named checks with
explicit statistical, grid, and truncation allowances, and optionally
emits survival-curve points.  Reductions run on the concatenated
arrays in path-index order, so for a fixed seed the resulting report
bytes do not depend on the worker count.

Scale defaults come in two suites: ``fast`` for smoke runs and
``full`` for the reproduction runs.  A handful of experiments pin
their own scales (convergence ladders, pathwise algebra) because
their criteria are stated at fixed sizes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np
from scipy.special import ndtr

from .balayage import (
    Constant,
    LinearCombination,
    LocalTimeAt,
    NetChange,
    PathFunctional,
    Product,
    QuadraticVariation,
    RunningIntegralAgainst,
    RunningSup,
    gathered_prefix,
    ito_residual,
    occupation_kernel,
    rho,
    shift,
    tanaka_residual,
)
from .density import (
    ConstantOne,
    DensityModel,
    ErfSign,
    StoppedBM,
    ZeroGeometry,
    density_driver_path,
    density_matrix,
    driver_from_increments,
    driver_matrix,
    driver_zero_set,
    ensemble_weights,
    model_time,
    zero_geometry,
    zero_level,
    zero_set_from_level_series,
)
from .ensemble import CHUNK_SIZE, run_chunked
from .errors import ConfigurationError
from .estimates import (
    BoundarySpec,
    ConstantBoundary,
    FlatnessReport,
    GrowthLaw,
    KsReport,
    TableBoundary,
    TargetCheck,
    agreement_check,
    count_check,
    exact_check,
    flatness_test,
    ks_test,
    mean_check,
    ratio_check,
    weighted_mean,
)
from .paths import (
    SUBSTREAM_DENSITY,
    SUBSTREAM_PRIMARY,
    SUBSTREAM_SECONDARY,
    Path,
    SeedSpec,
    TimeGrid,
    before_hit,
    cumsum_paths,
    first_hit,
    increments_matrix,
    make_grid,
    sample_bm,
    sample_independent_pair,
)
from .sigma_classes import (
    abs_martingale,
    assemble,
    drawdown,
    lifted_reflected,
    pm_combination,
    product,
    scaled_by_f,
    verify_membership,
)

__all__ = [
    "DEFAULT_SEED",
    "ExperimentConfig",
    "RunSettings",
    "ReportRow",
    "CurveSeries",
    "ExperimentRun",
    "EXPERIMENTS",
    "experiment_names",
    "paper_anchor",
    "resolve_settings",
    "run_experiment",
    "run_suite",
    "config_digest",
    "report_rows",
]

DEFAULT_SEED = 20260822

_ERF = ErfSign(offset=1.0, terminal_time=1.0)
_SBM = StoppedBM(start=1.0, stop_time=1.0)
_D0_ERF = float(2.0 * ndtr(1.0) - 1.0)
_P_HIT = float(2.0 * (1.0 - ndtr(1.0)))


# ---------------------------------------------------------------- config

@dataclass(frozen=True)
class ExperimentConfig:
    """User-facing run request; None fields fall back to registry defaults."""

    experiment: str
    n_paths: int | None = None
    step: float | None = None
    horizon: float | None = None
    master_seed: int = DEFAULT_SEED
    checkpoints: tuple[float, ...] | None = None
    policy: str = "drop"
    workers: int = 1


@dataclass(frozen=True)
class RunSettings:
    """Fully resolved scales for one experiment run."""

    name: str
    n_paths: int
    step: float
    horizon: float | None
    master_seed: int
    checkpoints: tuple[float, ...] | None
    policy: str
    workers: int


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    paper_anchor: str
    check: str
    kind: str
    target: float | None
    estimate: float
    stderr: float | None
    z: float | None
    stat_tolerance: float
    grid_allowance: float
    truncation_allowance: float
    tolerance: float
    passed: bool
    seed: int
    config_hash: str
    detail: str


@dataclass(frozen=True)
class CurveSeries:
    """Plot data for one survival/level curve."""

    name: str
    xs: tuple[float, ...]
    targets: tuple[float, ...]
    estimates: tuple[float, ...]
    ci_lo: tuple[float, ...]
    ci_hi: tuple[float, ...]


@dataclass(frozen=True)
class ExperimentRun:
    name: str
    paper_anchor: str
    settings: RunSettings
    checks: tuple[TargetCheck, ...]
    curves: tuple[CurveSeries, ...]
    seconds: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def config_digest(st: RunSettings) -> str:
    """Stable hash of everything that determines the numbers.

    The worker count is deliberately excluded: results are bitwise
    identical across worker counts and the reports must be too.
    """
    payload = {
        "experiment": st.name,
        "n_paths": st.n_paths,
        "step": st.step,
        "horizon": st.horizon,
        "seed": st.master_seed,
        "checkpoints": list(st.checkpoints) if st.checkpoints is not None else None,
        "policy": st.policy,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def report_rows(run: ExperimentRun) -> list[ReportRow]:
    digest = config_digest(run.settings)
    rows = []
    for c in run.checks:
        rows.append(
            ReportRow(
                experiment=run.name,
                paper_anchor=run.paper_anchor,
                check=c.name,
                kind=c.kind,
                target=c.target,
                estimate=c.estimate,
                stderr=c.stderr,
                z=c.z,
                stat_tolerance=c.stat_tolerance,
                grid_allowance=c.grid_allowance,
                truncation_allowance=c.truncation_allowance,
                tolerance=c.tolerance,
                passed=c.passed,
                seed=run.settings.master_seed,
                config_hash=digest,
                detail=c.detail,
            )
        )
    return rows


# ---------------------------------------------------------------- helpers

def _chunked(
    st: RunSettings,
    chunk: Callable[..., dict[str, np.ndarray]],
    n_paths: int | None = None,
    chunk_size: int = CHUNK_SIZE,
    **params,
) -> dict[str, np.ndarray]:
    """``run_chunked`` over chunk(start, count, seed=..., step=..., **params)."""
    fn = functools.partial(chunk, seed=st.master_seed, step=st.step, **params)
    n = st.n_paths if n_paths is None else n_paths
    return run_chunked(n, fn, chunk_size=chunk_size, workers=st.workers)


def _gather(matrix: np.ndarray, cols: np.ndarray) -> np.ndarray:
    return np.take_along_axis(matrix, cols[:, None], axis=1)[:, 0]


def _primary(seed: int, start: int, count: int, grid: TimeGrid) -> np.ndarray:
    incs = increments_matrix(seed, start, count, grid.n_steps, grid.step, SUBSTREAM_PRIMARY)
    return cumsum_paths(incs)


def _density_block(model: DensityModel, seed: int, start: int, count: int, step: float) -> tuple[np.ndarray, ZeroGeometry]:
    """Terminal density values and zero geometry on the model's own span.

    The indices live on any grid with the same step, because the
    model is constant past its own time.  ConstantOne has no span: its
    terminal value is 1 and its zero set is empty.
    """
    span = model_time(model)
    if span is None:
        return np.ones(count), zero_geometry(np.ones((count, 1)))
    sgrid = make_grid(span, step)
    driver = driver_matrix(model, seed, start, count, sgrid)
    dens = density_matrix(model, driver, sgrid)
    return dens[:, -1], zero_geometry(zero_level(model, driver), last_index=sgrid.n_steps)


def _extend_gamma(gamma: np.ndarray, gbar: np.ndarray, n_cols: int) -> np.ndarray:
    """Pad per-path gamma indices out to n_cols; past the last zero the
    anchor stays at the last zero."""
    have = gamma.shape[1]
    if have >= n_cols:
        return gamma[:, :n_cols]
    pad = np.repeat(gbar[:, None], n_cols - have, axis=1)
    return np.concatenate([gamma, pad], axis=1)


def _offset_steps(offsets: tuple[float, ...], horizon: float, step: float) -> tuple[int, ...]:
    """Grid steps of restart offsets, checked before any simulation:
    each must be a time of the simulated grid, so none is negative, off
    the grid, or past the horizon (where r1 would drop every path)."""
    grid = make_grid(horizon, step)
    return tuple(grid.index_of(s) for s in offsets)


def _flatness_check(name: str, rep: FlatnessReport, label: str) -> TargetCheck:
    means = ", ".join(f"{m.value:.5g}" for m in rep.means)
    return TargetCheck(
        name=name,
        kind="flatness",
        target=None,
        estimate=rep.max_z,
        stderr=None,
        z=rep.max_z,
        stat_tolerance=rep.threshold,
        grid_allowance=0.0,
        truncation_allowance=0.0,
        passed=rep.passed,
        detail=f"{label} means [{means}], max pairwise z = {rep.max_z:.3f}",
    )


def _control_check(name: str, rep: FlatnessReport) -> TargetCheck:
    return TargetCheck(
        name=name,
        kind="control",
        target=None,
        estimate=rep.max_z,
        stderr=None,
        z=rep.max_z,
        stat_tolerance=rep.threshold,
        grid_allowance=0.0,
        truncation_allowance=0.0,
        passed=rep.max_z >= rep.threshold,
        detail=f"drifted control must fail flatness: z = {rep.max_z:.3f} vs {rep.threshold}",
    )


def _ks_check(name: str, rep: KsReport, extra: float) -> TargetCheck:
    return TargetCheck(
        name=name,
        kind="ks",
        target=0.0,
        estimate=rep.statistic,
        stderr=None,
        z=None,
        stat_tolerance=rep.critical - extra,
        grid_allowance=extra,
        truncation_allowance=0.0,
        passed=rep.passed,
        detail=f"ks {rep.statistic:.4f} vs {rep.critical:.4f} (n_eff {rep.n_effective:.0f})",
    )


def _curve(name, xs, targets, estimates) -> CurveSeries:
    return CurveSeries(
        name=name,
        xs=tuple(float(v) for v in xs),
        targets=tuple(float(v) for v in targets),
        estimates=tuple(e.value for e in estimates),
        ci_lo=tuple(e.ci_lo for e in estimates),
        ci_hi=tuple(e.ci_hi for e in estimates),
    )


def _sup_deficit(level_log, span):
    """Shortfall of the finite-span barrier probability against the
    all-time law e^{-b} for the drift -1/2 Brownian exponent; exact via
    the reflection formula.  Vectorizes over either argument."""
    b = np.asarray(level_log, dtype=np.float64)
    t = np.asarray(span, dtype=np.float64)
    rt = np.sqrt(t)
    finite = 1.0 - ndtr((b + 0.5 * t) / rt) + np.exp(-b) * ndtr((0.5 * t - b) / rt)
    return np.where(b > 0.0, np.maximum(np.exp(-b) - finite, 0.0), 0.0)


# ---------------------------------------------------------------- t1 suite

_F_ORDER = ("one", "below-1", "cap-1")


def _characterization(kind: str, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """F(A) - f(A) X for the bounded f named by ``kind`` and its
    primitive F: driftless exactly when X is a member."""
    if kind == "one":
        return a - x
    if kind == "below-1":
        return np.minimum(a, 1.0) - (a < 1.0) * x
    return np.where(a < 1.0, 0.5 * a * a, a - 0.5) - np.minimum(a, 1.0) * x


def _t1_chunk(
    start: int,
    count: int,
    *,
    seed: int,
    step: float,
    horizon: float,
    checkpoints: tuple[float, ...],
    model: DensityModel,
    drift: float = 0.0,
) -> dict[str, np.ndarray]:
    grid = make_grid(horizon, step)
    w = _primary(seed, start, count, grid)
    if drift != 0.0:
        w = w + drift * grid.times[None, :]
    cols = np.array([grid.index_of(t) for t in checkpoints])
    s = np.maximum.accumulate(w, axis=1)
    variants = {
        "drawdown": (s - w, s),
        "abs": (np.abs(w), occupation_kernel(w, step)),
    }
    terminal, _ = _density_block(model, seed, start, count, step)
    out: dict[str, np.ndarray] = {"q": terminal}
    for cons, (x, a) in variants.items():
        xc = x[:, cols]
        ac = a[:, cols]
        for kind in _F_ORDER:
            out[f"{cons}|{kind}"] = _characterization(kind, ac, xc)
    return out


def _model_label(model: DensityModel) -> str:
    if isinstance(model, ConstantOne):
        return "constant-one"
    if isinstance(model, StoppedBM):
        return "stopped-bm"
    return "erf-sign"


def _run_t1(st: RunSettings) -> tuple[list[TargetCheck], list[CurveSeries]]:
    horizon = st.horizon if st.horizon is not None else 1.0
    cps = st.checkpoints if st.checkpoints is not None else (0.25, 0.5, 0.75, 1.0)
    checks: list[TargetCheck] = []
    for model in (ConstantOne(), _SBM):
        feats = _chunked(st, _t1_chunk, horizon=horizon, checkpoints=cps, model=model)
        q = feats["q"]
        for cons in ("drawdown", "abs"):
            for kind in _F_ORDER:
                rep = flatness_test(feats[f"{cons}|{kind}"].T, q, cps)
                checks.append(
                    _flatness_check(f"{_model_label(model)}-{cons}-f-{kind}", rep, "q-weighted")
                )
    n_ctrl = min(st.n_paths, 20000)
    feats = _chunked(st, _t1_chunk, n_ctrl, horizon=horizon, checkpoints=cps, model=ConstantOne(), drift=0.3)
    rep = flatness_test(feats["drawdown|one"].T, feats["q"], cps)
    checks.append(_control_check("drifted-control-fails", rep))
    return checks, []


# ---------------------------------------------------------------- r1 restart martingale

def _r1_chunk(
    start: int,
    count: int,
    *,
    seed: int,
    step: float,
    horizon: float,
    cdf_time: float,
    offset_steps: tuple[int, ...],
    model: DensityModel,
) -> dict[str, np.ndarray]:
    grid = make_grid(horizon, step)
    w = _primary(seed, start, count, grid)
    t = grid.times
    u = ndtr((0.5 - w) / np.sqrt(cdf_time - t)[None, :])
    terminal, zg = _density_block(model, seed, start, count, step)
    gbar = zg.gbar_idx
    ug = _gather(u, gbar)
    vals = np.empty((count, len(offset_steps)))
    keep = np.ones(count, dtype=bool)
    for k, d in enumerate(offset_steps):
        cols = gbar + d
        over = cols > grid.n_steps
        if over.any():
            keep &= ~over
            cols = np.minimum(cols, grid.n_steps)
        vals[:, k] = _gather(u, cols) - ug
    bound = max(float(np.max(u - 1.0)), float(np.max(-u)), 0.0)
    return {
        "v": vals[keep],
        "bound": np.full(count, bound),
        "pprime_raw": terminal[keep],
        "kept": keep.astype(np.float64),
    }


def _run_r1(st: RunSettings) -> tuple[list[TargetCheck], list[CurveSeries]]:
    horizon = st.horizon if st.horizon is not None else 2.0
    offsets = st.checkpoints if st.checkpoints is not None else (0.2, 0.45, 0.7, 0.95)
    if st.policy == "extend":
        # make sure every restart window fits on the simulated grid
        horizon = max(horizon, 1.0 + max(offsets) + st.step)
        horizon = round(horizon / st.step) * st.step
    steps = _offset_steps(offsets, horizon, st.step)
    feats = _chunked(st, _r1_chunk, horizon=horizon, cdf_time=horizon + 1.0, offset_steps=steps, model=_ERF)
    pprime = ensemble_weights(feats["pprime_raw"]).pprime_weight
    rep = flatness_test(feats["v"].T, pprime, offsets)
    dropped = int(st.n_paths - feats["v"].shape[0])
    checks = [
        _flatness_check("restart-increments-flat", rep, f"P'-weighted ({dropped} dropped)"),
        exact_check("bounded-in-unit-interval", float(np.max(feats["bound"]))),
    ]
    return checks, []


# ---------------------------------------------------------------- sigma-s characterization

def _sigs_rows(
    start: int, count: int, *, seed: int, step: float, horizon: float, model: DensityModel
) -> tuple[TimeGrid, np.ndarray, np.ndarray, tuple[np.ndarray, ZeroGeometry]]:
    """Rows of the restarted reflected driver X and its kernel clock A:
    the ``lifted_reflected`` construction, one row per path; then the
    ``_density_block`` they were restarted on."""
    grid = make_grid(horizon, step)
    w = _primary(seed, start, count, grid)
    terminal, zg = _density_block(model, seed, start, count, step)
    gamma = _extend_gamma(zg.gamma_idx, zg.gbar_idx, grid.n_steps + 1)
    x = np.abs(w - np.take_along_axis(w, gamma, axis=1))
    return grid, x, occupation_kernel(x, step, anchors=gamma), (terminal, zg)


def _sigs_chunk(start: int, count: int, *, checkpoints: tuple[float, ...], **rows) -> dict[str, np.ndarray]:
    grid, x, a, (terminal, zg) = _sigs_rows(start, count, **rows)
    gbar = zg.gbar_idx
    cols = np.array([grid.index_of(t) for t in checkpoints])
    xc, ac = x[:, cols], a[:, cols]
    out: dict[str, np.ndarray] = {"q": terminal}
    for kind in _F_ORDER:
        out[kind] = _characterization(kind, ac, xc)
    out["null_mag"] = np.abs(_gather(x, gbar)) + np.abs(_gather(a, gbar))
    return out


def _run_sigma_s(st: RunSettings) -> tuple[list[TargetCheck], list[CurveSeries]]:
    horizon = st.horizon if st.horizon is not None else 2.0
    cps = st.checkpoints if st.checkpoints is not None else (0.5, 1.0, 1.5, 2.0)
    feats = _chunked(st, _sigs_chunk, horizon=horizon, checkpoints=cps, model=_ERF)
    checks = []
    for kind in _F_ORDER:
        rep = flatness_test(feats[kind].T, feats["q"], cps)
        checks.append(_flatness_check(f"restarted-reflected-f-{kind}", rep, "q-weighted"))
    checks.append(exact_check("null-at-last-zero", float(np.max(feats["null_mag"]))))
    return checks, []


# ---------------------------------------------------------------- rho algebra

def _rho_pairs() -> tuple[tuple[PathFunctional, PathFunctional], ...]:
    return (
        (RunningSup(), QuadraticVariation()),
        (NetChange(), RunningIntegralAgainst(lambda v: v)),
        (Constant(2.0), LocalTimeAt(0.0)),
    )


def _rho_chunk(
    start: int, count: int, *, seed: int, step: float, horizon: float, model: DensityModel
) -> dict[str, np.ndarray]:
    grid = make_grid(horizon, step)
    lin_bad = np.zeros(count)
    pos_bad = np.zeros(count)
    prod_bad = np.zeros(count)
    defn_bad = np.zeros(count)
    for i in range(count):
        spec = SeedSpec(master_seed=seed, path_index=start + i)
        w = sample_bm(grid, 0.0, spec)
        zs = driver_zero_set(model, density_driver_path(model, spec, grid))
        shifted = shift(w, zs)
        g = zs.gbar_index
        for v1, v2 in _rho_pairs():
            u1 = rho(v1, w, zs).values
            u2 = rho(v2, w, zs).values
            combo = rho(LinearCombination((2.0, -1.0), (v1, v2)), w, zs).values
            if not np.array_equal(combo, 2.0 * u1 - u2):
                lin_bad[i] += 1.0
            prod = rho(Product((v1, v2)), w, zs).values
            if not np.array_equal(prod, u1 * u2):
                prod_bad[i] += 1.0
            # entry for entry past the restart point; at the point itself
            # the lift books 0 whenever the point is a detected zero
            direct = v1.evaluate(shifted.values, step)
            tail_ok = np.array_equal(u1[g + 1 :], direct[1:])
            head_ok = u1[g] == (0.0 if g > 0 else direct[0])
            if not (tail_ok and head_ok):
                defn_bad[i] += 1.0
        for v in (QuadraticVariation(), LocalTimeAt(0.0)):
            if float(np.min(rho(v, w, zs).values)) < 0.0:
                pos_bad[i] += 1.0
    return {"lin": lin_bad, "pos": pos_bad, "prod": prod_bad, "defn": defn_bad}


def _run_rho(st: RunSettings) -> tuple[list[TargetCheck], list[CurveSeries]]:
    horizon = st.horizon if st.horizon is not None else 2.0
    feats = _chunked(st, _rho_chunk, horizon=horizon, model=_ERF)
    n = st.n_paths
    checks = [
        count_check("linearity-bitwise", int(feats["lin"].sum()), f"0 of {3 * n} pair evaluations differ"),
        count_check("product-rule-bitwise", int(feats["prod"].sum()), f"0 of {3 * n} pair evaluations differ"),
        count_check("positivity", int(feats["pos"].sum()), f"0 of {2 * n} nonnegative lifts go negative"),
        count_check("defining-property-exact", int(feats["defn"].sum()), f"restart values equal shifted values on {3 * n} evaluations"),
    ]
    return checks, []


# ---------------------------------------------------------------- q bracket

def _qbracket_chunk(
    start: int,
    count: int,
    *,
    seed: int,
    step: float,
    horizon: float,
    offset_steps: tuple[int, ...],
    model: DensityModel,
) -> dict[str, np.ndarray]:
    grid = make_grid(horizon, step)
    w = _primary(seed, start, count, grid)
    terminal, zg = _density_block(model, seed, start, count, step)
    gbar = zg.gbar_idx
    bracket = gathered_prefix(np.diff(w, axis=1) ** 2, gbar[:, None])
    wg = _gather(w, gbar)
    vals = np.empty((count, len(offset_steps)))
    brack_min = np.full(count, np.inf)
    for k, d in enumerate(offset_steps):
        cols = gbar + d
        beta = _gather(w, cols) - wg
        brack = _gather(bracket, cols)
        brack_min = np.minimum(brack_min, brack)
        vals[:, k] = beta * beta - brack
    return {"v": vals, "brack_min": brack_min, "q": terminal}


def _run_qbracket(st: RunSettings) -> tuple[list[TargetCheck], list[CurveSeries]]:
    horizon = st.horizon if st.horizon is not None else 2.0
    offs = st.checkpoints if st.checkpoints is not None else (0.25, 0.5, 0.75, 1.0)
    if horizon < 1.0 + max(offs) - 1e-9:  # offsets count from a last zero as late as 1.0
        raise ConfigurationError(f"q-bracket offsets up to {max(offs):g} need a horizon of {1.0 + max(offs):g}")
    steps = _offset_steps(offs, horizon, st.step)
    feats = _chunked(st, _qbracket_chunk, horizon=horizon, offset_steps=steps, model=_ERF)
    rep = flatness_test(feats["v"].T, feats["q"], offs)
    worst = float(np.min(feats["brack_min"]))
    checks = [
        _flatness_check("squared-restart-minus-bracket-flat", rep, "q-weighted"),
        exact_check("bracket-increments-nonnegative", max(0.0, -worst)),
    ]
    return checks, []


# ---------------------------------------------------------------- tanaka / ito ladders

_LADDER = (4, 2, 1)


def _restarted_on(values: np.ndarray, grid: TimeGrid, zs) -> Path:
    # signed restarted driver; level 0 is crossed transversally, which is
    # what the local-time identities are about
    return Path(grid=grid, values=values - values[zs.gamma_index])


def _ladder_paths(index: int, seed: int, step: float, horizon: float, model: ErfSign):
    """Fine path plus its zero set, subsampled onto each ladder rung."""
    fine = make_grid(horizon, step)
    spec = SeedSpec(master_seed=seed, path_index=index)
    w = sample_bm(fine, 0.0, spec)
    driver = density_driver_path(model, spec, fine)
    out = []
    for factor in _LADDER:
        grid = make_grid(horizon, step * factor)
        zs = driver_zero_set(model, Path(grid=grid, values=driver.values[::factor]))
        out.append((grid, w.values[::factor], zs))
    return out


_ITO_FORMS = {
    "linear": (lambda x: x.copy(), lambda x: np.ones_like(x), lambda x: np.zeros_like(x)),
    "square": (lambda x: x * x, lambda x: 2.0 * x, lambda x: np.full_like(x, 2.0)),
    "cosine": (np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)),
}


def _residual(x: Path, zs, form: str) -> np.ndarray:
    """Ito residual for the forms of ``_ITO_FORMS``, Tanaka residual at
    level 0 for abs, plus and minus."""
    if form in _ITO_FORMS:
        return ito_residual(*_ITO_FORMS[form], x, zs).values
    return tanaka_residual(x, 0.0, zs, form=form).residual.values


def _ladder_chunk(
    start: int, count: int, *, seed: int, step: float, horizon: float, model: ErfSign, form: str
) -> dict[str, np.ndarray]:
    sups = {f: np.empty(count) for f in _LADDER}
    tri_bad = np.zeros(count)
    for i in range(count):
        rungs = _ladder_paths(start + i, seed, step, horizon, model)
        for factor, (grid, values, zs) in zip(_LADDER, rungs):
            x = _restarted_on(values, grid, zs)
            res = _residual(x, zs, form)
            sups[factor][i] = float(np.max(np.abs(res)))
            if factor == 1 and form == "abs":
                rp = _residual(x, zs, "plus")
                rm = _residual(x, zs, "minus")
                gap = np.abs(res) - (np.abs(rp) + np.abs(rm))
                if float(np.max(gap)) > 1e-12:
                    tri_bad[i] = 1.0
    return {"sup4": sups[4], "sup2": sups[2], "sup1": sups[1], "tri_bad": tri_bad}


def _ladder_rows(name: str, feats: dict[str, np.ndarray], st: RunSettings) -> list[TargetCheck]:
    med = {f: float(np.median(feats[f"sup{f}"])) for f in _LADDER}
    s = st.step
    return [
        ratio_check(f"{name}-halving-{4 * s:g}-to-{2 * s:g}", med[4], med[2], 1.2),
        ratio_check(f"{name}-halving-{2 * s:g}-to-{s:g}", med[2], med[1], 1.2),
    ]


def _constant_path_residual(st: RunSettings, form: str) -> float:
    grid = make_grid(1.0, st.step)
    flat = Path(grid=grid, values=np.full(grid.n_steps + 1, 0.5))
    zs = zero_set_from_level_series(np.ones(grid.n_steps + 1), grid)
    return float(np.max(np.abs(_residual(flat, zs, form))))


def _run_tanaka(st: RunSettings, *, form: str) -> tuple[list[TargetCheck], list[CurveSeries]]:
    horizon = st.horizon if st.horizon is not None else 1.0
    feats = _chunked(st, _ladder_chunk, horizon=horizon, model=_ERF, form=form)
    checks = _ladder_rows(f"{form}-residual", feats, st)
    checks.append(exact_check("constant-path-residual", _constant_path_residual(st, form)))
    if form == "abs":
        checks.append(
            count_check(
                "abs-bounded-by-parts",
                int(feats["tri_bad"].sum()),
                f"|abs residual| <= |plus| + |minus| pathwise on {st.n_paths} paths",
            )
        )
    return checks, []


_run_tanaka_abs = functools.partial(_run_tanaka, form="abs")
_run_tanaka_plus = functools.partial(_run_tanaka, form="plus")
_run_tanaka_minus = functools.partial(_run_tanaka, form="minus")


def _run_ito(st: RunSettings) -> tuple[list[TargetCheck], list[CurveSeries]]:
    checks: list[TargetCheck] = []
    horizon = st.horizon if st.horizon is not None else 1.0
    for form in ("linear", "square", "cosine"):
        feats = _chunked(st, _ladder_chunk, horizon=horizon, model=_ERF, form=form)
        checks.extend(_ladder_rows(f"{form}", feats, st))
        checks.append(exact_check(f"{form}-constant-path-residual", _constant_path_residual(st, form)))
    return checks, []


# ---------------------------------------------------------------- doob maximal

def _doob_chunk(
    start: int,
    count: int,
    *,
    seed: int,
    step: float,
    horizon: float,
    levels: tuple[float, ...],
    model: DensityModel,
) -> dict[str, np.ndarray]:
    grid = make_grid(horizon, step)
    w = _primary(seed, start, count, grid)
    z = w - 0.5 * grid.times[None, :]
    terminal, zg = _density_block(model, seed, start, count, step)
    gbar = zg.gbar_idx
    col = np.arange(grid.n_steps + 1)
    pre = col[None, :] < gbar[:, None]
    out: dict[str, np.ndarray] = {
        "zg": _gather(z, gbar),
        "gbar_t": gbar.astype(np.float64) * step,
        "q": terminal,
    }
    for a in levels:
        b = float(np.log(a))
        zm = np.where(pre, b - 50.0, z) if gbar.any() else z
        crossed = (zm >= b).any(axis=1)
        # A row that reaches b scores 1; only the others need the
        # per-step bridge crossing probabilities.
        d = b - zm[~crossed]
        arr = -2.0 * d[:, :-1] * d[:, 1:] / step
        # Far from b, exp(arr) underflows to 0 and log1p(-0) is -0, so
        # only the near steps are evaluated; the row sums are unchanged.
        near = arr > -800.0
        logs = np.full(arr.shape, -0.0)
        logs[near] = np.log1p(-np.minimum(np.exp(np.minimum(arr[near], 0.0)), 1.0 - 1e-16))
        freq = np.ones(count)
        freq[~crossed] = -np.expm1(np.sum(logs, axis=1))
        out[f"freq|{a:g}"] = freq
    return out


# The level-2 row's budget for grid bias and the finite-span deficit
# together; the deficit is exact, the grid bias gets what it leaves.
_DOOB_LEVEL2_BUDGET = 0.02


def _run_doob(st: RunSettings) -> tuple[list[TargetCheck], list[CurveSeries]]:
    h1 = st.horizon if st.horizon is not None else 8.0
    deficit2 = float(_sup_deficit(np.log(2.0), h1))
    if deficit2 > _DOOB_LEVEL2_BUDGET:
        # below a horizon of about 6.13 the level-2 row could only fail
        raise ConfigurationError(
            f"doob-maximal at horizon {h1:g}: the level-2 finite-span deficit {deficit2:.5f}"
            f" exceeds its budget {_DOOB_LEVEL2_BUDGET:g}"
        )
    curve_levels = (1.25, 1.5, 2.0, 3.0, 4.0)
    feats = _chunked(st, _doob_chunk, chunk_size=64, horizon=h1, levels=curve_levels, model=ConstantOne())
    checks: list[TargetCheck] = []
    ests = []
    for a in curve_levels:
        est = weighted_mean(feats[f"freq|{a:g}"])
        ests.append(est)
        if a in (1.5, 2.0, 3.0):
            deficit = float(_sup_deficit(np.log(a), h1))
            grid_allow = _DOOB_LEVEL2_BUDGET - deficit if a == 2.0 else 0.004
            checks.append(
                mean_check(
                    f"constant-one-sup-exceeds-{a:g}",
                    1.0 / a,
                    feats[f"freq|{a:g}"],
                    grid_allowance=round(grid_allow, 6),
                    truncation_allowance=round(deficit, 6),
                )
            )
    curve = _curve("constant-one-levels", curve_levels, [1.0 / a for a in curve_levels], ests)

    h2 = 2.5 * h1
    feats2 = _chunked(st, _doob_chunk, chunk_size=64, horizon=h2, levels=(2.0,), model=_ERF)
    pprime = ensemble_weights(feats2["q"]).pprime_weight
    freq = weighted_mean(feats2[f"freq|{2.0:g}"], pprime)
    xg = np.exp(feats2["zg"])
    mean_side = weighted_mean(np.minimum(xg / 2.0, 1.0), pprime)
    spans = h2 - feats2["gbar_t"]
    blog = np.log(2.0 / np.minimum(xg, 2.0))
    resid = float(np.mean(_sup_deficit(blog, spans)))
    checks.append(
        agreement_check(
            "erf-sign-two-sided-at-2",
            freq,
            mean_side,
            3.0,
            "frequency {estimate:.5f} vs restart mean {target:.5f}"
            " (combined se {stderr:.5f}, residual horizon deficit " + f"{resid:.5f})",
        )
    )
    return checks, [curve]


# ---------------------------------------------------------------- passage laws

def _passage_chunk(
    start: int, count: int, *, seed: int, step: float, horizon: float, boundary: BoundarySpec
) -> dict[str, np.ndarray]:
    grid = make_grid(horizon, step)
    w = _primary(seed, start, count, grid)
    x = np.abs(w)
    a = occupation_kernel(x, step)
    viol = x > boundary.phi_of(a)
    v = first_hit(viol)
    return {"hit": (v >= 0).astype(np.float64), "aprev": before_hit(a, v), "aterm": a[:, -1]}


def _passage_rows(
    hit: np.ndarray,
    aprev: np.ndarray,
    boundary: BoundarySpec,
    u: float | None,
    name: str,
    weights: np.ndarray | None,
    trunc_allow: float,
    curve_name: str = "crossing-by-level",
) -> tuple[TargetCheck, CurveSeries]:
    """Crossing frequency against the boundary's law, before growth
    level u or over the full span (u None), with its curve over u."""
    hit = hit > 0.0
    if u is None:
        event = hit.astype(np.float64)
        target = boundary.full_crossing_probability()
    else:
        event = (hit & (aprev <= u)).astype(np.float64)
        target = boundary.crossing_probability(u)
    check = mean_check(
        name, target, event, weights, grid_allowance=0.012, truncation_allowance=trunc_allow
    )
    xs = (0.2, 0.4, 0.6, 0.8, 1.0)
    ests = [weighted_mean((hit & (aprev <= g)).astype(np.float64), weights) for g in xs]
    curve = _curve(curve_name, xs, [boundary.crossing_probability(g) for g in xs], ests)
    return check, curve


def _run_passage(
    st: RunSettings, *, boundary: BoundarySpec, u: float | None, trunc: float
) -> tuple[list[TargetCheck], list[CurveSeries]]:
    horizon = st.horizon if st.horizon is not None else 6.0
    feats = _chunked(st, _passage_chunk, horizon=horizon, boundary=boundary)
    label = "crossing-before-growth-1" if u is not None else "crossing-over-full-span"
    check, curve = _passage_rows(feats["hit"], feats["aprev"], boundary, u, label, None, trunc)
    undecided = float(np.mean((feats["hit"] == 0.0) & (feats["aterm"] <= (u if u is not None else boundary_cap(boundary)))))
    check = replace(check, detail=check.detail + f"; undecided fraction {undecided:.4f}")
    return [check], [curve]


_run_passage_eq2 = functools.partial(
    _run_passage, boundary=TableBoundary(((0.0, 1.0), (0.5, 2.0))), u=1.0, trunc=0.008
)
_run_passage_eq3 = functools.partial(
    _run_passage, boundary=TableBoundary(((0.0, 1.0), (1.0, float("inf")))), u=None, trunc=0.004
)
_run_passage_eq4 = functools.partial(_run_passage, boundary=ConstantBoundary(1.0), u=1.0, trunc=0.008)


def boundary_cap(boundary: BoundarySpec) -> float:
    """Largest growth level at which the boundary is still finite."""
    if isinstance(boundary, TableBoundary):
        for s, v in boundary.segments:
            if not np.isfinite(v):
                return s
    return float("inf")


def _s32_chunk(
    start: int, count: int, *, seed: int, step: float, horizon: float, span: float, model: DensityModel
) -> dict[str, np.ndarray]:
    grid = make_grid(horizon, step)
    w = _primary(seed, start, count, grid)

    n6 = grid.index_of(span)
    xc = np.abs(w[:, : n6 + 1])
    ac = occupation_kernel(xc, step)
    vc = first_hit(xc > 1.0)

    terminal, zg = _density_block(model, seed, start, count, step)
    gbar = zg.gbar_idx
    xs = np.abs(w - _gather(w, gbar)[:, None])
    a_sh = occupation_kernel(xs, step, anchors=gbar[:, None])
    col = np.arange(grid.n_steps + 1)
    ve = first_hit((xs > 1.0) & (col[None, :] >= gbar[:, None]))
    return {
        "hit_c": (vc >= 0).astype(np.float64),
        "aprev_c": before_hit(ac, vc),
        "hit_e": (ve >= 0).astype(np.float64),
        "aprev_e": before_hit(a_sh, ve),
        "pprime_raw": terminal,
    }


def _run_s32(st: RunSettings) -> tuple[list[TargetCheck], list[CurveSeries]]:
    span = 6.0
    horizon = st.horizon if st.horizon is not None else span + 1.0
    feats = _chunked(st, _s32_chunk, horizon=horizon, span=span, model=_ERF)
    pprime = ensemble_weights(feats["pprime_raw"]).pprime_weight
    bnd = ConstantBoundary(1.0)
    restarted, curve = _passage_rows(
        feats["hit_e"], feats["aprev_e"], bnd, 1.0, "restarted-crossing-before-growth-1", pprime, 0.008,
        curve_name="restarted-crossing-by-level",
    )
    paired, _ = _passage_rows(feats["hit_c"], feats["aprev_c"], bnd, 1.0, "paired-driver-crossing", None, 0.008)
    ev_e = ((feats["hit_e"] > 0.0) & (feats["aprev_e"] <= 1.0)).astype(np.float64)
    ev_c = ((feats["hit_c"] > 0.0) & (feats["aprev_c"] <= 1.0)).astype(np.float64)
    agreement = agreement_check(
        "common-numbers-agreement",
        weighted_mean(ev_e, pprime),
        weighted_mean(ev_c),
        2.0,
        "restarted {estimate:.5f} vs driver {target:.5f}, combined se {stderr:.5f}",
    )
    return [restarted, paired, agreement], [curve]


# ---------------------------------------------------------------- terminal growth law

def _ainf_chunk(
    start: int, count: int, *, seed: int, step: float, horizon: float, stop_level: float, model: DensityModel
) -> dict[str, np.ndarray]:
    grid = make_grid(horizon, step)
    w = _primary(seed, start, count, grid)
    terminal, zg = _density_block(model, seed, start, count, step)
    gbar = zg.gbar_idx
    xs = np.abs(w - _gather(w, gbar)[:, None])
    col = np.arange(grid.n_steps + 1)
    reach = first_hit((xs >= stop_level) & (col[None, :] >= gbar[:, None]))
    # the clock restarted at the last zero, read where X first reaches the
    # stop level (or at the horizon)
    a = occupation_kernel(xs, step, anchors=gbar[:, None])
    return {
        "aterm": _gather(a, np.where(reach >= 0, reach, grid.n_steps)),
        "reached": (reach >= 0).astype(np.float64),
        "q": terminal,
    }


def _run_ainf(st: RunSettings) -> tuple[list[TargetCheck], list[CurveSeries]]:
    law = GrowthLaw.constant(1.0)
    checks: list[TargetCheck] = []
    curves: list[CurveSeries] = []
    xs = tuple(0.25 * k for k in range(13))
    for model, extra_span in ((ConstantOne(), 0.0), (_ERF, 1.0)):
        horizon = (st.horizon if st.horizon is not None else 6.0) + extra_span
        feats = _chunked(st, _ainf_chunk, horizon=horizon, stop_level=1.0, model=model)
        label = _model_label(model)
        pprime = ensemble_weights(feats["q"]).pprime_weight
        rep = ks_test(feats["aterm"], pprime, law.cdf, extra_allowance=0.03)
        checks.append(_ks_check(f"{label}-terminal-law-ks", rep, 0.03))
        checks.append(
            mean_check(
                f"{label}-survival-at-1",
                float(np.exp(-1.0)),
                (feats["aterm"] > 1.0).astype(np.float64),
                pprime,
                grid_allowance=0.015,
                truncation_allowance=0.005,
            )
        )
        checks.append(
            count_check(
                f"{label}-survival-at-0-exact",
                int(np.count_nonzero(feats["aterm"] <= 0.0)),
                "terminal local time is strictly positive on every path",
            )
        )
        ests = [weighted_mean((feats["aterm"] > g).astype(np.float64), pprime) for g in xs]
        curves.append(_curve(f"{label}-survival", xs, [float(np.exp(-g)) for g in xs], ests))
    return checks, curves


# ---------------------------------------------------------------- levy corollaries

def _levy_chunk(
    start: int, count: int, *, seed: int, step: float, horizon: float, x_low: float | None
) -> dict[str, np.ndarray]:
    grid = make_grid(horizon, step)
    w = _primary(seed, start, count, grid)
    s = np.maximum.accumulate(w, axis=1)
    dd = s - w
    viol = dd > 1.0
    if x_low is not None:
        tx = first_hit(s > x_low)
        col = np.arange(grid.n_steps + 1)
        viol = viol & (col[None, :] >= tx[:, None]) & (tx >= 0)[:, None]
    v = first_hit(viol)
    out = {"has_viol": (v >= 0).astype(np.float64), "sprev": before_hit(s, v)}
    if x_low is not None:
        out["x_unreached"] = (tx < 0).astype(np.float64)
    # terminal weights for every density model off the shared density stream
    sgrid = make_grid(1.0, step)
    incs = increments_matrix(seed, start, count, sgrid.n_steps, step, SUBSTREAM_DENSITY)
    for key, model in (("q_erf", _ERF), ("q_sbm", _SBM)):
        out[key] = density_matrix(model, driver_from_increments(model, incs), sgrid)[:, -1]
    return out


def _hold_values(feats: dict[str, np.ndarray], u: float) -> np.ndarray:
    return ((feats["has_viol"] == 0.0) | (feats["sprev"] > u)).astype(np.float64)


def _run_levy5(st: RunSettings) -> tuple[list[TargetCheck], list[CurveSeries]]:
    horizon = st.horizon if st.horizon is not None else 8.0
    feats = _chunked(st, _levy_chunk, chunk_size=128, horizon=horizon, x_low=None)
    hold = _hold_values(feats, 1.0)
    checks = [
        mean_check(
            "constant-one-hold",
            float(np.exp(-1.0)),
            hold,
            grid_allowance=0.014,
            truncation_allowance=0.006,
        ),
        mean_check(
            "erf-sign-hold",
            _D0_ERF * float(np.exp(-1.0)),
            hold,
            feats["q_erf"],
            grid_allowance=0.014,
            truncation_allowance=0.006,
        ),
        mean_check("q-mean-of-one-constant-one", 1.0, np.ones_like(hold)),
        mean_check("q-mean-of-one-erf-sign", _D0_ERF, np.ones_like(hold), feats["q_erf"]),
        mean_check("q-mean-of-one-stopped-bm", 1.0, np.ones_like(hold), feats["q_sbm"]),
    ]
    xs = (0.2, 0.4, 0.6, 0.8, 1.0)
    plain = [weighted_mean(_hold_values(feats, g)) for g in xs]
    signed = [weighted_mean(_hold_values(feats, g), feats["q_erf"]) for g in xs]
    curves = [
        _curve("constant-one-hold", xs, [float(np.exp(-g)) for g in xs], plain),
        _curve("erf-sign-hold", xs, [_D0_ERF * float(np.exp(-g)) for g in xs], signed),
    ]
    return checks, curves


def _run_levy6(st: RunSettings) -> tuple[list[TargetCheck], list[CurveSeries]]:
    horizon = st.horizon if st.horizon is not None else 12.0
    x_low = 0.05
    feats = _chunked(st, _levy_chunk, chunk_size=128, horizon=horizon, x_low=x_low)
    hold = _hold_values(feats, 1.0)
    factor = float(np.exp(-(1.0 - x_low)))
    unreached = float(np.mean(feats["x_unreached"]))
    # Crossing detection is biased twice here: the running sup is understated
    # between samples and so is the excursion depth, and the window opener
    # fires late for the same reason.  All three push the hold frequency up
    # by an amount that scales like the square root of the step (measured
    # 0.030 at step 1e-3, 0.042 at 2e-3), so the slack follows that scale.
    # The undecided mass at this horizon is a width-1 tube confinement event
    # with probability below 1e-6 and gets no slack of its own.
    slack = 1.2 * math.sqrt(st.step)
    base = mean_check(
        "constant-one-windowed-hold",
        factor,
        hold,
        grid_allowance=slack,
    )
    checks = [
        replace(base, detail=base.detail + f"; lower level unreached on fraction {unreached:.4f}"),
        mean_check(
            "erf-sign-windowed-hold",
            _D0_ERF * factor,
            hold,
            feats["q_erf"],
            grid_allowance=slack,
        ),
    ]
    return checks, []


# ---------------------------------------------------------------- products / scaling

def _product_part(seed: int, start: int, count: int, grid: TimeGrid) -> np.ndarray:
    """Driving part N of the product of two independent drawdowns."""
    w1 = _primary(seed, start, count, grid)
    w2 = cumsum_paths(increments_matrix(seed, start, count, grid.n_steps, grid.step, SUBSTREAM_SECONDARY))
    s1 = np.maximum.accumulate(w1, axis=1)
    s2 = np.maximum.accumulate(w2, axis=1)
    x1, a1 = s1 - w1, s1
    x2, a2 = s2 - w2, s2
    incr = x1[:, :-1] * np.diff(a2, axis=1) + x2[:, :-1] * np.diff(a1, axis=1)
    return x1 * x2 - gathered_prefix(incr)


def _scaled_part(seed: int, start: int, count: int, grid: TimeGrid) -> np.ndarray:
    """Driving part N of the drawdown rescaled by f(a) = 2a."""
    w = _primary(seed, start, count, grid)
    s = np.maximum.accumulate(w, axis=1)
    return 2.0 * s * (s - w) - s * s


def _closure_chunk(
    start: int,
    count: int,
    *,
    seed: int,
    step: float,
    horizon: float,
    checkpoints: tuple[float, ...],
    model: DensityModel,
    driving_part: Callable[[int, int, int, TimeGrid], np.ndarray],
) -> dict[str, np.ndarray]:
    grid = make_grid(horizon, step)
    n = driving_part(seed, start, count, grid)
    cols = np.array([grid.index_of(t) for t in checkpoints])
    terminal, _ = _density_block(model, seed, start, count, step)
    return {"n": n[:, cols], "q": terminal}


def _membership_sample(build, n_paths: int, seed: int, step: float, horizon: float) -> int:
    grid = make_grid(horizon, step)
    bad = 0
    for i in range(n_paths):
        d = build(grid, SeedSpec(master_seed=seed, path_index=i))
        if not verify_membership(d).passed:
            bad += 1
    return bad


def _build_product(grid: TimeGrid, seed: SeedSpec):
    w1, w2 = sample_independent_pair(grid, (0.0, 0.0), seed)
    return product([drawdown(w1), drawdown(w2)])


def _double(a: np.ndarray) -> np.ndarray:
    return 2.0 * a


def _square(a: np.ndarray) -> np.ndarray:
    return a * a


def _build_scaled(grid: TimeGrid, seed: SeedSpec):
    w = sample_bm(grid, 0.0, seed)
    return scaled_by_f(drawdown(w), _double, _square)


def _run_closure(
    st: RunSettings, *, driving_part: Callable, build: Callable, label: str
) -> tuple[list[TargetCheck], list[CurveSeries]]:
    horizon = st.horizon if st.horizon is not None else 1.0
    cps = st.checkpoints if st.checkpoints is not None else (0.25, 0.5, 0.75, 1.0)
    feats = _chunked(st, _closure_chunk, horizon=horizon, checkpoints=cps, model=_SBM, driving_part=driving_part)
    rep = flatness_test(feats["n"].T, feats["q"], cps)
    bad = _membership_sample(build, 40, st.master_seed, st.step, horizon)
    checks = [
        _flatness_check(f"{label}-martingale-part-flat", rep, "q-weighted"),
        count_check(f"{label}-membership-sample", bad, f"40 pathwise {label} decompositions verify"),
    ]
    return checks, []


_run_products = functools.partial(_run_closure, driving_part=_product_part, build=_build_product, label="product")
_run_scaled = functools.partial(_run_closure, driving_part=_scaled_part, build=_build_scaled, label="rescaled")


# ---------------------------------------------------------------- membership suite

_VARIANTS = (
    "drawdown",
    "abs-martingale",
    "pm-combination",
    "lifted",
    "lifted-stopped",
    "product",
    "scaled",
)
_SHIFTED_VARIANTS = ("drawdown", "lifted", "lifted-stopped", "product", "scaled")


def _membership_chunk(
    start: int, count: int, *, seed: int, step: float, horizon: float, model: DensityModel
) -> dict[str, np.ndarray]:
    grid = make_grid(horizon, step)
    fine = make_grid(horizon, step / 2.0)
    stress_tol = 0.6 * float(np.sqrt(2.0 * step))
    out: dict[str, np.ndarray] = {}
    for key in _VARIANTS:
        out[f"fail|{key}"] = np.zeros(count)
        out[f"supratio|{key}"] = np.zeros(count)
    out["shifted_fail"] = np.zeros(count)
    out["corrupt_pass"] = np.zeros(count)
    for rung in ("c", "m", "f"):
        out[f"viol_{rung}"] = np.zeros(count)
        out[f"tot_{rung}"] = np.zeros(count)
    times = grid.times
    for i in range(count):
        spec = SeedSpec(master_seed=seed, path_index=start + i)
        w, w2 = sample_independent_pair(grid, (0.0, 0.0), spec)
        zs = driver_zero_set(model, density_driver_path(model, spec, grid))
        members = {
            "drawdown": drawdown(w),
            "abs-martingale": abs_martingale(w, zs),
            "pm-combination": pm_combination(w, 2.0, 0.5, zs),
            "lifted": lifted_reflected(w, zs),
            "lifted-stopped": lifted_reflected(w, zs, stop_level=1.0),
            "product": product([drawdown(w), drawdown(w2)]),
            "scaled": scaled_by_f(drawdown(w), _double, _square),
        }
        for key, d in members.items():
            rep = verify_membership(d)
            if not rep.passed:
                out[f"fail|{key}"][i] = 1.0
            if rep.support is not None:
                out[f"supratio|{key}"][i] = rep.support.ratio
            for c in rep.checks:
                if c.name == "shifted_classical" and not c.passed and key in _SHIFTED_VARIANTS:
                    out["shifted_fail"][i] += 1.0
        base = members["drawdown"]
        bad = assemble(
            base.x,
            Path(grid=grid, values=base.a.values + 0.5 * times),
            class_tag=base.class_tag,
            zero_set=base.zero_set,
            support_scale=base.support_scale,
        )
        if verify_membership(bad).passed:
            out["corrupt_pass"][i] = 1.0
        # fixed-tolerance support mass on a common-randomness step ladder
        wf = sample_bm(fine, 0.0, spec)
        for rung, factor in (("c", 4), ("m", 2), ("f", 1)):
            g = make_grid(horizon, step / 2.0 * factor)
            d = abs_martingale(Path(grid=g, values=wf.values[::factor]))
            rep = verify_membership(d, support_tolerance=stress_tol)
            out[f"viol_{rung}"][i] = rep.support.violation_mass
            out[f"tot_{rung}"][i] = rep.support.total_mass
    return out


def _run_membership(st: RunSettings) -> tuple[list[TargetCheck], list[CurveSeries]]:
    horizon = st.horizon if st.horizon is not None else 1.0
    feats = _chunked(st, _membership_chunk, horizon=horizon, model=_ERF)
    checks: list[TargetCheck] = []
    for key in _VARIANTS:
        checks.append(
            count_check(
                f"{key}-passes",
                int(feats[f"fail|{key}"].sum()),
                f"{st.n_paths} pathwise checks at default tolerances",
            )
        )
    worst = max(float(np.max(feats[f"supratio|{key}"])) for key in _VARIANTS)
    checks.append(exact_check("support-ratio-at-defaults", worst, tolerance=0.05))
    checks.append(
        count_check(
            "shifted-membership-passes",
            int(feats["shifted_fail"].sum()),
            "shifted triples re-verify as classical members",
        )
    )
    checks.append(
        count_check(
            "corrupted-growth-fails",
            int(feats["corrupt_pass"].sum()),
            "a ramp added to A must break the support condition",
        )
    )
    ratios = {}
    for rung in ("c", "m", "f"):
        tot = float(feats[f"tot_{rung}"].sum())
        ratios[rung] = float(feats[f"viol_{rung}"].sum()) / tot if tot > 0.0 else 0.0
    s = st.step
    checks.append(
        ratio_check(f"stressed-ratio-halves-{2 * s:g}-to-{s:g}", ratios["c"], ratios["m"], 2.0)
    )
    checks.append(
        ratio_check(f"stressed-ratio-halves-{s:g}-to-{s / 2:g}", ratios["m"], ratios["f"], 2.0)
    )
    return checks, []


# ---------------------------------------------------------------- zero geometry

def _geom_chunk(start: int, count: int, *, seed: int, step: float, model: StoppedBM) -> dict[str, np.ndarray]:
    _, zg = _density_block(model, seed, start, count, step)
    gbar = zg.gbar_idx
    col = np.arange(zg.in_h.shape[1])
    after = col[None, :] >= gbar[:, None]
    return {
        "haszero": (gbar > 0).astype(np.float64),
        "gamma_moves": ((zg.gamma_idx != gbar[:, None]) & after).any(axis=1).astype(np.float64),
        "origin_in_h": zg.in_h[:, 0].astype(np.float64),
    }


def _run_geometry(st: RunSettings) -> tuple[list[TargetCheck], list[CurveSeries]]:
    feats = _chunked(st, _geom_chunk, model=_SBM)
    checks = [
        mean_check("last-zero-positive", _P_HIT, feats["haszero"], grid_allowance=0.01),
        count_check(
            "anchor-fixed-after-last-zero",
            int(feats["gamma_moves"].sum()),
            "the restart anchor equals the last zero from the last zero on, every path",
        ),
        count_check("origin-never-a-zero", int(feats["origin_in_h"].sum())),
    ]
    return checks, []


# ---------------------------------------------------------------- registry

_FAST = (20000, 2e-3)
_FULL = (100000, 1e-3)
_LADDER_SCALE = (100, 1e-3)
_H = ("horizon",)
_HC = ("horizon", "checkpoints")


@dataclass(frozen=True)
class ExperimentSpec:
    """One registry row.

    ``reads`` names the run options the runner consumes: ``horizon``,
    ``checkpoints`` and ``policy=extend``.  ``resolve_settings`` rejects
    any other, because an ignored option would still change the config
    hash.  ``min_horizon`` is the smallest horizon override the runner
    can honour: ErfSign zero sets span the model's terminal time 1.0,
    and restart anchors found there index the driver's own grid.
    """

    name: str
    anchor: str
    runner: Callable[[RunSettings], tuple[list[TargetCheck], list[CurveSeries]]]
    reads: tuple[str, ...]
    fast: tuple[int, float] = _FAST
    full: tuple[int, float] = _FULL
    min_horizon: float = 0.0


# name, paper anchor, runner, the options it reads, then the fast and full scales (paths, step)
# and the smallest horizon override where they differ from the defaults (doob's ErfSign pass
# runs at 2.5x)
_TABLE = (
    ("t1-characterization", "martingale characterization of the base zero-set class", _run_t1, _HC),
    ("r1-ui-martingale", "uniformly integrable restart martingale for bounded class members", _run_r1, _HC + ("policy=extend",), _FAST, _FULL, 1.0),
    ("sigma-s-characterization", "martingale characterization of the restarted class", _run_sigma_s, _HC, _FAST, _FULL, 1.0),
    ("rho-algebra", "linearity, positivity, and product rules of the restart operator", _run_rho, _H, (1000, 2e-3), (1000, 2e-3)),
    ("q-bracket", "quadratic bracket of the restarted driver", _run_qbracket, _HC, _FAST, _FULL, 1.0),
    ("tanaka-abs", "signed local-time identity for the absolute value", _run_tanaka_abs, _H, _LADDER_SCALE, _LADDER_SCALE),
    ("tanaka-plus", "signed local-time identity for the positive part", _run_tanaka_plus, _H, _LADDER_SCALE, _LADDER_SCALE),
    ("tanaka-minus", "signed local-time identity for the negative part", _run_tanaka_minus, _H, _LADDER_SCALE, _LADDER_SCALE),
    ("ito", "second-order expansion along restarted paths", _run_ito, _H, _LADDER_SCALE, _LADDER_SCALE),
    ("doob-maximal", "maximal identity for the supremum after the last zero", _run_doob, _H, _FAST, _FULL, 0.4),
    ("passage-eq2", "boundary-crossing law stopped at a growth level, stepped boundary", _run_passage_eq2, _H),
    ("passage-eq3", "boundary-crossing law over the full span, finite total integral", _run_passage_eq3, _H),
    ("passage-eq4", "probability-case crossing law with a unit boundary", _run_passage_eq4, _H),
    ("passage-s32", "signed crossing law for the restarted reflected driver", _run_s32, _H),
    ("a-infinity", "terminal growth law of the stopped reflected construction", _run_ainf, _H),
    ("levy-eq5", "drawdown confinement law under the signed weight", _run_levy5, _H),
    ("levy-eq6", "drawdown confinement law between supremum levels", _run_levy6, _H),
    ("products", "closure of the zero-set class under products", _run_products, _HC),
    ("scaled-f", "closure of the zero-set class under growth rescaling", _run_scaled, _HC),
    ("membership", "pathwise membership checks for every construction", _run_membership, _H, (300, 1e-3), (300, 1e-3)),
    # the grid is the density model's own span, so no horizon applies
    ("zero-geometry", "geometry of the terminal-density zero set", _run_geometry, (), (20000, 1e-3), (100000, 2.5e-4)),
)

EXPERIMENTS: dict[str, ExperimentSpec] = {row[0]: ExperimentSpec(*row) for row in _TABLE}


def experiment_names() -> list[str]:
    return sorted(EXPERIMENTS)


def paper_anchor(name: str) -> str:
    return EXPERIMENTS[name].anchor


def resolve_settings(cfg: ExperimentConfig, suite: str | None = None) -> RunSettings:
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigurationError(f"unknown experiment {cfg.experiment!r}")
    if suite not in (None, "fast", "full"):
        raise ConfigurationError(f"unknown suite {suite!r}")
    spec = EXPERIMENTS[cfg.experiment]
    scale = spec.full if suite == "full" else spec.fast
    n_paths = cfg.n_paths if cfg.n_paths is not None else scale[0]
    step = cfg.step if cfg.step is not None else scale[1]
    if n_paths <= 0:
        raise ConfigurationError("n_paths must be positive")
    if step <= 0.0:
        raise ConfigurationError("step must be positive")
    if cfg.horizon is not None and cfg.horizon <= 0.0:
        raise ConfigurationError("horizon must be positive")
    if cfg.horizon is not None and cfg.horizon < spec.min_horizon:
        raise ConfigurationError(f"{cfg.experiment} needs a horizon of at least {spec.min_horizon:g}")
    if cfg.policy not in ("drop", "extend"):
        raise ConfigurationError(f"policy must be drop or extend, not {cfg.policy!r}")
    requested = {
        "horizon": cfg.horizon is not None,
        "checkpoints": cfg.checkpoints is not None,
        "policy=extend": cfg.policy == "extend",
    }
    ignored = [option for option, given in requested.items() if given and option not in spec.reads]
    if ignored:
        reads = ", ".join(spec.reads) or "no option"
        raise ConfigurationError(f"{cfg.experiment} ignores {', '.join(ignored)}; it reads {reads}")
    if cfg.workers < 1:
        raise ConfigurationError("workers must be at least 1")
    return RunSettings(
        name=cfg.experiment,
        n_paths=int(n_paths),
        step=float(step),
        horizon=cfg.horizon,
        master_seed=int(cfg.master_seed),
        checkpoints=cfg.checkpoints,
        policy=cfg.policy,
        workers=int(cfg.workers),
    )


def run_experiment(cfg: ExperimentConfig, suite: str | None = None) -> ExperimentRun:
    st = resolve_settings(cfg, suite)
    spec = EXPERIMENTS[st.name]
    started = perf_counter()
    checks, curves = spec.runner(st)
    seconds = perf_counter() - started
    return ExperimentRun(
        name=st.name,
        paper_anchor=spec.anchor,
        settings=st,
        checks=tuple(checks),
        curves=tuple(curves),
        seconds=seconds,
    )


def run_suite(suite: str, master_seed: int = DEFAULT_SEED, workers: int = 1) -> list[ExperimentRun]:
    runs = []
    for name in experiment_names():
        cfg = ExperimentConfig(experiment=name, master_seed=master_seed, workers=workers)
        runs.append(run_experiment(cfg, suite))
    return runs
