"""Registry of Monte Carlo experiments behind the command line tool.

Each experiment simulates an ensemble in chunks of a fixed number of
paths, 256 unless the chunk function's row in ``_CHUNK_ROWS`` sets
fewer, to bound memory.  A chunk builds every
grid that can be longer than the one it draws first before that draw,
so a run over ``make_grid``'s row byte budget fails before anything
is simulated.  The run reduces the ensemble to named checks with
explicit statistical and grid allowances, and optionally emits
survival-curve points; no check carries a finite-horizon allowance,
because every estimate past a finite horizon is completed exactly.
Reductions run on the concatenated arrays in path-index order, so for
a fixed seed the resulting report bytes do not depend on the worker
count.

Experiments that read the same paths share one simulation.  A path's
increments depend only on (seed, path index, substream), so a longer
draw extends a shorter one exactly, and one chunk function computes
every member's features off one draw:

- the laws family, passage-eq2/3/4, passage-s32, a-infinity and
  levy-eq5/6: three (X, A) pairs, |W| with its local time, the driver
  restarted at the ErfSign last zero with its anchored local time, and
  the drawdown with the running maximum, off one primary draw to the
  horizon and one density draw per path.  A path that has not crossed
  its boundary by the horizon is completed by the crossing law from
  its last (X, A), so every horizon from the model span on estimates
  the all-time law;
- the ladder family, tanaka-abs/plus/minus and ito: every residual
  form on every ladder rung, off one draw on the finest grid.

A member's family call is its horizon, and at the registry horizons
every member's call is the same.  The first member to run simulates
the family and its features are kept, read-only, keyed by the whole
call (seed, step, path count and horizon).  Each other member that
makes the same call reads them once; a member that runs again, or
whose horizon override changes the call, simulates afresh.

doob-maximal is no family, but its two passes read one draw too.

Every chunk but the ladder's reads its density weights, ``q_erf`` and
``q_sbm``, and its zero set H off one draw on the model span, through
``_density_block``.

A run request is one ``ExperimentConfig``.  ``resolve_settings``
checks it and fills its scales, horizon and checkpoints from the
registry row; the runners read that resolved request, and its
fields, all but ``workers``, are the report rows' config hash.

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
from dataclasses import asdict, dataclass, fields, replace
from time import perf_counter

import numpy as np

from .balayage import (
    PathFunctional,
    SegmentLayout,
    constant,
    gathered_prefix,
    integral_against,
    ito_residual,
    linear_combination,
    net_change,
    occupation_kernel,
    product_of,
    quadratic_variation,
    running_sup,
    tanaka_residual,
)
from .density import (
    ErfSign,
    StoppedBM,
    ZeroSetInfo,
    driver_matrix,
    driver_zero_set,
    empty_zero_set,
    ensemble_weights,
    ndtr,
    terminal_density,
)
from .ensemble import CHUNK_SIZE, run_chunked
from .errors import ConfigurationError
from .estimates import (
    TableBoundary,
    TargetCheck,
    agreement_check,
    count_check,
    exact_check,
    exponential_cdf,
    flatness_check,
    ks_check,
    mean_check,
    ratio_check,
    weighted_mean,
)
from .paths import (
    SUBSTREAM_PRIMARY,
    SUBSTREAM_SECONDARY,
    Path,
    TimeGrid,
    before_hit,
    check_key,
    cumsum_paths,
    first_hit,
    gather,
    increments_matrix,
    make_grid,
)
from .sigma_classes import (
    Decomposition,
    abs_martingale,
    assemble,
    characterization,
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

# The span of both density models: ErfSign's terminal time and
# StoppedBM's stop time.  Restart anchors fall inside it.
_MODEL_SPAN = 1.0
_ERF = ErfSign(offset=1.0, terminal_time=_MODEL_SPAN)
_SBM = StoppedBM(start=1.0, stop_time=_MODEL_SPAN)
# 2 Phi(1) - 1 and 2 (1 - Phi(1)), as erf and erfc of 1/sqrt(2); math.sqrt(0.5)
# is one ulp away and would move these constants
_D0_ERF = math.erf(1.0 / math.sqrt(2.0))
_P_HIT = math.erfc(1.0 / math.sqrt(2.0))


# ---------------------------------------------------------------- config

@dataclass(frozen=True)
class ExperimentConfig:
    """One run request.  None fields take the registry row's defaults (the
    scales at the suite's); ``resolve_settings`` returns it with them filled."""

    experiment: str
    n_paths: int | None = None
    step: float | None = None
    horizon: float | None = None
    master_seed: int = DEFAULT_SEED
    checkpoints: tuple[float, ...] | None = None
    workers: int = 1


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
    settings: ExperimentConfig
    checks: tuple[TargetCheck, ...]
    curves: tuple[CurveSeries, ...]
    seconds: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def config_digest(settings: ExperimentConfig) -> str:
    """Stable hash of every field of the resolved request but ``workers``.

    The worker count is deliberately excluded: results are bitwise
    identical across worker counts and the reports must be too.  The
    seed is hashed under the key ``seed``.
    """
    payload = asdict(settings)
    del payload["workers"]
    payload["seed"] = payload.pop("master_seed")
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


# the ReportRow columns a check fills under its own field names
_CHECK_COLUMNS = tuple(f.name for f in fields(ReportRow) if f.name in {g.name for g in fields(TargetCheck)})


def report_rows(run: ExperimentRun) -> list[ReportRow]:
    digest = config_digest(run.settings)
    return [
        ReportRow(
            experiment=run.name,
            paper_anchor=run.paper_anchor,
            check=c.name,
            tolerance=c.tolerance,
            seed=run.settings.master_seed,
            config_hash=digest,
            **{col: getattr(c, col) for col in _CHECK_COLUMNS},
        )
        for c in run.checks
    ]


# ---------------------------------------------------------------- helpers

# The last call of each family chunk: (key, features, the experiments
# that have read them).
_KEPT: dict[Callable, tuple[tuple, dict[str, np.ndarray], set[str]]] = {}


def _chunked(st: ExperimentConfig, chunk: Callable[..., dict[str, np.ndarray]], **params) -> dict[str, np.ndarray]:
    """``run_chunked`` over chunk(start, count, seed=..., step=..., **params),
    in chunks of the chunk function's ``_CHUNK_ROWS`` (else ``CHUNK_SIZE``).

    A family chunk's features are kept, read-only, and handed once to
    each other experiment that makes the identical call.
    """
    fn = functools.partial(chunk, seed=st.master_seed, step=st.step, **params)
    rows = _CHUNK_ROWS.get(chunk, CHUNK_SIZE)
    if chunk not in _FAMILY_CHUNKS:
        return run_chunked(st.n_paths, fn, chunk_size=rows, workers=st.workers)
    key = (st.master_seed, st.step, st.n_paths, tuple(sorted(params.items())))
    kept = _KEPT.get(chunk)
    if kept is not None and kept[0] == key and st.experiment not in kept[2]:
        kept[2].add(st.experiment)
        return dict(kept[1])
    feats = run_chunked(st.n_paths, fn, chunk_size=rows, workers=st.workers)
    for values in feats.values():
        values.flags.writeable = False
    _KEPT[chunk] = (key, feats, {st.experiment})
    return dict(feats)


def _primary(seed: int, start: int, count: int, grid: TimeGrid, substream: int = SUBSTREAM_PRIMARY) -> np.ndarray:
    """Brownian rows from 0 on a substream, the primary one by default."""
    incs = increments_matrix(seed, start, count, grid.n_steps, grid.step, substream)
    return cumsum_paths(incs)


def _density_block(seed: int, start: int, count: int, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray, ZeroSetInfo]:
    """ErfSign's and StoppedBM's terminal values and their one zero set H
    off one density draw on the model span: D = 2 Phi((W + 1)/sqrt(1 - t)) - 1
    and D = 1 + W read one driver W and vanish where it reaches -1.  H
    comes on ``grid``, of the span's step."""
    sgrid = make_grid(_MODEL_SPAN, grid.step)
    driver = driver_matrix(_ERF, seed, start, count, sgrid)
    q_erf = terminal_density(_ERF, driver, sgrid)
    # StoppedBM's driver is ErfSign's plus its start, added after the sum,
    # so its terminal value is ErfSign's last column plus it
    q_sbm = driver[:, -1] + _SBM.start
    return q_erf, q_sbm, _span_zero_set(driver, grid)


def _span_zero_set(driver: np.ndarray, grid: TimeGrid) -> ZeroSetInfo:
    """H of ErfSign's driver rows on the model span at ``grid``'s step, on
    ``grid``: padded past the span, where neither model has zeros, or cut short."""
    in_h = driver_zero_set(_ERF, Path(grid=make_grid(_MODEL_SPAN, grid.step), values=driver)).in_h
    pad = grid.n_steps + 1 - in_h.shape[1]
    in_h = np.pad(in_h, ((0, 0), (0, pad))) if pad > 0 else in_h[:, : grid.n_steps + 1]
    return ZeroSetInfo(grid=grid, in_h=in_h)


def _rung_grids(horizon: float, step: float, factors: tuple[float, ...], *times: float) -> dict[float, TimeGrid]:
    """Each rung's grid to ``horizon`` at the step times its factor, holding
    ``times`` too; refused before any draw, naming the step and the factor."""
    grids = {}
    for factor in factors:
        try:
            grids[factor] = make_grid(horizon, step * factor)
            for t in times:
                grids[factor].index_of(t)
        except ConfigurationError as exc:
            raise ConfigurationError(f"the {factor:g}x rung of step {step:g}: {exc}") from None
    return grids


def _grid_steps(times: tuple[float, ...], horizon: float, step: float) -> tuple[int, ...]:
    """Grid steps of checkpoints or restart offsets, checked before any
    simulation: each must be a time of the simulated grid, so none is
    negative, off the grid, or past the horizon, and no two distinct
    times round to one point (where a flatness test would compare a
    column with itself)."""
    grid = make_grid(horizon, step)
    steps = tuple(grid.index_of(t) for t in times)
    if len(set(steps)) < len(set(times)):
        raise ConfigurationError(f"times {list(times)} name fewer grid points than distinct times at step {step:g}")
    return steps


def _restart_steps(offsets: tuple[float, ...], horizon: float, step: float) -> tuple[int, ...]:
    """Grid steps of restart offsets, checked before any simulation.
    Offsets count from a last zero, which comes by the model span, so
    every path's windows fit on the grid exactly when the steps past
    the largest offset still cover the span.  An offset past the
    horizon is refused for the same reason, before it is looked up on
    the grid."""
    if max(offsets) <= horizon:
        steps = _grid_steps(offsets, horizon, step)
        if make_grid(horizon, step).n_steps - max(steps) >= make_grid(_MODEL_SPAN, step).n_steps:
            return steps
    raise ConfigurationError(
        f"restart offsets up to {max(offsets):g} need a horizon of at least {_MODEL_SPAN + max(offsets):g},"
        f" not {horizon:g}"
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


# ---------------------------------------------------------------- t1 suite

# The bounded f of the characterization, by name, each with its
# primitive F as (F, f); "below-1"'s f is the boolean mask 1{A < 1}.
_F_PAIRS = {
    "one": (lambda a: a, np.ones_like),
    "below-1": (lambda a: np.minimum(a, 1.0), lambda a: a < 1.0),
    "cap-1": (lambda a: np.where(a < 1.0, 0.5 * a * a, a - 0.5), lambda a: np.minimum(a, 1.0)),
}


# t1's negative control: the drawdown of W plus this drift is no member
_T1_DRIFT = 0.3


def _t1_chunk(
    start: int, count: int, *, seed: int, step: float, horizon: float, cols: tuple[int, ...]
) -> dict[str, np.ndarray]:
    """t1's features off one draw: F(A) - f(A) X at the checkpoints for
    the drawdown and the reflected path, StoppedBM's terminal weights,
    and the drifted control's drawdown feature for f = 1."""
    grid = make_grid(horizon, step)
    _, q_sbm, _ = _density_block(seed, start, count, grid)
    w = _primary(seed, start, count, grid)
    wd = w + _T1_DRIFT * grid.times[None, :]
    sd = np.maximum.accumulate(wd, axis=1)
    out: dict[str, np.ndarray] = {
        "q_sbm": q_sbm,
        "control": characterization(*_F_PAIRS["one"], sd[:, cols], (sd - wd)[:, cols]),
    }
    del wd, sd
    s = np.maximum.accumulate(w, axis=1)
    variants = {
        "drawdown": (s - w, s),
        "abs": (np.abs(w), occupation_kernel(w, step)),
    }
    for cons, (x, a) in variants.items():
        xc = x[:, cols]
        ac = a[:, cols]
        for kind, pair in _F_PAIRS.items():
            out[f"{cons}|{kind}"] = characterization(*pair, ac, xc)
    return out


def _run_t1(st: ExperimentConfig) -> tuple[list[TargetCheck], list[CurveSeries]]:
    cps = st.checkpoints
    feats = _chunked(st, _t1_chunk, horizon=st.horizon, cols=_grid_steps(cps, st.horizon, st.step))
    checks: list[TargetCheck] = []
    for label, q in (("constant-one", np.ones(st.n_paths)), ("stopped-bm", feats["q_sbm"])):
        for cons in ("drawdown", "abs"):
            for kind in _F_PAIRS:
                checks.append(flatness_check(f"{label}-{cons}-f-{kind}", feats[f"{cons}|{kind}"].T, q, cps, "q-weighted"))
    n_ctrl = min(st.n_paths, 20000)
    # the drifted control is its flatness check with the verdict inverted
    c = flatness_check("drifted-control-fails", feats["control"][:n_ctrl].T, np.ones(n_ctrl), cps, "unit-weighted")
    detail = f"drifted control must fail flatness: z = {c.z:.3f} vs {c.stat_tolerance}"
    checks.append(replace(c, kind="control", passed=not c.passed, detail=detail))
    return checks, []


# ---------------------------------------------------------------- r1 restart martingale

def _r1_chunk(
    start: int, count: int, *, seed: int, step: float, horizon: float, offset_steps: tuple[int, ...]
) -> dict[str, np.ndarray]:
    grid = make_grid(horizon, step)
    q_erf, _, zs = _density_block(seed, start, count, grid)
    w = _primary(seed, start, count, grid)
    t = grid.times
    # U_t = P(W_T < 1/2 | W_t) with T one time unit past the horizon
    u = ndtr((0.5 - w) / np.sqrt(horizon + 1.0 - t)[None, :])
    gbar = zs.gbar_index
    ug = gather(u, gbar)
    vals = np.stack([gather(u, gbar + d) - ug for d in offset_steps], axis=1)
    bound = max(float(np.max(u - 1.0)), float(np.max(-u)), 0.0)
    return {"v": vals, "bound": np.full(count, bound), "q_erf": q_erf}


def _run_r1(st: ExperimentConfig) -> tuple[list[TargetCheck], list[CurveSeries]]:
    steps = _restart_steps(st.checkpoints, st.horizon, st.step)
    feats = _chunked(st, _r1_chunk, horizon=st.horizon, offset_steps=steps)
    checks = [
        flatness_check("restart-increments-flat", feats["v"].T, ensemble_weights(feats["q_erf"]), st.checkpoints, "P'-weighted"),
        exact_check("bounded-in-unit-interval", float(np.max(feats["bound"]))),
    ]
    return checks, []


# ---------------------------------------------------------------- sigma-s characterization

def _sigs_members(start: int, count: int, *, seed: int, step: float, horizon: float) -> tuple[Decomposition, np.ndarray]:
    """The restarted reflected driver X and its kernel clock A, one row
    per path (``lifted_reflected``), and ErfSign's terminal values."""
    grid = make_grid(horizon, step)
    q_erf, _, zs = _density_block(seed, start, count, grid)
    return lifted_reflected(Path(grid=grid, values=_primary(seed, start, count, grid)), zs), q_erf


def _sigs_chunk(start: int, count: int, *, cols: tuple[int, ...], **params) -> dict[str, np.ndarray]:
    d, q_erf = _sigs_members(start, count, **params)
    x, a, gbar = d.x.values, d.a.values, d.zero_set.gbar_index
    xc, ac = x[:, cols], a[:, cols]
    out: dict[str, np.ndarray] = {"q_erf": q_erf}
    for kind, pair in _F_PAIRS.items():
        out[kind] = characterization(*pair, ac, xc)
    out["null_mag"] = np.abs(gather(x, gbar)) + np.abs(gather(a, gbar))
    return out


def _run_sigma_s(st: ExperimentConfig) -> tuple[list[TargetCheck], list[CurveSeries]]:
    feats = _chunked(st, _sigs_chunk, horizon=st.horizon, cols=_grid_steps(st.checkpoints, st.horizon, st.step))
    checks = [
        flatness_check(f"restarted-reflected-f-{kind}", feats[kind].T, feats["q_erf"], st.checkpoints, "q-weighted")
        for kind in _F_PAIRS
    ]
    checks.append(exact_check("null-at-last-zero", float(np.max(feats["null_mag"]))))
    return checks, []


# ---------------------------------------------------------------- rho algebra

def _rho_pairs() -> tuple[tuple[PathFunctional, PathFunctional, bool], ...]:
    """The restart operator's pairs, each with whether its second is nonnegative."""
    return (
        (running_sup, quadratic_variation, True),
        (net_change, integral_against(lambda values, step: values), False),
        (constant(2.0), functools.partial(occupation_kernel, level=0.0), True),
    )


def _rho_chunk(start: int, count: int, *, seed: int, step: float, horizon: float) -> dict[str, np.ndarray]:
    grid = make_grid(horizon, step)
    n = grid.n_steps
    _, _, zs = _density_block(seed, start, count, grid)
    w = _primary(seed, start, count, grid)
    g = zs.gbar_index
    layout = SegmentLayout(w, zs.in_h)
    # each row from its last zero on (the shifted path), and the restart
    # values over the same columns; entries past the row end repeat it
    past = np.minimum(g[:, None] + np.arange(n + 1), n)
    on_shift = np.arange(1, n + 1) <= n - g[:, None]
    shifted = np.take_along_axis(w, past, axis=1)
    lin_bad = np.zeros(count)
    pos_bad = np.zeros(count)
    prod_bad = np.zeros(count)
    defn_bad = np.zeros(count)
    for v1, v2, nonnegative in _rho_pairs():
        u1 = layout.restart(v1, step)
        u2 = layout.restart(v2, step)
        if nonnegative:
            pos_bad += np.min(u2, axis=1) < 0.0
        combo = layout.restart(linear_combination((2.0, -1.0), (v1, v2)), step)
        lin_bad += np.any(combo != 2.0 * u1 - u2, axis=1)
        prod = layout.restart(product_of((v1, v2)), step)
        prod_bad += np.any(prod != u1 * u2, axis=1)
        # entry for entry past the restart point; at the point itself
        # the lift books 0 whenever the point is a detected zero
        direct = v1(shifted, step)
        u1_tail = np.take_along_axis(u1, past, axis=1)
        tail_bad = np.any((u1_tail[:, 1:] != direct[:, 1:]) & on_shift, axis=1)
        head_bad = u1_tail[:, 0] != np.where(g > 0, 0.0, direct[:, 0])
        defn_bad += tail_bad | head_bad
    return {"lin": lin_bad, "pos": pos_bad, "prod": prod_bad, "defn": defn_bad}


def _run_rho(st: ExperimentConfig) -> tuple[list[TargetCheck], list[CurveSeries]]:
    if st.horizon <= _MODEL_SPAN:  # a last zero at the grid end would leave no shifted path
        raise ConfigurationError(f"rho-algebra needs a horizon past the model span {_MODEL_SPAN:g}")
    feats = _chunked(st, _rho_chunk, horizon=st.horizon)
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
    start: int, count: int, *, seed: int, step: float, horizon: float, offset_steps: tuple[int, ...]
) -> dict[str, np.ndarray]:
    grid = make_grid(horizon, step)
    q_erf, _, zs = _density_block(seed, start, count, grid)
    w = _primary(seed, start, count, grid)
    gbar = zs.gbar_index
    # q_bracket from the last zero on, gathered at each row's one anchor
    # instead of every column's: test_qbracket_chunk_matches_per_path_bracket
    # pins it to q_bracket bit for bit
    bracket = gathered_prefix(np.diff(w, axis=1) ** 2, gbar[:, None])
    wg = gather(w, gbar)
    vals = np.empty((count, len(offset_steps)))
    brack_min = np.full(count, np.inf)
    for k, d in enumerate(offset_steps):
        cols = gbar + d
        beta = gather(w, cols) - wg
        brack = gather(bracket, cols)
        brack_min = np.minimum(brack_min, brack)
        vals[:, k] = beta * beta - brack
    return {"v": vals, "brack_min": brack_min, "q_erf": q_erf}


def _run_qbracket(st: ExperimentConfig) -> tuple[list[TargetCheck], list[CurveSeries]]:
    steps = _restart_steps(st.checkpoints, st.horizon, st.step)
    feats = _chunked(st, _qbracket_chunk, horizon=st.horizon, offset_steps=steps)
    worst = float(np.min(feats["brack_min"]))
    checks = [
        flatness_check("squared-restart-minus-bracket-flat", feats["v"].T, feats["q_erf"], st.checkpoints, "q-weighted"),
        exact_check("bracket-increments-nonnegative", max(0.0, -worst)),
    ]
    return checks, []


# ---------------------------------------------------------------- tanaka / ito ladders

_LADDER = (4, 2, 1)


_ITO_FORMS = {
    "linear": (lambda x: x.copy(), lambda x: np.ones_like(x), lambda x: np.zeros_like(x)),
    "square": (lambda x: x * x, lambda x: 2.0 * x, lambda x: np.full_like(x, 2.0)),
    "cosine": (np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)),
}


_LADDER_FORMS = ("abs", "plus", "minus") + tuple(_ITO_FORMS)
# the forms whose left-point expansion is exact: their residual is 0 to rounding
_EXACT_FORMS = ("linear", "square")
_ROUNDING = 1e-12  # a residual, or a gap between two, below this is exact


def _residual(x: Path, zs: ZeroSetInfo, form: str) -> np.ndarray:
    """Ito residual rows for the forms of ``_ITO_FORMS``, Tanaka residual
    rows at level 0 for abs, plus and minus."""
    if form in _ITO_FORMS:
        return ito_residual(*_ITO_FORMS[form], x, zs).values
    return tanaka_residual(x, 0.0, zs, form).residual.values


def _ladder_chunk(start: int, count: int, *, seed: int, step: float, horizon: float) -> dict[str, np.ndarray]:
    """Sup residuals of every form on every ladder rung: the fine rows, and
    the density driver on the span, subsampled onto each rung's grid: a
    coarse rung's H is no subsample of the fine H, so the ladder draws
    its own driver.  On the fine rung, also the largest gaps of the plus
    and minus residuals from the abs one: all three estimate one local time."""
    grids = _rung_grids(horizon, step, _LADDER, _MODEL_SPAN)
    driver = driver_matrix(_ERF, seed, start, count, make_grid(_MODEL_SPAN, step))
    w = _primary(seed, start, count, grids[1])
    out: dict[str, np.ndarray] = {}
    for factor, grid in grids.items():
        zs = _span_zero_set(driver[:, ::factor], grid)
        values = w[:, ::factor]
        # signed restarted driver; level 0 is crossed transversally, which
        # is what the local-time identities are about
        x = Path(grid=grid, values=values - np.take_along_axis(values, zs.gamma_index, axis=1))
        res = {form: _residual(x, zs, form) for form in _LADDER_FORMS}
        for form, r in res.items():
            out[f"sup{factor}|{form}"] = np.max(np.abs(r), axis=1)
        if factor == 1:
            for form in ("plus", "minus"):
                out[f"gap|{form}"] = np.max(np.abs(res[form] - res["abs"]), axis=1)
    return out


def _ladder_rows(name: str, form: str, feats: dict[str, np.ndarray], st: ExperimentConfig) -> list[TargetCheck]:
    med = {f: float(np.median(feats[f"sup{f}|{form}"])) for f in _LADDER}
    s = st.step
    return [
        ratio_check(f"{name}-halving-{4 * s:g}-to-{2 * s:g}", med[4], med[2], 1.2),
        ratio_check(f"{name}-halving-{2 * s:g}-to-{s:g}", med[2], med[1], 1.2),
    ]


def _constant_path_residual(st: ExperimentConfig, form: str) -> float:
    grid = make_grid(1.0, st.step)
    flat = Path(grid=grid, values=np.full(grid.n_steps + 1, 0.5))
    return float(np.max(np.abs(_residual(flat, empty_zero_set(flat), form))))


def _run_tanaka(st: ExperimentConfig, *, form: str) -> tuple[list[TargetCheck], list[CurveSeries]]:
    feats = _chunked(st, _ladder_chunk, horizon=st.horizon)
    if form == "abs":
        checks = _ladder_rows("abs-residual", form, feats, st)
    else:
        # the abs residual's halving is stated once; plus and minus state that they are it
        checks = [exact_check(f"{form}-residual-equals-abs", float(np.max(feats[f"gap|{form}"])), _ROUNDING)]
    checks.append(exact_check("constant-path-residual", _constant_path_residual(st, form)))
    return checks, []


_run_tanaka_abs = functools.partial(_run_tanaka, form="abs")
_run_tanaka_plus = functools.partial(_run_tanaka, form="plus")
_run_tanaka_minus = functools.partial(_run_tanaka, form="minus")


def _run_ito(st: ExperimentConfig) -> tuple[list[TargetCheck], list[CurveSeries]]:
    checks: list[TargetCheck] = []
    feats = _chunked(st, _ladder_chunk, horizon=st.horizon)
    for form in _ITO_FORMS:
        if form in _EXACT_FORMS:
            checks.append(exact_check(f"{form}-residual-exact", float(np.max(feats[f"sup1|{form}"])), _ROUNDING))
        else:
            checks.extend(_ladder_rows(form, form, feats, st))
        checks.append(exact_check(f"{form}-constant-path-residual", _constant_path_residual(st, form)))
    return checks, []


# ---------------------------------------------------------------- doob maximal

def _crossing_freq(z: np.ndarray, b: float, step: float) -> np.ndarray:
    """Per-row probability that Z = W - t/2 ever reaches b, given its
    grid values: bridged between grid points, and past the last one by
    the all-time law P(sup_{s>=h} Z_s >= b | Z_h) = e^{-(b - Z_h)+}."""
    crossed = (z >= b).any(axis=1)
    # A row that reaches b scores 1; only the others need the
    # per-step bridge crossing probabilities.
    d = b - z[~crossed]
    arr = -2.0 * d[:, :-1] * d[:, 1:] / step
    # Far from b, exp(arr) underflows to 0 and log1p(-0) is -0, so
    # only the near steps are evaluated; the row sums are unchanged.
    near = arr > -800.0
    logs = np.full(arr.shape, -0.0)
    logs[near] = np.log1p(-np.minimum(np.exp(np.minimum(arr[near], 0.0)), 1.0 - 1e-16))
    freq = np.ones(z.shape[0])
    # no crossing on the grid, then none past its end, where d > 0
    freq[~crossed] = -np.expm1(np.sum(logs, axis=1) + np.log(-np.expm1(-d[:, -1])))
    return freq


# doob-maximal's curve levels
_DOOB_LEVELS = (1.25, 1.5, 2.0, 3.0, 4.0)


def _doob_chunk(start: int, count: int, *, seed: int, step: float, horizon: float) -> dict[str, np.ndarray]:
    """Both doob-maximal passes off one primary draw of Z = W - t/2 to
    ``horizon``: density one at each curve level, and ErfSign after its
    last zero at level 2."""
    grid = make_grid(horizon, step)
    q_erf, _, zs = _density_block(seed, start, count, grid)
    z = _primary(seed, start, count, grid)
    z -= 0.5 * grid.times[None, :]
    # density one has no zeros: the whole path is after the last zero
    out = {f"freq|{a:g}": _crossing_freq(z, float(np.log(a)), step) for a in _DOOB_LEVELS}

    gbar = zs.gbar_index
    b = float(np.log(2.0))
    pre = np.arange(grid.n_steps + 1)[None, :] < gbar[:, None]
    out["erf|freq|2"] = _crossing_freq(np.where(pre, b - 50.0, z), b, step)
    return out | {"zg": gather(z, gbar), "q_erf": q_erf}


def _run_doob(st: ExperimentConfig) -> tuple[list[TargetCheck], list[CurveSeries]]:
    feats = _chunked(st, _doob_chunk, horizon=st.horizon)
    checks: list[TargetCheck] = []
    ests = []
    for a in _DOOB_LEVELS:
        est = weighted_mean(feats[f"freq|{a:g}"])
        ests.append(est)
        if a in (1.5, 2.0, 3.0):
            checks.append(mean_check(f"constant-one-sup-exceeds-{a:g}", 1.0 / a, feats[f"freq|{a:g}"]))
    curve = _curve("constant-one-levels", _DOOB_LEVELS, [1.0 / a for a in _DOOB_LEVELS], ests)

    pprime = ensemble_weights(feats["q_erf"])
    freq = weighted_mean(feats["erf|freq|2"], pprime)
    mean_side = weighted_mean(np.minimum(np.exp(feats["zg"]) / 2.0, 1.0), pprime)
    checks.append(
        agreement_check(
            "erf-sign-two-sided-at-2",
            freq,
            mean_side,
            3.0,
            "frequency {estimate:.5f} vs restart mean {target:.5f} (combined se {stderr:.5f})",
        )
    )
    return checks, [curve]


# ---------------------------------------------------------------- crossing and growth laws

_UNIT = TableBoundary(((0.0, 1.0),))
# Each crossing law of the laws family: the (X, A) pair it reads and
# its boundary phi(A).  The pairs, each with A growing only on {X = 0}:
# |W| with its kernel local time ("abs"), the same restarted at the
# ErfSign last zero with the anchored local time ("restarted"), and the
# drawdown S - W with the running maximum S ("drawdown").
_CROSSING_LAWS = {
    "passage-eq2": ("abs", TableBoundary(((0.0, 1.0), (0.5, 2.0)))),
    "passage-eq3": ("abs", TableBoundary(((0.0, 1.0), (0.5, 2.0), (2.0, float("inf"))))),
    "passage-eq4": ("abs", _UNIT),
    "restarted": ("restarted", _UNIT),
    "levy-eq5": ("drawdown", _UNIT),
    # the drawdown counts once the supremum passes 0.05
    "levy-eq6": ("drawdown", TableBoundary(((0.0, float("inf")), (0.05, 1.0)))),
}


def _pairs(w: np.ndarray, gbar: np.ndarray, step: float):
    """The laws family's (name, X, A) pairs off Brownian rows, one at a time."""
    x = np.abs(w)
    yield "abs", x, occupation_kernel(x, step)
    x = np.abs(w - gather(w, gbar)[:, None])
    # held at 0, where it cannot cross, until the restart
    x[np.arange(w.shape[1])[None, :] < gbar[:, None]] = 0.0
    yield "restarted", x, occupation_kernel(x, step, anchors=gbar[:, None])
    s = np.maximum.accumulate(w, axis=1)
    yield "drawdown", s - w, s


def _laws_chunk(start: int, count: int, *, seed: int, step: float, horizon: float) -> dict[str, np.ndarray]:
    """The laws family's features off one primary draw to ``horizon`` and
    one density draw on the model span.

    For each crossing law, A just before X first crosses phi(A) on the
    grid, inf where it has not crossed by the horizon; for each pair,
    its last X and A, from which ``_crossing`` completes the rest.  The
    density draw gives the ErfSign last zero, where the restarted pair
    starts, and both models' terminal values.
    """
    grid = make_grid(horizon, step)
    q_erf, q_sbm, zs = _density_block(seed, start, count, grid)
    out = {"q_erf": q_erf, "q_sbm": q_sbm}
    for pair, x, a in _pairs(_primary(seed, start, count, grid), zs.gbar_index, step):
        out[f"x|{pair}"], out[f"a|{pair}"] = x[:, -1].copy(), a[:, -1].copy()
        for law, (p, boundary) in _CROSSING_LAWS.items():
            if p == pair:
                out[f"aprev|{law}"] = before_hit(a, first_hit(x > boundary.phi_of(a)))
    return out


def _laws(st: ExperimentConfig) -> dict[str, np.ndarray]:
    return _chunked(st, _laws_chunk, horizon=st.horizon)


def _crossing(feats: dict[str, np.ndarray], law: str, u: float) -> np.ndarray:
    """Per path, the chance of crossing before A passes u: read off the
    grid where the path crossed by the horizon, else completed exactly
    by the boundary's law from the path's last (X, A)."""
    pair, boundary = _CROSSING_LAWS[law]
    aprev = feats[f"aprev|{law}"]
    rest = boundary.crossing_probability(u, feats[f"x|{pair}"], feats[f"a|{pair}"])
    return np.where(np.isfinite(aprev), aprev <= u, rest)


# the growth levels of the laws' curves; eq3's boundary is finite up to
# growth 2 and infinite after, a finite total integral, so its curve runs to 2
_LEVELS = (0.2, 0.4, 0.6, 0.8, 1.0)
_CURVE_LEVELS = {"passage-eq3": (0.4, 0.8, 1.2, 1.6, 2.0)}


def _passage_rows(
    feats: dict[str, np.ndarray],
    law: str,
    u: float,
    name: str,
    weights: np.ndarray | None,
    curve_name: str = "crossing-by-level",
) -> tuple[TargetCheck, CurveSeries]:
    """Crossing probability against the boundary's law before growth
    level u (inf: over the full span), with its curve over the law's levels."""
    boundary = _CROSSING_LAWS[law][1]
    check = mean_check(name, boundary.crossing_probability(u), _crossing(feats, law, u), weights, grid_allowance=0.012)
    xs = _CURVE_LEVELS.get(law, _LEVELS)
    ests = [weighted_mean(_crossing(feats, law, g), weights) for g in xs]
    curve = _curve(curve_name, xs, [boundary.crossing_probability(g) for g in xs], ests)
    return check, curve


def _run_passage(st: ExperimentConfig, *, u: float, label: str) -> tuple[list[TargetCheck], list[CurveSeries]]:
    check, curve = _passage_rows(_laws(st), st.experiment, u, label, None)
    return [check], [curve]


_run_passage_eq2 = functools.partial(_run_passage, u=1.0, label="crossing-before-growth-1")
_run_passage_eq3 = functools.partial(_run_passage, u=float("inf"), label="crossing-over-full-span")
_run_passage_eq4 = functools.partial(_run_passage, u=1.0, label="crossing-before-growth-1")


def _run_s32(st: ExperimentConfig) -> tuple[list[TargetCheck], list[CurveSeries]]:
    feats = _laws(st)
    pprime = ensemble_weights(feats["q_erf"])
    restarted, curve = _passage_rows(
        feats, "restarted", 1.0, "restarted-crossing-before-growth-1", pprime, curve_name="restarted-crossing-by-level"
    )
    agreement = agreement_check(
        "common-numbers-agreement",
        weighted_mean(_crossing(feats, "restarted", 1.0), pprime),
        weighted_mean(_crossing(feats, "passage-eq4", 1.0)),
        2.0,
        "restarted {estimate:.5f} vs driver {target:.5f}, combined se {stderr:.5f}",
    )
    return [restarted, agreement], [curve]


def _run_ainf(st: ExperimentConfig) -> tuple[list[TargetCheck], list[CurveSeries]]:
    """A_inf, the clock where X first crosses 1, is unit exponential: its
    survival past g is 1 minus the unit boundary's crossing chance.
    Completed, a path's law of A_inf is 1{g >= c} (1 - r e^{-(g - c)}):
    the point mass at c = aprev where it crossed, else an atom x at
    c = a and the tail r = 1 - x from its last (x, a)."""
    checks: list[TargetCheck] = []
    curves: list[CurveSeries] = []
    xs = tuple(0.25 * k for k in range(13))
    feats = _laws(st)
    for label, law, q in (("constant-one", "passage-eq4", np.ones(st.n_paths)), ("erf-sign", "restarted", feats["q_erf"])):
        pair = _CROSSING_LAWS[law][0]
        pprime = ensemble_weights(q)
        crossed = np.isfinite(feats[f"aprev|{law}"])
        c = np.where(crossed, feats[f"aprev|{law}"], feats[f"a|{pair}"])
        r = np.where(crossed, 0.0, 1.0 - feats[f"x|{pair}"])
        checks.append(ks_check(f"{label}-terminal-law-ks", c, pprime, exponential_cdf, grid_allowance=0.03, tails=r))
        checks.append(
            mean_check(
                f"{label}-survival-at-1",
                float(np.exp(-1.0)),
                1.0 - _crossing(feats, law, 1.0),
                pprime,
                grid_allowance=0.015,
            )
        )
        checks.append(
            count_check(
                f"{label}-survival-at-0-exact",
                int(np.count_nonzero((c <= 0.0) & (r < 1.0))),
                "terminal local time is strictly positive under every path's completed law",
            )
        )
        ests = [weighted_mean(1.0 - _crossing(feats, law, g), pprime) for g in xs]
        curves.append(_curve(f"{label}-survival", xs, [float(np.exp(-g)) for g in xs], ests))
    return checks, curves


# ---------------------------------------------------------------- levy corollaries

def _hold_target(law: str, u: float) -> float:
    """Chance of a Levy hold, the supremum passing u before the drawdown
    crosses its boundary: e^{-I(u)}, 1 minus the crossing chance."""
    return float(np.exp(-_CROSSING_LAWS[law][1].integral_to(u)))


def _run_levy5(st: ExperimentConfig) -> tuple[list[TargetCheck], list[CurveSeries]]:
    feats = _laws(st)
    hold = 1.0 - _crossing(feats, st.experiment, 1.0)
    target = _hold_target(st.experiment, 1.0)
    checks = [
        mean_check("constant-one-hold", target, hold, grid_allowance=0.014),
        mean_check("erf-sign-hold", _D0_ERF * target, hold, feats["q_erf"], grid_allowance=0.014),
        mean_check("q-mean-of-one-constant-one", 1.0, np.ones_like(hold)),
        mean_check("q-mean-of-one-erf-sign", _D0_ERF, np.ones_like(hold), feats["q_erf"]),
        mean_check("q-mean-of-one-stopped-bm", 1.0, np.ones_like(hold), feats["q_sbm"]),
    ]
    holds = [1.0 - _crossing(feats, st.experiment, g) for g in _LEVELS]
    targets = [_hold_target(st.experiment, g) for g in _LEVELS]
    curves = [
        _curve("constant-one-hold", _LEVELS, targets, [weighted_mean(h) for h in holds]),
        _curve("erf-sign-hold", _LEVELS, [_D0_ERF * t for t in targets], [weighted_mean(h, feats["q_erf"]) for h in holds]),
    ]
    return checks, curves


def _run_levy6(st: ExperimentConfig) -> tuple[list[TargetCheck], list[CurveSeries]]:
    feats = _laws(st)
    hold = 1.0 - _crossing(feats, st.experiment, 1.0)
    target = _hold_target(st.experiment, 1.0)
    # Crossing detection is biased twice here: the running sup is understated
    # between samples and so is the excursion depth, and the window opener
    # fires late for the same reason.  All three push the hold frequency up
    # by an amount that scales like the square root of the step, so the
    # slack follows that scale.
    slack = 1.2 * math.sqrt(st.step)
    checks = [
        mean_check("constant-one-windowed-hold", target, hold, grid_allowance=slack),
        mean_check("erf-sign-windowed-hold", _D0_ERF * target, hold, feats["q_erf"], grid_allowance=slack),
    ]
    return checks, []


# ---------------------------------------------------------------- products / scaling

def _double(a: np.ndarray) -> np.ndarray:
    return 2.0 * a


def _square(a: np.ndarray) -> np.ndarray:
    return a * a


# how many of a closure run's paths are also verified pathwise
_CLOSURE_SAMPLE = 40


def _build_product(seed: int, start: int, count: int, grid: TimeGrid) -> Decomposition:
    """The product of two independent drawdowns."""
    w1 = _primary(seed, start, count, grid)
    w2 = _primary(seed, start, count, grid, SUBSTREAM_SECONDARY)
    return product([drawdown(Path(grid=grid, values=w)) for w in (w1, w2)])


def _build_scaled(seed: int, start: int, count: int, grid: TimeGrid) -> Decomposition:
    """The drawdown rescaled by f(a) = 2a."""
    return scaled_by_f(drawdown(Path(grid=grid, values=_primary(seed, start, count, grid))), _double, _square)


def _closure_chunk(
    start: int,
    count: int,
    *,
    seed: int,
    step: float,
    horizon: float,
    cols: tuple[int, ...],
    build: Callable[[int, int, int, TimeGrid], Decomposition],
) -> dict[str, np.ndarray]:
    grid = make_grid(horizon, step)
    _, q_sbm, _ = _density_block(seed, start, count, grid)
    d = build(seed, start, count, grid)
    # a chunk holding some of the membership sample verifies its rows;
    # each row's verdict is that path's own
    fail = ~verify_membership(d).passed if start < _CLOSURE_SAMPLE else np.zeros(count, dtype=bool)
    return {"n": d.n.values[:, cols], "q_sbm": q_sbm, "fail": fail}


def _run_closure(st: ExperimentConfig, *, build: Callable, label: str) -> tuple[list[TargetCheck], list[CurveSeries]]:
    cols = _grid_steps(st.checkpoints, st.horizon, st.step)
    feats = _chunked(st, _closure_chunk, horizon=st.horizon, cols=cols, build=build)
    # the run's first paths' decompositions, checked pathwise
    sample = min(_CLOSURE_SAMPLE, st.n_paths)
    bad = int(np.count_nonzero(feats["fail"][:sample]))
    checks = [
        flatness_check(f"{label}-martingale-part-flat", feats["n"].T, feats["q_sbm"], st.checkpoints, "q-weighted"),
        count_check(f"{label}-membership-sample", bad, f"{sample} pathwise {label} decompositions verify"),
    ]
    return checks, []


_run_products = functools.partial(_run_closure, build=_build_product, label="product")
_run_scaled = functools.partial(_run_closure, build=_build_scaled, label="rescaled")


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


def _membership_chunk(start: int, count: int, *, seed: int, step: float, horizon: float) -> dict[str, np.ndarray]:
    grid = make_grid(horizon, step)
    # the support-mass ladder's rungs, at twice, once and half the step
    rungs = _rung_grids(horizon, step, (2.0, 1.0, 0.5))
    _, _, zs = _density_block(seed, start, count, grid)
    w = Path(grid=grid, values=_primary(seed, start, count, grid))
    base = drawdown(w)
    members = {
        "drawdown": base,
        "abs-martingale": abs_martingale(w, zs),
        "pm-combination": pm_combination(w, 2.0, 0.5, zs),
        "lifted": lifted_reflected(w, zs),
        "lifted-stopped": lifted_reflected(w, zs, stop_level=1.0),
        "product": product(
            [base, drawdown(Path(grid=grid, values=_primary(seed, start, count, grid, SUBSTREAM_SECONDARY)))]
        ),
        "scaled": scaled_by_f(base, _double, _square),
    }
    out: dict[str, np.ndarray] = {"shifted_fail": np.zeros(count)}
    for key, d in members.items():
        rep = verify_membership(d)
        out[f"fail|{key}"] = (~rep.passed).astype(np.float64)
        out[f"supratio|{key}"] = rep.support.ratio
        if key in _SHIFTED_VARIANTS:
            out["shifted_fail"] += ~rep.verdicts["shifted_classical"]
    del members
    ramp = Path(grid=grid, values=base.a.values + 0.5 * grid.times)
    bad = assemble(base.x, ramp, base.class_tag, base.zero_set, support_scale=base.support_scale)
    out["corrupt_pass"] = verify_membership(bad).passed.astype(np.float64)
    # fixed-tolerance support mass on a common-randomness step ladder
    stress_tol = 0.6 * float(np.sqrt(2.0 * step))
    wf = _primary(seed, start, count, rungs[0.5])
    for rung, (factor, g) in zip("cmf", rungs.items()):
        support = verify_membership(abs_martingale(Path(grid=g, values=wf[:, :: int(2 * factor)])), stress_tol).support
        out[f"viol_{rung}"] = support.violation_mass
        out[f"tot_{rung}"] = support.total_mass
    return out


def _run_membership(st: ExperimentConfig) -> tuple[list[TargetCheck], list[CurveSeries]]:
    feats = _chunked(st, _membership_chunk, horizon=st.horizon)
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

def _geom_chunk(start: int, count: int, *, seed: int, step: float) -> dict[str, np.ndarray]:
    _, _, zs = _density_block(seed, start, count, make_grid(_MODEL_SPAN, step))
    gbar = zs.gbar_index
    col = np.arange(zs.in_h.shape[1])
    after = col[None, :] >= gbar[:, None]
    return {
        "haszero": (gbar > 0).astype(np.float64),
        "gamma_moves": ((zs.gamma_index != gbar[:, None]) & after).any(axis=1).astype(np.float64),
        "origin_in_h": zs.in_h[:, 0].astype(np.float64),
    }


def _run_geometry(st: ExperimentConfig) -> tuple[list[TargetCheck], list[CurveSeries]]:
    feats = _chunked(st, _geom_chunk)
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


# ---------------------------------------------------------------- chunk tables

# Chunk functions whose features several experiments read (see _chunked)
_FAMILY_CHUNKS = frozenset({_ladder_chunk, _laws_chunk})

# Rows per chunk where fewer than CHUNK_SIZE bound memory: rho-algebra's
# segment buckets and restart rows; a membership chunk's twenty
# (rows, 2n+1) matrices of the support-mass ladder's finest rung.
_CHUNK_ROWS = {_rho_chunk: 128, _membership_chunk: 64}


# ---------------------------------------------------------------- registry

_FAST = (20000, 2e-3)
_FULL = (100000, 1e-3)
_LADDER_SCALE = (100, 1e-3)
_QUARTERS = (0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class ExperimentSpec:
    """One registry row: the one statement of a run's defaults and bounds.

    ``horizon`` and ``checkpoints`` are the defaults ``resolve_settings``
    fills into a request that gives none, and an experiment reads each
    option its row gives a default for (``reads``).  ``resolve_settings``
    rejects any other, because an ignored option would still change the
    config hash, and checkpoints (or offsets) that name fewer than two
    distinct times, because every reader tests them for flatness.
    ``min_horizon`` is the smallest horizon the runner can honour, the
    model span, which holds every last zero, unless the row says
    otherwise.  r1 and q-bracket read windows that run their offsets
    past a last zero, so each refuses a horizon short of 1.0 plus its
    largest offset before any draw.  ``make_grid`` holds every grid a
    run builds to its row byte budget, and ``resolve_settings`` refuses
    a step that does not divide the model span.
    """

    name: str
    anchor: str
    runner: Callable[[ExperimentConfig], tuple[list[TargetCheck], list[CurveSeries]]]
    horizon: float | None
    fast: tuple[int, float] = _FAST
    full: tuple[int, float] = _FULL
    checkpoints: tuple[float, ...] | None = None
    min_horizon: float = _MODEL_SPAN

    @property
    def reads(self) -> tuple[str, ...]:
        """The run options the runner consumes: those the row gives a default for."""
        return tuple(option for option in ("horizon", "checkpoints") if getattr(self, option) is not None)


# name, paper anchor, runner and the default horizon; then the fast and full scales (paths, step)
# where they differ from the defaults, and the default checkpoints and smallest horizon where set
_SPECS = (
    ExperimentSpec("t1-characterization", "martingale characterization of the base zero-set class", _run_t1, 1.0, checkpoints=_QUARTERS, min_horizon=0.0),
    ExperimentSpec("r1-ui-martingale", "uniformly integrable restart martingale for bounded class members", _run_r1, 2.0, checkpoints=(0.2, 0.45, 0.7, 0.95)),
    ExperimentSpec("sigma-s-characterization", "martingale characterization of the restarted class", _run_sigma_s, 2.0, checkpoints=(0.5, 1.0, 1.5, 2.0)),
    ExperimentSpec("rho-algebra", "linearity, positivity, and product rules of the restart operator", _run_rho, 2.0, (1000, 2e-3), (1000, 2e-3)),
    ExperimentSpec("q-bracket", "quadratic bracket of the restarted driver", _run_qbracket, 2.0, checkpoints=_QUARTERS),
    ExperimentSpec("tanaka-abs", "signed local-time identity for the absolute value", _run_tanaka_abs, 1.0, _LADDER_SCALE, _LADDER_SCALE),
    ExperimentSpec("tanaka-plus", "signed local-time identity for the positive part", _run_tanaka_plus, 1.0, _LADDER_SCALE, _LADDER_SCALE),
    ExperimentSpec("tanaka-minus", "signed local-time identity for the negative part", _run_tanaka_minus, 1.0, _LADDER_SCALE, _LADDER_SCALE),
    ExperimentSpec("ito", "second-order expansion along restarted paths", _run_ito, 1.0, _LADDER_SCALE, _LADDER_SCALE),
    ExperimentSpec("doob-maximal", "maximal identity for the supremum after the last zero", _run_doob, _MODEL_SPAN),
    ExperimentSpec("passage-eq2", "boundary-crossing law stopped at a growth level, stepped boundary", _run_passage_eq2, _MODEL_SPAN),
    ExperimentSpec("passage-eq3", "boundary-crossing law over the full span, finite total integral", _run_passage_eq3, _MODEL_SPAN),
    ExperimentSpec("passage-eq4", "probability-case crossing law with a unit boundary", _run_passage_eq4, _MODEL_SPAN),
    ExperimentSpec("passage-s32", "signed crossing law for the restarted reflected driver", _run_s32, _MODEL_SPAN),
    ExperimentSpec("a-infinity", "terminal growth law of the stopped reflected construction", _run_ainf, _MODEL_SPAN),
    ExperimentSpec("levy-eq5", "drawdown confinement law under the signed weight", _run_levy5, _MODEL_SPAN),
    ExperimentSpec("levy-eq6", "drawdown confinement law between supremum levels", _run_levy6, _MODEL_SPAN),
    ExperimentSpec("products", "closure of the zero-set class under products", _run_products, 1.0, checkpoints=_QUARTERS, min_horizon=0.0),
    ExperimentSpec("scaled-f", "closure of the zero-set class under growth rescaling", _run_scaled, 1.0, checkpoints=_QUARTERS, min_horizon=0.0),
    ExperimentSpec("membership", "pathwise membership checks for every construction", _run_membership, 1.0, (300, 1e-3), (300, 1e-3)),
    # the grid is the density model's own span, so no horizon applies
    ExperimentSpec("zero-geometry", "geometry of the terminal-density zero set", _run_geometry, None, (20000, 1e-3), (100000, 2.5e-4)),
)

EXPERIMENTS: dict[str, ExperimentSpec] = {spec.name: spec for spec in _SPECS}


def experiment_names() -> list[str]:
    return sorted(EXPERIMENTS)


def paper_anchor(name: str) -> str:
    return EXPERIMENTS[name].anchor


def resolve_settings(cfg: ExperimentConfig, suite: str | None = None) -> ExperimentConfig:
    """The request with its scales filled from the suite, and its horizon
    and checkpoints from the registry row, once every option has been
    checked.  Numbers become floats, so one run has one config hash
    however its numbers were written."""
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigurationError(f"unknown experiment {cfg.experiment!r}")
    if suite not in (None, "fast", "full"):
        raise ConfigurationError(f"unknown suite {suite!r}")
    spec = EXPERIMENTS[cfg.experiment]
    scale = spec.full if suite == "full" else spec.fast
    n_paths = cfg.n_paths if cfg.n_paths is not None else scale[0]
    step = cfg.step if cfg.step is not None else scale[1]
    if n_paths < 2:
        raise ConfigurationError("n_paths must be at least 2")
    if not 0.0 < step < np.inf:
        raise ConfigurationError("step must be positive and finite")
    try:
        make_grid(_MODEL_SPAN, step)
    except ConfigurationError as exc:
        # the span is the models' own, so only the step can change
        reason = str(exc).removesuffix(" or shorten the horizon")
        raise ConfigurationError(f"{cfg.experiment} reads its density on the model span {_MODEL_SPAN:g} at step {step:g}: {reason}") from None
    check_key(cfg.master_seed)
    requested = {"horizon": cfg.horizon is not None, "checkpoints": cfg.checkpoints is not None}
    ignored = [option for option, given in requested.items() if given and option not in spec.reads]
    if ignored:
        reads = ", ".join(spec.reads) or "no option"
        raise ConfigurationError(f"{cfg.experiment} ignores {', '.join(ignored)}; it reads {reads}")
    horizon = spec.horizon if cfg.horizon is None else float(cfg.horizon)
    checkpoints = spec.checkpoints if cfg.checkpoints is None else tuple(float(c) for c in cfg.checkpoints)
    if horizon is not None and not 0.0 < horizon < np.inf:
        raise ConfigurationError("horizon must be positive and finite")
    if checkpoints is not None and not np.all(np.isfinite(checkpoints)):
        raise ConfigurationError("checkpoints must be finite")
    if horizon is not None and horizon < spec.min_horizon:
        raise ConfigurationError(f"{cfg.experiment} needs a horizon of at least {spec.min_horizon:g}")
    # every reader compares the times pairwise for flatness, which one time cannot fail
    if checkpoints is not None and len(set(checkpoints)) < 2:
        raise ConfigurationError(f"checkpoints must name at least 2 distinct times, not {list(checkpoints)}")
    if cfg.workers < 1:
        raise ConfigurationError("workers must be at least 1")
    return replace(
        cfg,
        n_paths=int(n_paths),
        step=float(step),
        horizon=horizon,
        master_seed=int(cfg.master_seed),
        checkpoints=checkpoints,
        workers=int(cfg.workers),
    )


def run_experiment(cfg: ExperimentConfig, suite: str | None = None) -> ExperimentRun:
    st = resolve_settings(cfg, suite)
    spec = EXPERIMENTS[st.experiment]
    started = perf_counter()
    checks, curves = spec.runner(st)
    seconds = perf_counter() - started
    return ExperimentRun(
        name=st.experiment,
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
