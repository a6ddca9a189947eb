"""Registry of Monte Carlo experiments behind the command line tool.

Each registry row (``ExperimentSpec``) runs as plan, chunk and reduce,
and ``run_experiment`` is the one scheduler of every row.  ``plan(st)``
turns the resolved request into the keyword arguments of the row's
chunk: each grid the chunk reads, built once (the run grid, or a
ladder's rung grids by factor), and the grid steps of its times.  So
the plan makes every check the run can refuse, and a refused request
fails before any chunk runs or pool worker starts.  The chunk returns
one row of features per path of its range; ``run_chunked`` calls it on
ranges of the row's ``chunk_rows`` paths, which bound memory, and
concatenates the features in path-index order, so for a fixed seed the
report bytes do not depend on the worker count.  ``reduce(st, feats)``
makes the named checks, with explicit statistical and grid allowances,
and the survival curves; no check carries a finite-horizon allowance,
because every estimate past a finite horizon is completed exactly.

A path's increments depend only on (seed, path index, substream), so a
longer draw extends a shorter one exactly, and one chunk can compute
the features of several rows off one draw.  A chunk that two or more
rows name is shared:

- ``_laws_chunk``: passage-eq2/3/4, passage-s32, a-infinity and
  levy-eq5/6 read three (X, A) pairs, |W| with its local time, the
  driver restarted at the ErfSign last zero with its anchored local
  time, and the drawdown with the running maximum.  A path that has
  not crossed its boundary by the horizon is completed by the crossing
  law from its last (X, A), so every horizon from the model span on
  estimates the all-time law;
- ``_ladder_chunk``: tanaka-abs/plus/minus and ito read every residual
  form on every ladder rung, off one draw on the finest grid.

A shared chunk's features are kept, read-only, keyed by the whole call
(seed, path count and plan, whose grids carry the step and horizon).
Each other row that makes the identical call reads them once; a row
that runs again, or whose horizon override changes the call,
simulates afresh.

Every chunk but the ladder's reads its density weights, ``q_erf`` and
``q_sbm``, its zero set H and the bridged chance that D reaches 0 off
one draw on the model span, through ``_density_block``.  The process
keeps each block it draws, for one seed at a time, by step and path
range, and serves a request inside a kept range as a slice of it, bit
for bit the fresh draw; so rows that read the same paths at one step
draw their density once.

A run request is one ``ExperimentConfig``.  ``resolve_settings``
checks it and fills its scales, horizon and checkpoints from the
registry row; plan and reduce read that resolved request, and its
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
import numbers
from collections import Counter
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields, replace
from time import perf_counter
from typing import NamedTuple

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
    zero_level,
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

def _primary(seed: int, start: int, count: int, grid: TimeGrid, substream: int = SUBSTREAM_PRIMARY) -> np.ndarray:
    """Brownian rows from 0 on a substream, the primary one by default."""
    incs = increments_matrix(seed, start, count, grid.n_steps, grid.step, substream)
    return cumsum_paths(incs)


def _log_no_crossing(d: np.ndarray, step: float) -> np.ndarray:
    """Per row, the log chance that a Brownian motion (of any constant
    drift) whose distances to a level are ``d`` > 0 at the grid points
    stays clear of it between them: sum_k log(1 - exp(-2 d_k d_{k+1} / step)),
    the Brownian-bridge crossing law."""
    arr = -2.0 * d[:, :-1] * d[:, 1:] / step
    # Far from the level, exp(arr) underflows to 0 and log1p(-0) is -0, so
    # only the near steps are evaluated; the row sums are unchanged.
    near = arr > -800.0
    logs = np.full(arr.shape, -0.0)
    logs[near] = np.log1p(-np.minimum(np.exp(np.minimum(arr[near], 0.0)), 1.0 - 1e-16))
    return np.sum(logs, axis=1)


def _hit_chance(driver: np.ndarray, in_h: np.ndarray, step: float) -> np.ndarray:
    """Per ErfSign driver row on the model span, the chance that D reaches
    0 by the span given the row's grid values: 1 where the grid holds a
    zero, else bridged between grid points, where W stays above -1 on
    the grid.  Exact at any step."""
    hit = np.ones(driver.shape[0])
    free = ~in_h.any(axis=1)
    hit[free] = -np.expm1(_log_no_crossing(zero_level(_ERF, driver[free]), step))
    return hit


class _DensityBlock(NamedTuple):
    """What every chunk reads off the density draw, one entry per path:
    ErfSign's and StoppedBM's terminal values, their one zero set H on
    the request's grid, and the bridged chance that D reaches 0 by the
    model span."""

    q_erf: np.ndarray
    q_sbm: np.ndarray
    zs: ZeroSetInfo
    hit: np.ndarray


@dataclass(frozen=True)
class _KeptBlock:
    """A drawn block, one read-only entry per path, with H on the model
    span packed eight grid points to a byte."""

    q_erf: np.ndarray
    q_sbm: np.ndarray
    h_bits: np.ndarray
    hit: np.ndarray


# The density blocks this process has drawn, all for one seed: by
# (seed, step), then by each block's first path index.  It is module
# state because the rows that read one block are separate
# ``run_experiment`` calls, or pool tasks in a worker; holding one seed
# bounds it by one run's paths.
_BLOCKS: dict[tuple[int, float], dict[int, _KeptBlock]] = {}


def _density_block(seed: int, start: int, count: int, grid: TimeGrid) -> _DensityBlock:
    """The density block of paths [start, start + count) off one draw on
    the model span: D = 2 Phi((W + 1)/sqrt(1 - t)) - 1 and D = 1 + W read
    one driver W and vanish where it reaches -1.  H comes on ``grid``,
    of the span's step.

    A request inside a range kept at this seed and step is served as a
    slice of it, which equals the fresh draw bit for bit, because every
    entry depends on its own path's stream alone.  Otherwise the block
    is drawn and kept, replacing the kept ranges it covers; a request at
    another seed empties the keep first."""
    sgrid = make_grid(_MODEL_SPAN, grid.step)
    if _BLOCKS and next(iter(_BLOCKS))[0] != seed:
        _BLOCKS.clear()
    kept = _BLOCKS.setdefault((seed, grid.step), {})
    for first, blk in kept.items():
        if first <= start and start + count <= first + len(blk.hit):
            rows = slice(start - first, start - first + count)
            in_h = np.unpackbits(blk.h_bits[rows], axis=1, count=sgrid.n_steps + 1).view(bool)
            return _DensityBlock(blk.q_erf[rows], blk.q_sbm[rows], _on_grid(in_h, grid), blk.hit[rows])
    driver = driver_matrix(_ERF, seed, start, count, sgrid)
    in_h = driver_zero_set(_ERF, Path(grid=sgrid, values=driver)).in_h
    # StoppedBM's driver is ErfSign's plus its start, added after the sum,
    # so its terminal value is ErfSign's last column plus it
    blk = _KeptBlock(
        terminal_density(_ERF, driver, sgrid),
        driver[:, -1] + _SBM.start,
        np.packbits(in_h, axis=1),
        _hit_chance(driver, in_h, sgrid.step),
    )
    for values in (blk.q_erf, blk.q_sbm, blk.h_bits, blk.hit):
        values.flags.writeable = False
    for first in [f for f, b in kept.items() if start <= f and f + len(b.hit) <= start + count]:
        del kept[first]
    kept[start] = blk
    return _DensityBlock(blk.q_erf, blk.q_sbm, _on_grid(in_h, grid), blk.hit)


def _on_grid(in_h: np.ndarray, grid: TimeGrid) -> ZeroSetInfo:
    """H masks on the model span at ``grid``'s step, on ``grid``: padded
    past the span, where neither model has zeros, or cut short."""
    pad = grid.n_steps + 1 - in_h.shape[1]
    in_h = np.pad(in_h, ((0, 0), (0, pad))) if pad > 0 else in_h[:, : grid.n_steps + 1]
    return ZeroSetInfo(grid=grid, in_h=in_h)


def _span_zero_set(driver: np.ndarray, grid: TimeGrid) -> ZeroSetInfo:
    """H of ErfSign's driver rows on the model span at ``grid``'s step, on ``grid``."""
    return _on_grid(driver_zero_set(_ERF, Path(grid=make_grid(_MODEL_SPAN, grid.step), values=driver)).in_h, grid)


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


def _grid_steps(times: tuple[float, ...], grid: TimeGrid) -> tuple[int, ...]:
    """Grid steps of checkpoints or restart offsets, checked before any
    simulation: each must be a time of the run grid, so none is
    negative, off the grid, or past the horizon, and no two distinct
    times round to one point (where a flatness test would compare a
    column with itself)."""
    steps = tuple(grid.index_of(t) for t in times)
    if len(set(steps)) < len(set(times)):
        raise ConfigurationError(f"times {list(times)} name fewer grid points than distinct times at step {grid.step:g}")
    return steps


def _restart_steps(offsets: tuple[float, ...], grid: TimeGrid) -> tuple[int, ...]:
    """Grid steps of restart offsets, checked before any simulation.
    Offsets count from a last zero, which comes by the model span, so
    every path's windows fit on the grid exactly when the steps past
    the largest offset still cover the span.  An offset past the
    horizon is refused for the same reason, before it is looked up on
    the grid."""
    if max(offsets) <= grid.horizon:
        steps = _grid_steps(offsets, grid)
        if grid.n_steps - max(steps) >= make_grid(_MODEL_SPAN, grid.step).n_steps:
            return steps
    raise ConfigurationError(
        f"restart offsets up to {max(offsets):g} need a horizon of at least {_MODEL_SPAN + max(offsets):g},"
        f" not {grid.horizon:g}"
    )


def _horizon_plan(st: ExperimentConfig) -> dict[str, object]:
    """The run grid, to the horizon, or over the model span for a row that
    reads no horizon."""
    return {"grid": make_grid(_MODEL_SPAN if st.horizon is None else st.horizon, st.step)}


def _checkpoint_plan(st: ExperimentConfig) -> dict[str, object]:
    grid = make_grid(st.horizon, st.step)
    return {"grid": grid, "cols": _grid_steps(st.checkpoints, grid)}


def _restart_plan(st: ExperimentConfig) -> dict[str, object]:
    grid = make_grid(st.horizon, st.step)
    return {"grid": grid, "offset_steps": _restart_steps(st.checkpoints, grid)}


def _rung_plan(st: ExperimentConfig, *, factors: tuple[float, ...], times: tuple[float, ...] = ()) -> dict[str, object]:
    """Every rung grid the chunk reads, by factor, each holding ``times``."""
    return {"grids": _rung_grids(st.horizon, st.step, factors, *times)}


# what a reduce returns: its checks and its curves
_Rows = tuple[list[TargetCheck], list[CurveSeries]]


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


def _t1_chunk(start: int, count: int, *, seed: int, grid: TimeGrid, cols: tuple[int, ...]) -> dict[str, np.ndarray]:
    """t1's features off one draw: F(A) - f(A) X at the checkpoints for
    the drawdown and the reflected path, StoppedBM's terminal weights,
    and the drifted control's drawdown feature for f = 1."""
    q_sbm = _density_block(seed, start, count, grid).q_sbm
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
        "abs": (np.abs(w), occupation_kernel(w, grid.step)),
    }
    for cons, (x, a) in variants.items():
        xc = x[:, cols]
        ac = a[:, cols]
        for kind, pair in _F_PAIRS.items():
            out[f"{cons}|{kind}"] = characterization(*pair, ac, xc)
    return out


def _reduce_t1(st: ExperimentConfig, feats: dict[str, np.ndarray]) -> _Rows:
    cps = st.checkpoints
    checks: list[TargetCheck] = []
    for label, q in (("constant-one", np.ones(st.n_paths)), ("stopped-bm", feats["q_sbm"])):
        for cons in ("drawdown", "abs"):
            for kind in _F_PAIRS:
                checks.append(flatness_check(f"{label}-{cons}-f-{kind}", feats[f"{cons}|{kind}"].T, q, cps, "q-weighted"))
    # the drifted control is its flatness check with the verdict inverted
    c = flatness_check("drifted-control-fails", feats["control"].T, np.ones(st.n_paths), cps, "unit-weighted")
    detail = f"drifted control must fail flatness: z = {c.z:.3f} vs {c.stat_tolerance}"
    checks.append(replace(c, kind="control", passed=not c.passed, detail=detail))
    return checks, []


# ---------------------------------------------------------------- r1 restart martingale

def _r1_chunk(start: int, count: int, *, seed: int, grid: TimeGrid, offset_steps: tuple[int, ...]) -> dict[str, np.ndarray]:
    q_erf, _, zs, _ = _density_block(seed, start, count, grid)
    w = _primary(seed, start, count, grid)
    t = grid.times
    # U_t = P(W_T < 1/2 | W_t) with T one time unit past the horizon
    u = ndtr((0.5 - w) / np.sqrt(grid.horizon + 1.0 - t)[None, :])
    gbar = zs.gbar_index
    ug = gather(u, gbar)
    vals = np.stack([gather(u, gbar + d) - ug for d in offset_steps], axis=1)
    bound = max(float(np.max(u - 1.0)), float(np.max(-u)), 0.0)
    return {"v": vals, "bound": np.full(count, bound), "q_erf": q_erf}


def _reduce_r1(st: ExperimentConfig, feats: dict[str, np.ndarray]) -> _Rows:
    checks = [
        flatness_check("restart-increments-flat", feats["v"].T, ensemble_weights(feats["q_erf"]), st.checkpoints, "P'-weighted"),
        exact_check("bounded-in-unit-interval", float(np.max(feats["bound"]))),
    ]
    return checks, []


# ---------------------------------------------------------------- sigma-s characterization

def _sigs_members(start: int, count: int, *, seed: int, grid: TimeGrid) -> tuple[Decomposition, np.ndarray]:
    """The restarted reflected driver X and its kernel clock A, one row
    per path (``lifted_reflected``), and ErfSign's terminal values."""
    q_erf, _, zs, _ = _density_block(seed, start, count, grid)
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


def _reduce_sigma_s(st: ExperimentConfig, feats: dict[str, np.ndarray]) -> _Rows:
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


def _rho_chunk(start: int, count: int, *, seed: int, grid: TimeGrid) -> dict[str, np.ndarray]:
    n, step = grid.n_steps, grid.step
    zs = _density_block(seed, start, count, grid).zs
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


def _rho_plan(st: ExperimentConfig) -> dict[str, object]:
    if st.horizon <= _MODEL_SPAN:  # a last zero at the grid end would leave no shifted path
        raise ConfigurationError(f"rho-algebra needs a horizon past the model span {_MODEL_SPAN:g}")
    return _horizon_plan(st)


def _reduce_rho(st: ExperimentConfig, feats: dict[str, np.ndarray]) -> _Rows:
    n = st.n_paths
    checks = [
        count_check("linearity-bitwise", int(feats["lin"].sum()), f"0 of {3 * n} pair evaluations differ"),
        count_check("product-rule-bitwise", int(feats["prod"].sum()), f"0 of {3 * n} pair evaluations differ"),
        count_check("positivity", int(feats["pos"].sum()), f"0 of {2 * n} nonnegative lifts go negative"),
        count_check("defining-property-exact", int(feats["defn"].sum()), f"restart values equal shifted values on {3 * n} evaluations"),
    ]
    return checks, []


# ---------------------------------------------------------------- q bracket

def _qbracket_chunk(start: int, count: int, *, seed: int, grid: TimeGrid, offset_steps: tuple[int, ...]) -> dict[str, np.ndarray]:
    q_erf, _, zs, _ = _density_block(seed, start, count, grid)
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


def _reduce_qbracket(st: ExperimentConfig, feats: dict[str, np.ndarray]) -> _Rows:
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


def _ladder_chunk(start: int, count: int, *, seed: int, grids: dict[float, TimeGrid]) -> dict[str, np.ndarray]:
    """Sup residuals of every form on every ladder rung: the fine rows, and
    the density driver on the span, subsampled onto each rung's grid: a
    coarse rung's H is no subsample of the fine H, so the ladder draws
    its own driver.  On the fine rung, also the largest gaps of the plus
    and minus residuals from the abs one: all three estimate one local time."""
    driver = driver_matrix(_ERF, seed, start, count, make_grid(_MODEL_SPAN, grids[1].step))
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


_ladder_plan = functools.partial(_rung_plan, factors=_LADDER, times=(_MODEL_SPAN,))


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


def _reduce_tanaka(st: ExperimentConfig, feats: dict[str, np.ndarray]) -> _Rows:
    form = st.experiment.removeprefix("tanaka-")
    if form == "abs":
        checks = _ladder_rows("abs-residual", form, feats, st)
    else:
        # the abs residual's halving is stated once; plus and minus state that they are it
        checks = [exact_check(f"{form}-residual-equals-abs", float(np.max(feats[f"gap|{form}"])), _ROUNDING)]
    checks.append(exact_check("constant-path-residual", _constant_path_residual(st, form)))
    return checks, []


def _reduce_ito(st: ExperimentConfig, feats: dict[str, np.ndarray]) -> _Rows:
    checks: list[TargetCheck] = []
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
    the all-time law P(sup_{s>=h} Z_s >= b | Z_h) = e^{-(b - Z_h)+}.
    Exact at any step."""
    crossed = (z >= b).any(axis=1)
    # A row that reaches b scores 1; only the others need the
    # per-step bridge crossing probabilities.
    d = b - z[~crossed]
    freq = np.ones(z.shape[0])
    # no crossing on the grid, then none past its end, where d > 0
    freq[~crossed] = -np.expm1(_log_no_crossing(d, step) + np.log(-np.expm1(-d[:, -1])))
    return freq


# doob-maximal's curve levels
_DOOB_LEVELS = (1.25, 1.5, 2.0, 3.0, 4.0)


def _doob_chunk(start: int, count: int, *, seed: int, grid: TimeGrid) -> dict[str, np.ndarray]:
    """Both doob-maximal passes off one primary draw of Z = W - t/2 on
    ``grid``: density one at each curve level, and ErfSign after its
    last zero at level 2."""
    q_erf, _, zs, _ = _density_block(seed, start, count, grid)
    z = _primary(seed, start, count, grid)
    z -= 0.5 * grid.times[None, :]
    return _doob_features(z, zs.gbar_index, grid.step) | {"q_erf": q_erf}


def _doob_features(z: np.ndarray, gbar: np.ndarray, step: float) -> dict[str, np.ndarray]:
    """doob-maximal's features off grid rows of Z and each row's last zero."""
    # density one has no zeros: the whole path is after the last zero
    out = {f"freq|{a:g}": _crossing_freq(z, float(np.log(a)), step) for a in _DOOB_LEVELS}
    b = float(np.log(2.0))
    pre = np.arange(z.shape[1])[None, :] < gbar[:, None]
    out["erf|freq|2"] = _crossing_freq(np.where(pre, b - 50.0, z), b, step)
    return out | {"zg": gather(z, gbar)}


def _reduce_doob(st: ExperimentConfig, feats: dict[str, np.ndarray]) -> _Rows:
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


def _laws_chunk(start: int, count: int, *, seed: int, grid: TimeGrid) -> dict[str, np.ndarray]:
    """The laws family's features off one primary draw on ``grid`` and
    one density draw on the model span.

    For each crossing law, A just before X first crosses phi(A) on the
    grid, inf where it has not crossed by the horizon; for each pair,
    its last X and A, from which ``_crossing`` completes the rest.  The
    density draw gives the ErfSign last zero, where the restarted pair
    starts, and both models' terminal values.
    """
    q_erf, q_sbm, zs, _ = _density_block(seed, start, count, grid)
    out = {"q_erf": q_erf, "q_sbm": q_sbm}
    for pair, x, a in _pairs(_primary(seed, start, count, grid), zs.gbar_index, grid.step):
        out[f"x|{pair}"], out[f"a|{pair}"] = x[:, -1].copy(), a[:, -1].copy()
        for law, (p, boundary) in _CROSSING_LAWS.items():
            if p == pair:
                out[f"aprev|{law}"] = before_hit(a, first_hit(x > boundary.phi_of(a)))
    return out


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


def _reduce_passage(st: ExperimentConfig, feats: dict[str, np.ndarray], *, u: float, label: str) -> _Rows:
    check, curve = _passage_rows(feats, st.experiment, u, label, None)
    return [check], [curve]


_reduce_growth_1 = functools.partial(_reduce_passage, u=1.0, label="crossing-before-growth-1")
_reduce_full_span = functools.partial(_reduce_passage, u=float("inf"), label="crossing-over-full-span")


def _reduce_s32(st: ExperimentConfig, feats: dict[str, np.ndarray]) -> _Rows:
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


def _reduce_ainf(st: ExperimentConfig, feats: dict[str, np.ndarray]) -> _Rows:
    """A_inf, the clock where X first crosses 1, is unit exponential: its
    survival past g is 1 minus the unit boundary's crossing chance, so
    passage-eq4's and passage-s32's crossing rows state its survival at 1.
    Completed, a path's law of A_inf is 1{g >= c} (1 - r e^{-(g - c)}):
    the point mass at c = aprev where it crossed, else an atom x at
    c = a and the tail r = 1 - x from its last (x, a)."""
    checks: list[TargetCheck] = []
    curves: list[CurveSeries] = []
    xs = tuple(0.25 * k for k in range(13))
    for label, law, q in (("constant-one", "passage-eq4", np.ones(st.n_paths)), ("erf-sign", "restarted", feats["q_erf"])):
        pair = _CROSSING_LAWS[law][0]
        pprime = ensemble_weights(q)
        crossed = np.isfinite(feats[f"aprev|{law}"])
        c = np.where(crossed, feats[f"aprev|{law}"], feats[f"a|{pair}"])
        r = np.where(crossed, 0.0, 1.0 - feats[f"x|{pair}"])
        checks.append(ks_check(f"{label}-terminal-law-ks", c, pprime, exponential_cdf, grid_allowance=0.03, tails=r))
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


def _reduce_levy5(st: ExperimentConfig, feats: dict[str, np.ndarray]) -> _Rows:
    hold = 1.0 - _crossing(feats, st.experiment, 1.0)
    target = _hold_target(st.experiment, 1.0)
    checks = [
        mean_check("constant-one-hold", target, hold, grid_allowance=0.014),
        mean_check("erf-sign-hold", _D0_ERF * target, hold, feats["q_erf"], grid_allowance=0.014),
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


def _reduce_levy6(st: ExperimentConfig, feats: dict[str, np.ndarray]) -> _Rows:
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
    grid: TimeGrid,
    cols: tuple[int, ...],
    build: Callable[[int, int, int, TimeGrid], Decomposition],
) -> dict[str, np.ndarray]:
    q_sbm = _density_block(seed, start, count, grid).q_sbm
    d = build(seed, start, count, grid)
    # a chunk holding some of the membership sample verifies its rows;
    # each row's verdict is that path's own
    fail = ~verify_membership(d).passed if start < _CLOSURE_SAMPLE else np.zeros(count, dtype=bool)
    return {"n": d.n.values[:, cols], "q_sbm": q_sbm, "fail": fail}


def _reduce_closure(st: ExperimentConfig, feats: dict[str, np.ndarray], *, label: str) -> _Rows:
    # the run's first paths' decompositions, checked pathwise
    sample = min(_CLOSURE_SAMPLE, st.n_paths)
    bad = int(np.count_nonzero(feats["fail"][:sample]))
    checks = [
        flatness_check(f"{label}-martingale-part-flat", feats["n"].T, feats["q_sbm"], st.checkpoints, "q-weighted"),
        count_check(f"{label}-membership-sample", bad, f"{sample} pathwise {label} decompositions verify"),
    ]
    return checks, []


# each row its own chunk, so that products and scaled-f share no features
_product_chunk = functools.partial(_closure_chunk, build=_build_product)
_scaled_chunk = functools.partial(_closure_chunk, build=_build_scaled)
_reduce_products = functools.partial(_reduce_closure, label="product")
_reduce_scaled = functools.partial(_reduce_closure, label="rescaled")


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
# the support-mass ladder's rungs, at twice and once the step
_SUPPORT_RUNGS = (2, 1)


def _membership_chunk(start: int, count: int, *, seed: int, grids: dict[float, TimeGrid]) -> dict[str, np.ndarray]:
    grid = grids[1]
    zs = _density_block(seed, start, count, grid).zs
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
    # fixed-tolerance support mass on a common-randomness step ladder: W
    # and every second point of it; the step-s rung is the abs-martingale
    # member's own triple, read without its zero set
    stress_tol = 0.6 * float(np.sqrt(2.0 * grid.step))
    plain = replace(members["abs-martingale"], zero_set=empty_zero_set(w))
    support = {1: verify_membership(plain, stress_tol).support}
    del members, plain
    ramp = Path(grid=grid, values=base.a.values + 0.5 * grid.times)
    bad = assemble(base.x, ramp, base.class_tag, base.zero_set, support_scale=base.support_scale)
    out["corrupt_pass"] = verify_membership(bad).passed.astype(np.float64)
    support[2] = verify_membership(abs_martingale(Path(grid=grids[2], values=w.values[:, ::2])), stress_tol).support
    for factor in _SUPPORT_RUNGS:
        out[f"viol|{factor}"] = support[factor].violation_mass
        out[f"tot|{factor}"] = support[factor].total_mass
    return out


_membership_plan = functools.partial(_rung_plan, factors=_SUPPORT_RUNGS)


def _reduce_membership(st: ExperimentConfig, feats: dict[str, np.ndarray]) -> _Rows:
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
    for factor in _SUPPORT_RUNGS:
        tot = float(feats[f"tot|{factor}"].sum())
        ratios[factor] = float(feats[f"viol|{factor}"].sum()) / tot if tot > 0.0 else 0.0
    s = st.step
    checks.append(ratio_check(f"stressed-ratio-halves-{2 * s:g}-to-{s:g}", ratios[2], ratios[1], 2.0))
    return checks, []


# ---------------------------------------------------------------- zero geometry

def _geom_chunk(start: int, count: int, *, seed: int, grid: TimeGrid) -> dict[str, np.ndarray]:
    _, _, zs, hit = _density_block(seed, start, count, grid)
    gbar = zs.gbar_index
    col = np.arange(zs.in_h.shape[1])
    after = col[None, :] >= gbar[:, None]
    return {
        "hit": hit,
        "gamma_moves": ((zs.gamma_index != gbar[:, None]) & after).any(axis=1).astype(np.float64),
        "origin_in_h": zs.in_h[:, 0].astype(np.float64),
    }


def _reduce_geometry(st: ExperimentConfig, feats: dict[str, np.ndarray]) -> _Rows:
    checks = [
        # bridged, so exact at any step: no grid allowance
        mean_check("last-zero-positive", _P_HIT, feats["hit"]),
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
_QUARTERS = (0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class ExperimentSpec:
    """One registry row: the one statement of a run's defaults, bounds and steps.

    A run is ``plan(st)``, the keyword arguments of ``chunk``; ``chunk``
    over ranges of ``chunk_rows`` paths, fewer than ``CHUNK_SIZE`` for
    rho-algebra's restart rows and membership's seven decompositions;
    and ``reduce(st, feats)``, the checks and curves.  ``horizon`` and
    ``checkpoints`` are the defaults ``resolve_settings`` fills into a
    request that gives none, and an experiment reads each option its
    row gives a default for (``reads``).  ``resolve_settings`` rejects
    any other, because an ignored option would still change the config
    hash, and checkpoints (or offsets) that name fewer than two distinct
    times, because every reader tests them for flatness.  ``min_horizon``
    is the smallest horizon the row can honour, the model span, which
    holds every last zero, unless the row says otherwise.  ``make_grid``
    holds every grid a run builds to its row byte budget.
    """

    name: str
    anchor: str
    chunk: Callable[..., dict[str, np.ndarray]]
    reduce: Callable[[ExperimentConfig, dict[str, np.ndarray]], _Rows]
    horizon: float | None
    fast: tuple[int, float] = _FAST
    full: tuple[int, float] = _FULL
    checkpoints: tuple[float, ...] | None = None
    min_horizon: float = _MODEL_SPAN
    plan: Callable[[ExperimentConfig], dict[str, object]] = _horizon_plan
    chunk_rows: int = CHUNK_SIZE

    @property
    def reads(self) -> tuple[str, ...]:
        """The run options the row consumes: those it gives a default for."""
        return tuple(option for option in ("horizon", "checkpoints") if getattr(self, option) is not None)


# name, paper anchor, chunk, reduce and the default horizon; then the fast and full scales (paths, step)
# where they differ from the defaults, and the default checkpoints, smallest horizon, plan and chunk rows where set
_SPECS = (
    ExperimentSpec("t1-characterization", "martingale characterization of the base zero-set class", _t1_chunk, _reduce_t1, 1.0, checkpoints=_QUARTERS, min_horizon=0.0, plan=_checkpoint_plan),
    ExperimentSpec("r1-ui-martingale", "uniformly integrable restart martingale for bounded class members", _r1_chunk, _reduce_r1, 2.0, checkpoints=(0.2, 0.45, 0.7, 0.95), plan=_restart_plan),
    ExperimentSpec("sigma-s-characterization", "martingale characterization of the restarted class", _sigs_chunk, _reduce_sigma_s, 2.0, checkpoints=(0.5, 1.0, 1.5, 2.0), plan=_checkpoint_plan),
    ExperimentSpec("rho-algebra", "linearity, positivity, and product rules of the restart operator", _rho_chunk, _reduce_rho, 2.0, (1000, 2e-3), (1000, 2e-3), plan=_rho_plan, chunk_rows=128),
    ExperimentSpec("q-bracket", "quadratic bracket of the restarted driver", _qbracket_chunk, _reduce_qbracket, 2.0, checkpoints=_QUARTERS, plan=_restart_plan),
    ExperimentSpec("tanaka-abs", "signed local-time identity for the absolute value", _ladder_chunk, _reduce_tanaka, 1.0, _LADDER_SCALE, _LADDER_SCALE, plan=_ladder_plan),
    ExperimentSpec("tanaka-plus", "signed local-time identity for the positive part", _ladder_chunk, _reduce_tanaka, 1.0, _LADDER_SCALE, _LADDER_SCALE, plan=_ladder_plan),
    ExperimentSpec("tanaka-minus", "signed local-time identity for the negative part", _ladder_chunk, _reduce_tanaka, 1.0, _LADDER_SCALE, _LADDER_SCALE, plan=_ladder_plan),
    ExperimentSpec("ito", "second-order expansion along restarted paths", _ladder_chunk, _reduce_ito, 1.0, _LADDER_SCALE, _LADDER_SCALE, plan=_ladder_plan),
    # bridged between grid points and completed past the grid, so exact at any step
    ExperimentSpec("doob-maximal", "maximal identity for the supremum after the last zero", _doob_chunk, _reduce_doob, _MODEL_SPAN, (20000, 4e-3), (100000, 4e-3)),
    ExperimentSpec("passage-eq2", "boundary-crossing law stopped at a growth level, stepped boundary", _laws_chunk, _reduce_growth_1, _MODEL_SPAN),
    ExperimentSpec("passage-eq3", "boundary-crossing law over the full span, finite total integral", _laws_chunk, _reduce_full_span, _MODEL_SPAN),
    ExperimentSpec("passage-eq4", "probability-case crossing law with a unit boundary", _laws_chunk, _reduce_growth_1, _MODEL_SPAN),
    ExperimentSpec("passage-s32", "signed crossing law for the restarted reflected driver", _laws_chunk, _reduce_s32, _MODEL_SPAN),
    ExperimentSpec("a-infinity", "terminal growth law of the stopped reflected construction", _laws_chunk, _reduce_ainf, _MODEL_SPAN),
    ExperimentSpec("levy-eq5", "drawdown confinement law under the signed weight", _laws_chunk, _reduce_levy5, _MODEL_SPAN),
    ExperimentSpec("levy-eq6", "drawdown confinement law between supremum levels", _laws_chunk, _reduce_levy6, _MODEL_SPAN),
    ExperimentSpec("products", "closure of the zero-set class under products", _product_chunk, _reduce_products, 1.0, checkpoints=_QUARTERS, min_horizon=0.0, plan=_checkpoint_plan),
    ExperimentSpec("scaled-f", "closure of the zero-set class under growth rescaling", _scaled_chunk, _reduce_scaled, 1.0, checkpoints=_QUARTERS, min_horizon=0.0, plan=_checkpoint_plan),
    ExperimentSpec("membership", "pathwise membership checks for every construction", _membership_chunk, _reduce_membership, 1.0, (300, 1e-3), (300, 1e-3), plan=_membership_plan, chunk_rows=64),
    # the grid is the density model's own span, so no horizon applies; its
    # hit chance is bridged, so exact at any step, and it reads the common
    # steps' density blocks
    ExperimentSpec("zero-geometry", "geometry of the terminal-density zero set", _geom_chunk, _reduce_geometry, None),
)

EXPERIMENTS: dict[str, ExperimentSpec] = {spec.name: spec for spec in _SPECS}

# A chunk that two or more rows name is shared: the laws chunk and the ladder chunk.
_SHARED = frozenset(chunk for chunk, rows in Counter(spec.chunk for spec in _SPECS).items() if rows > 1)
# The last call of each shared chunk: (key, features, the experiments that have read them).
_KEPT: dict[Callable, tuple[tuple, dict[str, np.ndarray], set[str]]] = {}


def experiment_names() -> list[str]:
    return sorted(EXPERIMENTS)


def paper_anchor(name: str) -> str:
    return EXPERIMENTS[name].anchor


def _whole(option: str, value: object) -> int:
    """``value`` as an int, refused unless it is a whole number, because
    truncating it would run a request other than the one made."""
    if not (isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())):
        raise ConfigurationError(f"{option} must be a whole number, not {value!r}")
    return int(value)


def resolve_settings(cfg: ExperimentConfig, suite: str | None = None) -> ExperimentConfig:
    """The request with its scales filled from the suite, and its horizon
    and checkpoints from the registry row, once every option has been
    checked.  Counts and the seed become ints and the rest floats, so one
    run has one config hash however its numbers were written."""
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigurationError(f"unknown experiment {cfg.experiment!r}")
    if suite not in (None, "fast", "full"):
        raise ConfigurationError(f"unknown suite {suite!r}")
    spec = EXPERIMENTS[cfg.experiment]
    scale = spec.full if suite == "full" else spec.fast
    n_paths = _whole("n_paths", cfg.n_paths if cfg.n_paths is not None else scale[0])
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
    seed = _whole("master_seed", cfg.master_seed)
    check_key(seed)
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
    workers = _whole("workers", cfg.workers)
    if workers < 1:
        raise ConfigurationError("workers must be at least 1")
    return replace(
        cfg,
        n_paths=n_paths,
        step=float(step),
        horizon=horizon,
        master_seed=seed,
        checkpoints=checkpoints,
        workers=workers,
    )


def run_experiment(cfg: ExperimentConfig, suite: str | None = None) -> ExperimentRun:
    """Resolve, plan, compute the features, or read a shared chunk's kept
    ones, and reduce; every refusal comes before the first chunk."""
    st = resolve_settings(cfg, suite)
    spec = EXPERIMENTS[st.experiment]
    started = perf_counter()
    params = spec.plan(st)
    key = (st.master_seed, st.n_paths, params)
    kept = _KEPT.get(spec.chunk)
    if kept is not None and kept[0] == key and st.experiment not in kept[2]:
        kept[2].add(st.experiment)
        feats = kept[1]
    else:
        fn = functools.partial(spec.chunk, seed=st.master_seed, **params)
        feats = run_chunked(st.n_paths, fn, chunk_size=spec.chunk_rows, workers=st.workers)
        if spec.chunk in _SHARED:
            for values in feats.values():
                values.flags.writeable = False
            _KEPT[spec.chunk] = (key, feats, {st.experiment})
    checks, curves = spec.reduce(st, dict(feats))
    return ExperimentRun(
        name=st.experiment,
        paper_anchor=spec.anchor,
        settings=st,
        checks=tuple(checks),
        curves=tuple(curves),
        seconds=perf_counter() - started,
    )


def run_suite(suite: str, master_seed: int = DEFAULT_SEED, workers: int = 1) -> list[ExperimentRun]:
    runs = []
    for name in experiment_names():
        cfg = ExperimentConfig(experiment=name, master_seed=master_seed, workers=workers)
        runs.append(run_experiment(cfg, suite))
    return runs
