"""Weighted Monte Carlo estimates and the analytic target machinery.

Estimation linked to a signed reference measure happens through path
weights: terminal-density weights for signed expectations, their
normalized absolute values for expectations under the absolute
measure, and unit weights for the driving measure.  Everything here
consumes per-path feature arrays and such weights; nothing here
simulates.

Every verdict the report writes is built here, in one call that
returns its ``TargetCheck``: a weighted mean within 3 standard errors
of its target (``mean_check``), two estimates within a stated number
of combined errors (``agreement_check``), weighted means flat across
checkpoints, every pairwise z below 4 (``flatness_check``), and a
weighted Kolmogorov-Smirnov distance within 1.63/sqrt(n_eff) plus a
grid allowance (``ks_check``), besides the pathwise magnitude, count
and error-ratio verdicts.  Each rule's thresholds live only here.

The boundary table carries the closed-form pieces of the first-passage
laws: a positive piecewise-constant function of the growth process
(a constant boundary is its one-segment case), the integral of its
reciprocal, and the crossing probability they give from any state:
from the origin it states each target, and from a path's last state
it completes a path that has not crossed by its horizon.
``exponential_cdf`` is the accumulated-growth law of a constant density.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractError

__all__ = [
    "McEstimate",
    "weighted_mean",
    "effective_sample_size",
    "TargetCheck",
    "mean_check",
    "flatness_check",
    "ks_check",
    "agreement_check",
    "exact_check",
    "count_check",
    "ratio_check",
    "TableBoundary",
    "exponential_cdf",
]

# Verdict thresholds shared by every experiment.
_FLATNESS_Z = 4.0  # largest pairwise z between checkpoint means
_KS_SCALE = 1.63  # KS critical value times sqrt(effective sample size)
_MEAN_Z = 3.0  # standard errors a weighted mean may stray from its target
_RATIO_FLOOR = 1e-12  # errors below this are exact to rounding


@dataclass(frozen=True)
class McEstimate:
    """A weighted sample mean with its standard error."""

    value: float
    stderr: float

    @property
    def ci_lo(self) -> float:
        return self.value - 1.96 * self.stderr

    @property
    def ci_hi(self) -> float:
        return self.value + 1.96 * self.stderr


def weighted_mean(values: np.ndarray, weights: np.ndarray | None = None) -> McEstimate:
    """Mean of weight * value over paths, with its standard error.

    The weights are taken as given (not renormalized): terminal-density
    weights estimate the signed expectation, normalized absolute
    weights the absolute-measure expectation, None the plain one.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 2:
        raise ContractError("need a 1-d sample of size at least 2")
    prod = v if weights is None else v * np.asarray(weights, dtype=np.float64)
    return McEstimate(value=float(np.mean(prod)), stderr=float(np.std(prod, ddof=1) / np.sqrt(prod.size)))


def effective_sample_size(weights: np.ndarray) -> float:
    """Kish effective size (sum w)^2 / sum w^2 of a weighted sample."""
    w = np.asarray(weights, dtype=np.float64)
    denom = float(np.sum(w * w))
    if denom == 0.0:
        raise ContractError("all weights vanish")
    return float(np.sum(w)) ** 2 / denom


@dataclass(frozen=True, kw_only=True)
class TargetCheck:
    """One verdict against a frozen target, with its error budget.

    The tolerance splits into a statistical part (a multiple of the
    standard error), a grid allowance for discretization bias, and a
    truncation allowance for finite-horizon effects, which every
    builder leaves at 0 (each finite-horizon estimate is completed
    exactly); each component is kept on the record.  A builder states
    only what it sets: no standard error or z, and zero allowances, by
    default.
    """

    name: str
    kind: str
    target: float | None
    estimate: float
    passed: bool
    detail: str
    stderr: float | None = None
    z: float | None = None
    stat_tolerance: float = 0.0
    grid_allowance: float = 0.0
    truncation_allowance: float = 0.0
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def tolerance(self) -> float:
        return self.stat_tolerance + self.grid_allowance + self.truncation_allowance


def mean_check(
    name: str,
    target: float,
    values: np.ndarray,
    weights: np.ndarray | None = None,
    grid_allowance: float = 0.0,
) -> TargetCheck:
    """Weighted mean against a target within three standard errors plus
    the stated grid allowance."""
    est = weighted_mean(values, weights)
    gap = abs(est.value - target)
    stat_tol = _MEAN_Z * est.stderr
    if est.stderr > 0.0:
        z = gap / est.stderr
    else:
        z = float("inf") if gap > 0.0 else 0.0
    tol = stat_tol + grid_allowance
    return TargetCheck(
        name=name,
        kind="mean",
        target=target,
        estimate=est.value,
        stderr=est.stderr,
        z=float(z),
        stat_tolerance=stat_tol,
        grid_allowance=grid_allowance,
        passed=gap <= tol,
        detail=f"|{est.value:.6g} - {target:.6g}| = {gap:.3g} vs {tol:.3g}",
    )


def flatness_check(
    name: str,
    samples: np.ndarray,
    weights: np.ndarray | None,
    times: Sequence[float],
    label: str,
) -> TargetCheck:
    """Weighted means that agree across checkpoints.

    ``samples`` has one row per checkpoint.  Every pair of rows is
    compared by |difference| / combined stderr; the check passes when
    the largest such ratio stays below 4.  With common random numbers
    across rows this is conservative.  ``label`` names the weighting
    in the detail text.
    """
    s = np.asarray(samples, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != len(times):
        raise ContractError("need one row of samples per checkpoint")
    means = [weighted_mean(row, weights) for row in s]
    max_z = 0.0
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            se = float(np.hypot(means[i].stderr, means[j].stderr))
            if se == 0.0:
                if means[i].value != means[j].value:
                    max_z = float("inf")
                continue
            max_z = max(max_z, abs(means[i].value - means[j].value) / se)
    shown = ", ".join(f"{m.value:.5g}" for m in means)
    return TargetCheck(
        name=name,
        kind="flatness",
        target=None,
        estimate=max_z,
        z=max_z,
        stat_tolerance=_FLATNESS_Z,
        passed=max_z < _FLATNESS_Z,
        detail=f"{label} means [{shown}], max pairwise z = {max_z:.3f}",
    )


def ks_check(
    name: str,
    samples: np.ndarray,
    weights: np.ndarray | None,
    cdf: Callable[[np.ndarray], np.ndarray],
    grid_allowance: float = 0.0,
    tails: np.ndarray | None = None,
) -> TargetCheck:
    """Weighted one-sample Kolmogorov-Smirnov distance to a target cdf.

    The statistic is the sup distance between the weighted mean of the
    per-sample cdfs and the target; the critical value is 1.63 /
    sqrt(Kish effective sample size) plus the grid allowance for
    discretization bias.  Weights must be nonnegative (the mean cdf
    must be monotone).

    Without ``tails`` a sample c is the point mass 1{g >= c}.  With
    them a sample is a completed law 1{g >= c} (1 - r e^{-(g - c)}),
    r in [0, 1] its tail mass.  Its tail is exponential, so against
    ``exponential_cdf`` the gap is monotone between sorted samples and
    its sup is still read at each sample and just before it.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ContractError("need a 1-d sample of size at least 2")
    if weights is None:
        w = np.ones_like(x)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if np.any(w < 0.0):
            raise ContractError("ks_check needs nonnegative weights")
    order = np.argsort(x, kind="stable")
    xs, ws = x[order], w[order]
    total = float(np.sum(ws))
    if total <= 0.0:
        raise ContractError("weights sum to zero")
    if tails is None:
        after = np.cumsum(ws) / total
        before = after - ws / total
    else:
        # the open tails at each sample: sum over c_i <= c_k of
        # w_i r_i e^{-(c_k - c_i)}.  A prefix holds no term above e^{c_k},
        # so nothing cancels; completed laws are of growth levels, of
        # order one, far below where e^{c} overflows.
        wr = ws * np.asarray(tails, dtype=np.float64)[order]
        open_tails = np.cumsum(wr * np.exp(xs)) * np.exp(-xs)
        after = (np.cumsum(ws) - open_tails) / total
        before = after - (ws - wr) / total
    target = np.asarray(cdf(xs), dtype=np.float64)
    stat = float(max(np.max(np.abs(after - target)), np.max(np.abs(before - target))))
    n_eff = effective_sample_size(ws)
    critical = _KS_SCALE / float(np.sqrt(n_eff)) + grid_allowance
    return TargetCheck(
        name=name,
        kind="ks",
        target=0.0,
        estimate=stat,
        # split back off the summed critical value: 1.63/sqrt(n_eff)
        # taken alone can differ from it in the last bit of the report
        stat_tolerance=critical - grid_allowance,
        grid_allowance=grid_allowance,
        passed=stat <= critical,
        detail=f"ks {stat:.4f} vs {critical:.4f} (n_eff {n_eff:.0f})",
    )


def agreement_check(
    name: str, estimate: McEstimate, reference: McEstimate, stat_scale: float, detail: str
) -> TargetCheck:
    """Two estimates of one quantity agree within stat_scale combined
    standard errors (their stderrs added in quadrature).

    ``detail`` is a format string; its fields ``estimate``, ``target``
    and ``stderr`` receive the two values and the combined error.
    """
    combined = float(np.hypot(estimate.stderr, reference.stderr))
    gap = abs(estimate.value - reference.value)
    return TargetCheck(
        name=name,
        kind="mean",
        target=reference.value,
        estimate=estimate.value,
        stderr=combined,
        z=gap / combined if combined > 0.0 else 0.0,
        stat_tolerance=stat_scale * combined,
        passed=gap <= stat_scale * combined,
        detail=detail.format(estimate=estimate.value, target=reference.value, stderr=combined),
    )


def exact_check(name: str, magnitude: float, tolerance: float = 0.0) -> TargetCheck:
    """A pathwise magnitude that must not exceed a (possibly zero) tolerance."""
    m = float(magnitude)
    return TargetCheck(
        name=name,
        kind="exact",
        target=0.0,
        estimate=m,
        stat_tolerance=tolerance,
        passed=m <= tolerance,
        detail=f"magnitude {m:.3e} vs tolerance {tolerance:.3e}",
    )


def count_check(name: str, bad_count: int, detail: str = "") -> TargetCheck:
    """A violation counter that must be exactly zero."""
    return TargetCheck(
        name=name,
        kind="count",
        target=0.0,
        estimate=float(bad_count),
        passed=bad_count == 0,
        detail=detail or f"{bad_count} violations",
    )


def ratio_check(
    name: str,
    coarse_error: float,
    fine_error: float,
    min_ratio: float,
) -> TargetCheck:
    """Error halving between grids: coarse / fine must reach min_ratio.

    When both errors sit below 1e-12 the quantity is exact to rounding
    and the ratio criterion is met trivially.
    """
    exact = coarse_error < _RATIO_FLOOR and fine_error < _RATIO_FLOOR
    ratio = coarse_error / fine_error if fine_error > 0.0 and not exact else float("inf")
    return TargetCheck(
        name=name,
        kind="ratio",
        target=min_ratio,
        estimate=float(ratio),
        passed=exact or ratio >= min_ratio,
        detail=(
            f"both errors below {_RATIO_FLOOR:.1e}; exact to rounding"
            if exact
            else f"error ratio {ratio:.3f} vs required {min_ratio:.3f}"
        ),
        extras={"coarse_error": coarse_error, "fine_error": fine_error},
    )


@dataclass(frozen=True)
class TableBoundary:
    """Positive piecewise-constant boundary phi(A) of a growth process
    A, given as (start, value) segments.

    Starts must begin at 0 and increase; values may be inf (the
    reciprocal then contributes nothing, so the total reciprocal
    integral can be finite).  A constant boundary is one segment.  The
    crossing probabilities of the passage laws derive from the
    integral of the reciprocal.
    """

    segments: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.segments or self.segments[0][0] != 0.0:
            raise ConfigurationError("segments must start at 0")
        starts = [s for s, _ in self.segments]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ConfigurationError("segment starts must increase")
        if any(v <= 0.0 for _, v in self.segments):
            raise ConfigurationError("boundary values must be positive")

    def phi_of(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=np.float64)
        # each later segment overwrites from its start on; a fill and a
        # mask per segment cost far less than a search per entry
        out = np.full(s.shape, float(self.segments[0][1]))
        for start, v in self.segments[1:]:
            out[s >= start] = v
        return out

    def integral_to(self, u: np.ndarray | float) -> np.ndarray:
        """Integral of 1/phi over [0, u], elementwise."""
        u = np.asarray(u, dtype=np.float64)
        if np.any(u < 0.0):
            raise ConfigurationError("integral endpoint must be nonnegative")
        ends = [s for s, _ in self.segments[1:]] + [float("inf")]
        total = np.zeros(u.shape)
        for (a, v), b in zip(self.segments, ends):
            if np.isfinite(v):
                total += np.maximum(np.minimum(u, b) - a, 0.0) / v
        return total

    def crossing_probability(
        self, u: float, x: np.ndarray | float = 0.0, a: np.ndarray | float = 0.0
    ) -> np.ndarray | float:
        """Chance that X = N + A crosses phi(A) before A passes u, from
        X = x and A = a, for N a continuous local martingale and A
        nondecreasing and growing only on {X = 0} (elementwise; a float
        for scalar states).

        With I the reciprocal integral it is q + (1 - q)(1 - e^{-(I(u) -
        I(a))}) for a <= u and 0 past u: X reaches phi(a) before 0 with
        chance q = x / phi(a), and otherwise restarts from (0, a).  At
        x = a = 0 it is 1 - e^{-I(u)}; u = inf gives the full span, 1
        where I is infinite.
        """
        a = np.asarray(a, dtype=np.float64)
        q = np.asarray(x, dtype=np.float64) / self.phi_of(a)
        rest = self.integral_to(u) - self.integral_to(np.minimum(a, u))
        p = np.where(a > u, 0.0, q + (1.0 - q) * (1.0 - np.exp(-rest)))
        return p if p.ndim else float(p)


def exponential_cdf(x: np.ndarray) -> np.ndarray:
    """CDF 1 - exp(-x) of the unit-rate exponential law, the
    accumulated-growth law of a constant density; 0 below 0."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x < 0.0, 0.0, 1.0 - np.exp(-np.maximum(x, 0.0)))
