"""Weighted Monte Carlo estimates and the analytic target machinery.

Estimation linked to a signed reference measure happens through path
weights: terminal-density weights for signed expectations, their
normalized absolute values for expectations under the absolute
measure, and unit weights for the driving measure.  Everything here
consumes per-path feature arrays and such weights; nothing here
simulates.

The boundary table carries the closed-form pieces of the first-passage
laws: a positive piecewise-constant function of the running maximum
(a constant boundary is its one-segment case), the integral of its
reciprocal, and the crossing probabilities derived from it.
``exponential_cdf`` is the accumulated-growth law of a constant density.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import ConfigurationError, ContractError

__all__ = [
    "McEstimate",
    "weighted_mean",
    "effective_sample_size",
    "FlatnessReport",
    "flatness_test",
    "KsReport",
    "ks_test",
    "TargetCheck",
    "mean_check",
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
    n: int

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
    n = prod.size
    return McEstimate(
        value=float(np.mean(prod)),
        stderr=float(np.std(prod, ddof=1) / np.sqrt(n)),
        n=n,
    )


def effective_sample_size(weights: np.ndarray) -> float:
    """Kish effective size (sum w)^2 / sum w^2 of a weighted sample."""
    w = np.asarray(weights, dtype=np.float64)
    denom = float(np.sum(w * w))
    if denom == 0.0:
        raise ContractError("all weights vanish")
    return float(np.sum(w)) ** 2 / denom


@dataclass(frozen=True)
class FlatnessReport:
    """Pairwise comparison of weighted means across checkpoints."""

    times: tuple[float, ...]
    means: tuple[McEstimate, ...]
    max_z: float
    threshold: ClassVar[float] = _FLATNESS_Z

    @property
    def passed(self) -> bool:
        return self.max_z < self.threshold


def flatness_test(
    samples: np.ndarray,
    weights: np.ndarray | None,
    times: Sequence[float],
) -> FlatnessReport:
    """Test that weighted means agree across checkpoints.

    ``samples`` has one row per checkpoint.  Every pair of rows is
    compared by |difference| / combined stderr; the report passes when
    the largest such ratio stays below 4.  With common
    random numbers across rows this is conservative.
    """
    s = np.asarray(samples, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != len(times):
        raise ContractError("need one row of samples per checkpoint")
    means = tuple(weighted_mean(row, weights) for row in s)
    max_z = 0.0
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            se = float(np.hypot(means[i].stderr, means[j].stderr))
            if se == 0.0:
                if means[i].value != means[j].value:
                    max_z = float("inf")
                continue
            max_z = max(max_z, abs(means[i].value - means[j].value) / se)
    return FlatnessReport(times=tuple(float(t) for t in times), means=means, max_z=max_z)


@dataclass(frozen=True)
class KsReport:
    """Weighted one-sample Kolmogorov-Smirnov comparison."""

    statistic: float
    n_effective: float
    critical: float

    @property
    def passed(self) -> bool:
        return self.statistic <= self.critical


def ks_test(
    samples: np.ndarray,
    weights: np.ndarray | None,
    cdf: Callable[[np.ndarray], np.ndarray],
    extra_allowance: float = 0.0,
) -> KsReport:
    """Sup distance between the weighted empirical cdf and a target cdf.

    The critical value is 1.63 / sqrt(effective sample size) plus a
    caller-supplied allowance for discretization bias.  Weights must
    be nonnegative (the empirical cdf must be monotone).
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ContractError("need a 1-d sample of size at least 2")
    if weights is None:
        w = np.ones_like(x)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if np.any(w < 0.0):
            raise ContractError("ks_test needs nonnegative weights")
    order = np.argsort(x, kind="stable")
    xs, ws = x[order], w[order]
    total = float(np.sum(ws))
    if total <= 0.0:
        raise ContractError("weights sum to zero")
    after = np.cumsum(ws) / total
    before = after - ws / total
    target = np.asarray(cdf(xs), dtype=np.float64)
    stat = float(max(np.max(np.abs(after - target)), np.max(np.abs(before - target))))
    n_eff = effective_sample_size(ws)
    return KsReport(statistic=stat, n_effective=n_eff, critical=_KS_SCALE / float(np.sqrt(n_eff)) + extra_allowance)


@dataclass(frozen=True, kw_only=True)
class TargetCheck:
    """One verdict against a frozen target, with its error budget.

    The tolerance splits into a statistical part (a multiple of the
    standard error), a grid allowance for discretization bias, and a
    truncation allowance for finite-horizon effects; each component is
    kept on the record.  A builder states only what it sets: no
    standard error or z, and zero allowances, by default.
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
    truncation_allowance: float = 0.0,
) -> TargetCheck:
    """Weighted mean against a target within three standard errors plus
    the stated allowances."""
    est = weighted_mean(values, weights)
    gap = abs(est.value - target)
    stat_tol = _MEAN_Z * est.stderr
    if est.stderr > 0.0:
        z = gap / est.stderr
    else:
        z = float("inf") if gap > 0.0 else 0.0
    tol = stat_tol + grid_allowance + truncation_allowance
    return TargetCheck(
        name=name,
        kind="mean",
        target=target,
        estimate=est.value,
        stderr=est.stderr,
        z=float(z),
        stat_tolerance=stat_tol,
        grid_allowance=grid_allowance,
        truncation_allowance=truncation_allowance,
        passed=gap <= tol,
        detail=f"|{est.value:.6g} - {target:.6g}| = {gap:.3g} vs {tol:.3g}",
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
    """Positive piecewise-constant boundary of the running maximum,
    given as (start, value) segments.

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

    @property
    def cap(self) -> float:
        """Largest growth level at which the boundary is still finite."""
        return next((s for s, v in self.segments if not np.isfinite(v)), float("inf"))

    def phi_of(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=np.float64)
        # each later segment overwrites from its start on; a fill and a
        # mask per segment cost far less than a search per entry
        out = np.full(s.shape, float(self.segments[0][1]))
        for start, v in self.segments[1:]:
            out[s >= start] = v
        return out

    def integral_to(self, u: float) -> float:
        """Integral of 1/phi over [0, u]."""
        if u < 0.0:
            raise ConfigurationError("integral endpoint must be nonnegative")
        total = 0.0
        for i, (a, v) in enumerate(self.segments):
            b = self.segments[i + 1][0] if i + 1 < len(self.segments) else float("inf")
            span = min(u, b) - a
            if span <= 0.0:
                break
            if np.isfinite(v):
                total += span / v
        return total

    def integral_total(self) -> float:
        """Integral of 1/phi over [0, infinity); may be inf."""
        return self.integral_to(float("inf"))

    # Crossing probabilities.  With I the reciprocal integral, the chance
    # of crossing the boundary before the running maximum passes u is
    # 1 - exp(-I(u)); over the full span I(u) becomes the total integral.

    def crossing_probability(self, u: float) -> float:
        return 1.0 - float(np.exp(-self.integral_to(u)))

    def full_crossing_probability(self) -> float:
        total = self.integral_total()
        return 1.0 if np.isinf(total) else 1.0 - float(np.exp(-total))


def exponential_cdf(x: np.ndarray) -> np.ndarray:
    """CDF 1 - exp(-x) of the unit-rate exponential law, the
    accumulated-growth law of a constant density; 0 below 0."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x < 0.0, 0.0, 1.0 - np.exp(-np.maximum(x, 0.0)))
