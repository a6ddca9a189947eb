"""Restart operator over a zero set, and the Q-calculus built on it.

The restart operator takes an adapted path functional and re-evaluates
it afresh on each maximal zero-free run of the underlying path: at time
t outside the zero set the functional sees only the segment from the
last zero up to t, and on the zero set the output is 0.  Integrals,
brackets, and occupation kernels against a zero set all follow the same
segment rule and are implemented with one shared prefix-sum gather, so
the algebraic identities between them hold bitwise, not just to
rounding.

That gather (``gathered_prefix``) and the occupation kernel
(``occupation_kernel``) take arrays shaped (..., n+1) and per-row
anchors.  The per-path functions here and in ``sigma_classes`` call
them on one path, and the ensemble chunks in ``experiments`` call them
on path rows, so the two forms share code, not just formulas.

Grid conventions: a run is the maximal index block sharing one
last-zero anchor; the anchor belongs to its own block; index 0 anchors
the initial block and is never a zero-set point.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .density import ZeroSetInfo
from .errors import ConfigurationError, ContractError, DegenerateShiftError
from .paths import Path, make_grid

__all__ = [
    "PathFunctional",
    "RunningSup",
    "RunningIntegralAgainst",
    "QuadraticVariation",
    "LocalTimeAt",
    "Constant",
    "Identity",
    "NetChange",
    "LinearCombination",
    "Product",
    "assert_adapted",
    "gathered_prefix",
    "kernel_bandwidth",
    "occupation_kernel",
    "rho",
    "shift",
    "q_integral",
    "q_bracket",
    "q_local_time",
    "QLocalTime",
    "tanaka_residual",
    "TanakaResidual",
    "ito_residual",
]


class PathFunctional(ABC):
    """Adapted functional of a discrete path.

    ``evaluate`` maps the value array of a path (and its step) to an
    equally long array whose entry i may depend only on values[: i+1].
    """

    @abstractmethod
    def evaluate(self, values: np.ndarray, step: float) -> np.ndarray: ...


class RunningSup(PathFunctional):
    """Running maximum of the path values."""

    def evaluate(self, values: np.ndarray, step: float) -> np.ndarray:
        return np.maximum.accumulate(values)


class RunningIntegralAgainst(PathFunctional):
    """Left-point integral of h(X) against dX."""

    def __init__(self, h: Callable[[np.ndarray], np.ndarray]):
        self.h = h

    def evaluate(self, values: np.ndarray, step: float) -> np.ndarray:
        if values.shape[0] < 2:
            return np.zeros_like(values)
        return gathered_prefix(np.asarray(self.h(values[:-1]), dtype=np.float64) * np.diff(values))


class QuadraticVariation(PathFunctional):
    """Realized quadratic variation: cumulative sum of squared steps."""

    def evaluate(self, values: np.ndarray, step: float) -> np.ndarray:
        return gathered_prefix(np.diff(values) ** 2)


class LocalTimeAt(PathFunctional):
    """Occupation-kernel local time at a level (``occupation_kernel``).

    Counts left endpoints within ``bandwidth`` of the level and scales
    by step / (2 * bandwidth).  Default bandwidth is sqrt(step).
    """

    def __init__(self, level: float, bandwidth: float | None = None):
        if bandwidth is not None and bandwidth <= 0.0:
            raise ConfigurationError("bandwidth must be positive")
        self.level = float(level)
        self.bandwidth = bandwidth

    def evaluate(self, values: np.ndarray, step: float) -> np.ndarray:
        return occupation_kernel(values, step, self.level, self.bandwidth)


class Constant(PathFunctional):
    """Constant functional, independent of the path."""

    def __init__(self, value: float):
        self.value = float(value)

    def evaluate(self, values: np.ndarray, step: float) -> np.ndarray:
        return np.full_like(values, self.value)


class Identity(PathFunctional):
    """Current value of the path."""

    def evaluate(self, values: np.ndarray, step: float) -> np.ndarray:
        return values.copy()


class NetChange(PathFunctional):
    """Change of the path value since its start."""

    def evaluate(self, values: np.ndarray, step: float) -> np.ndarray:
        return values - values[0]


class LinearCombination(PathFunctional):
    def __init__(self, coefficients: Sequence[float], functionals: Sequence[PathFunctional]):
        if len(coefficients) != len(functionals) or not functionals:
            raise ConfigurationError("need matching, non-empty coefficients and functionals")
        self.coefficients = [float(c) for c in coefficients]
        self.functionals = list(functionals)

    def evaluate(self, values: np.ndarray, step: float) -> np.ndarray:
        out = np.zeros_like(values)
        for c, phi in zip(self.coefficients, self.functionals):
            out += c * phi.evaluate(values, step)
        return out


class Product(PathFunctional):
    def __init__(self, functionals: Sequence[PathFunctional]):
        if not functionals:
            raise ConfigurationError("need at least one functional")
        self.functionals = list(functionals)

    def evaluate(self, values: np.ndarray, step: float) -> np.ndarray:
        out = np.ones_like(values)
        for phi in self.functionals:
            out *= phi.evaluate(values, step)
        return out


def assert_adapted(phi: PathFunctional, values: np.ndarray, step: float, probes: int = 4) -> None:
    """Probe a functional for adaptedness on a concrete path.

    Evaluates on truncated prefixes and requires bitwise agreement with
    the full evaluation; raises ContractError when entry i of the
    output is found to depend on values beyond index i.
    """
    full = phi.evaluate(values, step)
    if full.shape != values.shape:
        raise ContractError("functional output length must match its input")
    n = values.shape[0]
    cuts = np.unique(np.linspace(1, n - 1, num=min(probes, n - 1), dtype=int))
    for c in cuts:
        prefix = phi.evaluate(values[: c + 1], step)
        if not np.array_equal(prefix, full[: c + 1]):
            raise ContractError("functional is not adapted: prefix evaluation differs")


def _blocks(zs: ZeroSetInfo) -> Iterator[tuple[int, int]]:
    """Yield (anchor, last_index) for each maximal constant-anchor run."""
    anchors = zs.excursion_start_indices
    n = zs.grid.n_steps
    for i, g in enumerate(anchors):
        e = int(anchors[i + 1]) - 1 if i + 1 < len(anchors) else n
        yield int(g), e


def _check_same_grid(X: Path, zs: ZeroSetInfo) -> None:
    if X.grid != zs.grid:
        raise ContractError("path and zero set live on different grids")


def rho(phi: PathFunctional, X: Path, zs: ZeroSetInfo) -> Path:
    """Restart a functional over the zero set.

    Output is 0 at zero-set points; elsewhere the functional is
    evaluated afresh on the segment from the last zero.  The tail past
    the final zero therefore reproduces, entry for entry, the
    functional evaluated on the shifted path.
    """
    _check_same_grid(X, zs)
    values = X.values
    in_h = np.zeros(zs.grid.n_steps + 1, dtype=bool)
    in_h[zs.h_indices] = True
    out = np.zeros_like(values)
    for g, e in _blocks(zs):
        vals = phi.evaluate(values[g : e + 1], zs.grid.step)
        if in_h[g]:
            out[g + 1 : e + 1] = vals[1:]
        else:
            out[g : e + 1] = vals
    return Path(grid=X.grid, values=out)


def shift(X: Path, zs: ZeroSetInfo) -> Path:
    """The path restarted at its last zero: values from that time on.

    With an empty zero set this is the path itself.  Raises
    DegenerateShiftError when the last zero sits at the grid end and no
    shifted path remains.
    """
    _check_same_grid(X, zs)
    g = zs.gbar_index
    if g == 0:
        return X
    n_left = zs.grid.n_steps - g
    if n_left < 1:
        raise DegenerateShiftError("last zero at the grid end leaves no shifted path")
    sub = make_grid(step=zs.grid.step, horizon=n_left * zs.grid.step)
    return Path(grid=sub, values=X.values[g:].copy())


def gathered_prefix(c: np.ndarray, anchors: np.ndarray | None = None) -> np.ndarray:
    """Segment sums of per-interval contributions c, shaped (..., n).

    Returns the (..., n+1) prefix sums of c minus their values at the
    ``anchors`` column indices (the last-zero anchor of each grid point,
    or one anchor per row); without anchors, the plain prefix sums.
    """
    P = np.zeros(c.shape[:-1] + (c.shape[-1] + 1,))
    # cast into P and sum in place: no temporary when c is a boolean mask
    P[..., 1:] = c
    np.cumsum(P[..., 1:], axis=-1, out=P[..., 1:])
    if anchors is not None:
        P -= np.take_along_axis(P, anchors, axis=-1)
    return P


def kernel_bandwidth(step: float, bandwidth: float | None = None) -> float:
    """The occupation-kernel bandwidth: ``bandwidth``, or sqrt(step)."""
    b = float(bandwidth) if bandwidth is not None else float(np.sqrt(step))
    if b <= 0.0:
        raise ConfigurationError("bandwidth must be positive")
    return b


def occupation_kernel(
    values: np.ndarray,
    step: float,
    level: float = 0.0,
    bandwidth: float | None = None,
    anchors: np.ndarray | None = None,
) -> np.ndarray:
    """Occupation-kernel local time at a level, shaped like ``values``.

    Counts left endpoints x with |x - level| < b (b from
    ``kernel_bandwidth``), restarted at ``anchors`` as in
    ``gathered_prefix``, and scales the counts once by step / (2 b).
    The counts are exact integers, so any difference of two entries
    before the scaling is exact too.
    """
    b = kernel_bandwidth(step, bandwidth)
    left = values[..., :-1]
    # x - 0.0 == x, so level 0 skips one full-size temporary
    hits = np.abs(left - level) < b if level != 0.0 else np.abs(left) < b
    out = gathered_prefix(hits, anchors)
    out *= step / (2.0 * b)
    return out


def q_integral(
    h: np.ndarray | Callable[[np.ndarray], np.ndarray] | PathFunctional,
    X: Path,
    zs: ZeroSetInfo,
) -> Path:
    """Left-point integral of h against dX, restarted at each zero.

    At time t the value is the sum of h_k * (X_{k+1} - X_k) over
    intervals from the last zero up to t; it vanishes on the zero set,
    and the interval that crosses a zero is never charged.  ``h`` may
    be a per-grid-point array, a function of the current value, or a
    path functional (then evaluated afresh per segment, like the
    restart operator itself).
    """
    _check_same_grid(X, zs)
    values = X.values
    incs = np.diff(values)
    if isinstance(h, PathFunctional):
        out = np.zeros_like(values)
        for g, e in _blocks(zs):
            if e == g:
                continue
            seg = values[g : e + 1]
            hv = h.evaluate(seg, zs.grid.step)
            out[g : e + 1] = gathered_prefix(hv[:-1] * np.diff(seg))
        # Zero-set anchors already carry 0 from the local cumsum start.
        return Path(grid=X.grid, values=out)
    if callable(h):
        hw = np.asarray(h(values[:-1]), dtype=np.float64)
    else:
        hw = np.asarray(h, dtype=np.float64)
        if hw.shape[0] == values.shape[0]:
            hw = hw[:-1]
    if hw.shape[0] != incs.shape[0]:
        raise ContractError("integrand length must match the number of grid intervals")
    return Path(grid=X.grid, values=gathered_prefix(hw * incs, zs.gamma_index))


def q_bracket(X: Path, zs: ZeroSetInfo) -> Path:
    """Realized quadratic variation per zero-free segment."""
    _check_same_grid(X, zs)
    return Path(grid=X.grid, values=gathered_prefix(np.diff(X.values) ** 2, zs.gamma_index))


@dataclass(frozen=True)
class QLocalTime:
    """Occupation-kernel local time restarted over a zero set."""

    path: Path
    level: float
    bandwidth: float


def q_local_time(X: Path, level: float, zs: ZeroSetInfo, bandwidth: float | None = None) -> QLocalTime:
    """Occupation-kernel local time at a level, restarted at each zero.

    Counts left endpoints of the current segment within ``bandwidth``
    of the level, scaled by step / (2 * bandwidth); default bandwidth
    sqrt(step).
    """
    _check_same_grid(X, zs)
    b = kernel_bandwidth(zs.grid.step, bandwidth)
    vals = occupation_kernel(X.values, zs.grid.step, level, b, zs.gamma_index)
    return QLocalTime(path=Path(grid=X.grid, values=vals), level=level, bandwidth=b)


_TANAKA_FORMS = ("abs", "plus", "minus")


@dataclass(frozen=True)
class TanakaResidual:
    """Pathwise comparison of the two local-time estimators.

    ``identity_local_time`` backs the local time out of the discrete
    convex-function identity; ``kernel_local_time`` is the occupation
    kernel scaled to the same normalization; ``residual`` is their
    difference.
    """

    form: str
    level: float
    identity_local_time: Path
    kernel_local_time: Path
    residual: Path


def _form_pieces(form: str, left: np.ndarray, level: float):
    """Convex function and left-point derivative for one Tanaka form.

    Sign convention at the level itself: sgn(0) = -1, so the derivative
    masks are 1{x > a} and -1{x <= a}, and abs = plus + minus exactly.
    """
    if form == "abs":
        f = lambda x: np.abs(x - level)
        d = np.where(left > level, 1.0, -1.0)
        half = 1.0
    elif form == "plus":
        f = lambda x: np.maximum(x - level, 0.0)
        d = (left > level).astype(np.float64)
        half = 0.5
    elif form == "minus":
        f = lambda x: np.maximum(level - x, 0.0)
        d = -(left <= level).astype(np.float64)
        half = 0.5
    else:
        raise ConfigurationError(f"unknown Tanaka form {form!r}; expected one of {_TANAKA_FORMS}")
    return f, d, half


def tanaka_residual(
    X: Path,
    level: float,
    zs: ZeroSetInfo,
    form: str = "abs",
    bandwidth: float | None = None,
) -> TanakaResidual:
    """Residual between the convex-identity and kernel local times.

    Per zero-free segment, the identity local time is
    f(X_t) - f(X at the segment start) minus the restarted left-point
    integral of f' against dX, rescaled so that every form estimates
    the same symmetric local time.  The kernel estimate uses the same
    segments and bandwidth rules as ``q_local_time``.
    """
    _check_same_grid(X, zs)
    values = X.values
    f, d, half = _form_pieces(form, values[:-1], level)
    fx = f(values)
    lhs = fx - fx[zs.gamma_index]
    stoch = gathered_prefix(d * np.diff(values), zs.gamma_index)
    identity = (lhs - stoch) / half
    kernel = q_local_time(X, level, zs, bandwidth=bandwidth)
    residual = identity - kernel.path.values
    grid = X.grid
    return TanakaResidual(
        form=form,
        level=level,
        identity_local_time=Path(grid=grid, values=identity),
        kernel_local_time=kernel.path,
        residual=Path(grid=grid, values=residual),
    )


def ito_residual(
    F: Callable[[np.ndarray], np.ndarray],
    dF: Callable[[np.ndarray], np.ndarray],
    d2F: Callable[[np.ndarray], np.ndarray],
    X: Path,
    zs: ZeroSetInfo,
) -> Path:
    """Residual of the second-order expansion per zero-free segment.

    F(X_t) - F(X at the segment start) minus the restarted left-point
    sum of dF * increment + d2F / 2 * increment squared.  Quadratic F
    makes this vanish to rounding; smooth F decays like sqrt(step).
    """
    _check_same_grid(X, zs)
    values = X.values
    left = values[:-1]
    incs = np.diff(values)
    fx = np.asarray(F(values), dtype=np.float64)
    lhs = fx - fx[zs.gamma_index]
    c = np.asarray(dF(left), dtype=np.float64) * incs + 0.5 * np.asarray(d2F(left), dtype=np.float64) * incs**2
    return Path(grid=X.grid, values=lhs - gathered_prefix(c, zs.gamma_index))
