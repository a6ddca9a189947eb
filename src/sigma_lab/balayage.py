"""Restart operator over a zero set, and the Q-calculus built on it.

The restart operator takes an adapted path functional and re-evaluates
it afresh on each maximal zero-free run of the underlying path: at time
t outside the zero set the functional sees only the segment from the
last zero up to t, and on the zero set the output is 0.  Integrals,
brackets, and occupation kernels against a zero set all follow the same
segment rule and are implemented with one shared prefix-sum gather, so
the algebraic identities between them hold bitwise, not just to
rounding.

Every function here works along the last axis of arrays shaped
(..., n+1), with per-row anchors: the gather (``gathered_prefix``),
the occupation kernel (``occupation_kernel``), and every path
functional, a plain function of (values, step) that maps each row on
its own: ``running_sup``, ``quadratic_variation``, ``net_change``,
the factories ``constant``, ``integral_against``,
``linear_combination`` and ``product_of``, and the local time at a
level, ``functools.partial(occupation_kernel, level=level)``.
``rho``, ``q_integral``, ``q_bracket``, ``q_local_time``,
``tanaka_residual`` and ``ito_residual`` take a ``Path`` of one path
or of rows with a ``ZeroSetInfo`` of the same shape, so a row of a
chunk's result equals that path's own call bit for bit.
``SegmentLayout`` gathers the zero-free runs of a whole chunk of rows
once, grouped by length, and evaluates a functional on all of them at
a time; ``rho`` restarts through it, and a caller that restarts many
functionals over one chunk keeps one layout for all of them.
``shift`` is defined for one path only.  The kernel's bandwidth is
sqrt(step) everywhere.

Grid conventions: a run is the maximal index block sharing one
last-zero anchor; the anchor belongs to its own block; index 0 anchors
the initial block and is never a zero-set point.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .density import ZeroSetInfo
from .errors import ConfigurationError, ContractError, DegenerateShiftError
from .paths import Path, make_grid

__all__ = [
    "PathFunctional",
    "running_sup",
    "quadratic_variation",
    "net_change",
    "constant",
    "integral_against",
    "linear_combination",
    "product_of",
    "assert_adapted",
    "SegmentLayout",
    "gathered_prefix",
    "occupation_kernel",
    "rho",
    "shift",
    "q_integral",
    "q_bracket",
    "q_local_time",
    "tanaka_residual",
    "TanakaResidual",
    "ito_residual",
]


# A path functional maps value rows shaped (..., n+1), and their step,
# to an equally shaped array along the last axis: each output row
# depends on its own input row alone, and its entry i only on that
# row's values[: i+1].  A one-dimensional path is the one-row case.
# ``assert_adapted`` probes both halves of this contract, and
# ``SegmentLayout`` relies on them to evaluate many runs in one call.
PathFunctional = Callable[[np.ndarray, float], np.ndarray]


def running_sup(values: np.ndarray, step: float) -> np.ndarray:
    """Running maximum of the path values."""
    return np.maximum.accumulate(values, axis=-1)


def quadratic_variation(values: np.ndarray, step: float) -> np.ndarray:
    """Realized quadratic variation: cumulative sum of squared steps."""
    return gathered_prefix(np.diff(values, axis=-1) ** 2)


def net_change(values: np.ndarray, step: float) -> np.ndarray:
    """Change of the path value since its start."""
    return values - values[..., :1]


def constant(value: float) -> PathFunctional:
    """Constant functional, independent of the path."""
    value = float(value)
    return lambda values, step: np.full_like(values, value)


def integral_against(phi: PathFunctional) -> PathFunctional:
    """Left-point integral of a functional's own values against dX."""

    def integral(values: np.ndarray, step: float) -> np.ndarray:
        return gathered_prefix(phi(values, step)[..., :-1] * np.diff(values, axis=-1))

    return integral


def linear_combination(coefficients: Sequence[float], functionals: Sequence[PathFunctional]) -> PathFunctional:
    """Sum of c * phi over the pairs, added in order onto zeros."""
    if len(coefficients) != len(functionals) or not functionals:
        raise ConfigurationError("need matching, non-empty coefficients and functionals")
    terms = [(float(c), phi) for c, phi in zip(coefficients, functionals)]

    def combination(values: np.ndarray, step: float) -> np.ndarray:
        out = np.zeros_like(values)
        for c, phi in terms:
            out += c * phi(values, step)
        return out

    return combination


def product_of(functionals: Sequence[PathFunctional]) -> PathFunctional:
    """Product of the functionals, multiplied in order onto ones."""
    if not functionals:
        raise ConfigurationError("need at least one functional")
    factors = list(functionals)

    def prod(values: np.ndarray, step: float) -> np.ndarray:
        out = np.ones_like(values)
        for phi in factors:
            out *= phi(values, step)
        return out

    return prod


def assert_adapted(phi: PathFunctional, values: np.ndarray, step: float) -> None:
    """Probe a functional for its evaluation contract on a concrete path.

    Evaluates on up to four truncated prefixes and requires bitwise
    agreement with the full evaluation; then evaluates the two-row
    stack of the path and its reversal and requires each output row to
    equal that row evaluated alone.  Raises ContractError when entry i
    of the output is found to depend on values beyond index i, or on
    another row.
    """
    full = phi(values, step)
    if full.shape != values.shape:
        raise ContractError("functional output length must match its input")
    n = values.shape[0]
    cuts = np.unique(np.linspace(1, n - 1, num=min(4, n - 1), dtype=int))
    for c in cuts:
        prefix = phi(values[: c + 1], step)
        if not np.array_equal(prefix, full[: c + 1]):
            raise ContractError("functional is not adapted: prefix evaluation differs")
    rows = np.stack([values, values[::-1]])
    stacked = phi(rows, step)
    if stacked.shape != rows.shape or not all(
        np.array_equal(stacked[k], phi(rows[k], step)) for k in range(2)
    ):
        raise ContractError("functional does not work along the last axis: a row stack evaluates differently")


# Runs shorter than this share one bucket: it saves functional calls on the
# many short runs near a crossing, at a few padded entries each.
_MIN_WIDTH_LOG2 = 3


class SegmentLayout:
    """The zero-free runs of a chunk of rows, gathered once by length.

    ``values`` are rows shaped (R, n+1) and ``in_h`` their zero-set
    masks.  Each run (its row, anchor and length) joins the bucket of
    the smallest power of two, at least 8, that covers its length.  A
    bucket holds its runs' values as one matrix, read on past each
    run's end (past the row end, the last value repeats); an adapted
    functional never looks there.  ``restart`` evaluates a functional
    once per bucket and scatters each run's entries back, so it equals
    the functional evaluated run by run, bit for bit.
    """

    def __init__(self, values: np.ndarray, in_h: np.ndarray):
        if values.ndim != 2 or in_h.shape != values.shape:
            raise ContractError("segment layout needs value rows and zero-set masks of one shape")
        width = values.shape[1]
        starts = in_h.copy()
        starts[:, 0] = True
        anchor = np.flatnonzero(starts)  # flat index of each run's anchor
        length = np.diff(anchor, append=starts.size)
        row_last = anchor - anchor % width + width - 1
        log2 = np.maximum(np.ceil(np.log2(length)).astype(np.int64), _MIN_WIDTH_LOG2)
        flat = values.reshape(-1)
        self.shape = values.shape
        self._buckets = []
        for b in np.unique(log2):
            sel = log2 == b
            offsets = np.arange(1 << int(b))
            idx = np.minimum(anchor[sel, None] + offsets, row_last[sel, None])
            keep = offsets < length[sel, None]
            # only each row's initial run keeps its anchor entry; a run
            # opened by a zero books 0 there
            keep[:, 0] = anchor[sel] % width == 0
            self._buckets.append((flat[idx], keep, idx[keep]))

    def restart(self, phi: PathFunctional, step: float) -> np.ndarray:
        """The functional restarted on every run: the ``rho`` row kernel."""
        out = np.zeros(self.shape)
        flat = out.reshape(-1)
        for vals, keep, targets in self._buckets:
            res = phi(vals, step)
            if res.shape != vals.shape:
                raise ContractError("functional output shape must match its input")
            flat[targets] = res[keep]
        return out


def rho(phi: PathFunctional, X: Path, zs: ZeroSetInfo) -> Path:
    """Restart a functional over the zero set, row by row.

    Output is 0 at zero-set points; elsewhere the functional is
    evaluated afresh on the segment from the last zero.  The tail past
    the final zero therefore reproduces, entry for entry, the
    functional evaluated on the shifted path.  Restarts through one
    ``SegmentLayout`` of the rows.
    """
    zs.check_path(X)
    width = X.values.shape[-1]
    layout = SegmentLayout(X.values.reshape(-1, width), zs.in_h.reshape(-1, width))
    return Path(grid=X.grid, values=layout.restart(phi, zs.grid.step).reshape(X.values.shape))


def shift(X: Path, zs: ZeroSetInfo) -> Path:
    """The path restarted at its last zero: values from that time on.

    With an empty zero set this is the path itself.  Defined for one
    path only: shifted rows would live on different grids.  Raises
    DegenerateShiftError when the last zero sits at the grid end and
    no shifted path remains.
    """
    zs.check_path(X)
    if X.values.ndim != 1:
        raise ContractError("shift is defined for one path, not for rows")
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


def occupation_kernel(
    values: np.ndarray,
    step: float,
    level: float = 0.0,
    anchors: np.ndarray | None = None,
) -> np.ndarray:
    """Occupation-kernel local time at a level, shaped like ``values``.

    Counts left endpoints x with |x - level| < b, the bandwidth
    b = sqrt(step), restarted at ``anchors`` as in ``gathered_prefix``,
    and scales the counts once by step / (2 b).  The counts are exact
    integers, so any difference of two entries before the scaling is
    exact too.
    """
    b = float(np.sqrt(step))
    left = values[..., :-1]
    # x - 0.0 == x, so level 0 skips one full-size temporary
    hits = np.abs(left - level) < b if level != 0.0 else np.abs(left) < b
    out = gathered_prefix(hits, anchors)
    out *= step / (2.0 * b)
    return out


def q_integral(
    h: np.ndarray | Callable[[np.ndarray], np.ndarray],
    X: Path,
    zs: ZeroSetInfo,
) -> Path:
    """Left-point integral of h against dX, restarted at each zero.

    At time t the value is the sum of h_k * (X_{k+1} - X_k) over
    intervals from the last zero up to t; it vanishes on the zero set,
    and the interval that crosses a zero is never charged.  ``h`` may
    be a per-grid-point array or a function of the current value; a
    path functional integrand, evaluated afresh per segment, is
    ``rho(integral_against(h), X, zs)``.
    """
    zs.check_path(X)
    values = X.values
    incs = np.diff(values, axis=-1)
    if callable(h):
        hw = np.asarray(h(values[..., :-1]), dtype=np.float64)
    else:
        hw = np.asarray(h, dtype=np.float64)
        if hw.shape[-1] == values.shape[-1]:
            hw = hw[..., :-1]
    if hw.shape[-1] != incs.shape[-1]:
        raise ContractError("integrand length must match the number of grid intervals")
    return Path(grid=X.grid, values=gathered_prefix(hw * incs, zs.gamma_index))


def q_bracket(X: Path, zs: ZeroSetInfo) -> Path:
    """Realized quadratic variation per zero-free segment."""
    zs.check_path(X)
    return Path(grid=X.grid, values=gathered_prefix(np.diff(X.values, axis=-1) ** 2, zs.gamma_index))


def q_local_time(X: Path, level: float, zs: ZeroSetInfo) -> Path:
    """Occupation-kernel local time at a level, restarted at each zero.

    Counts left endpoints of the current segment within sqrt(step) of
    the level, scaled by step / (2 * sqrt(step)).
    """
    zs.check_path(X)
    return Path(grid=X.grid, values=occupation_kernel(X.values, zs.grid.step, level, zs.gamma_index))


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
) -> TanakaResidual:
    """Residual between the convex-identity and kernel local times.

    Per zero-free segment, the identity local time is
    f(X_t) - f(X at the segment start) minus the restarted left-point
    integral of f' against dX, rescaled so that every form estimates
    the same symmetric local time.  The integral is ``q_integral`` of
    f' and the kernel estimate ``q_local_time``, on the same segments.
    """
    values, grid = X.values, X.grid
    f, d, half = _form_pieces(form, values[..., :-1], level)
    stoch = q_integral(d, X, zs).values
    fx = f(values)
    identity = (fx - np.take_along_axis(fx, zs.gamma_index, axis=-1) - stoch) / half
    kernel = q_local_time(X, level, zs)
    return TanakaResidual(
        form=form,
        level=level,
        identity_local_time=Path(grid=grid, values=identity),
        kernel_local_time=kernel,
        residual=Path(grid=grid, values=identity - kernel.values),
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
    zs.check_path(X)
    values, gamma = X.values, zs.gamma_index
    left = values[..., :-1]
    incs = np.diff(values, axis=-1)
    fx = np.asarray(F(values), dtype=np.float64)
    lhs = fx - np.take_along_axis(fx, gamma, axis=-1)
    c = np.asarray(dF(left), dtype=np.float64) * incs + 0.5 * np.asarray(d2F(left), dtype=np.float64) * incs**2
    return Path(grid=X.grid, values=lhs - gathered_prefix(c, gamma))
