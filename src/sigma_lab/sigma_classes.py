"""Decompositions X = N + A, their constructors, and membership checks.

A decomposition holds three paths on one grid: the nonnegative process
X, its driving part N, and the increasing part A whose growth is
carried by the zero set of X.  Three class tags are distinguished:

``classical``
    A starts at 0 and never decreases; no ambient zero set.
``sigma_h``
    Same, relative to an ambient zero set H: growth of A is allowed
    both where X vanishes and on H itself.  Where the data show that
    X vanishes on H and that A is still 0 at the last zero, the part
    of the path after the last zero must again be a classical member.
``sigma_s_h``
    The restarted variant: X, N, A all vanish on H, and A restarts
    from 0 after each zero, so A is increasing within each zero-free
    run and drops back to 0 when a zero is hit.

A decomposition records the triple, its class tag and zero set, any
warnings of its construction, and two scales for the verifier.
``gap_scale`` is 0.0 where N = X - A holds bitwise (every constructor
that assembles N so); the kernel ``pm_combination`` records the mean
weight its A puts on the identity residual instead.  ``support_scale``
is the level below which X counts as "at zero" for the support check:
0 for constructions whose A provably grows only at exact zeros, and
the kernel bandwidth sqrt(step) (times the weight of the construction)
for the occupation-kernel ones; ``assemble`` defaults it to sqrt(step).

The constructors and the checks run on path rows.  ``MemberRows`` is
the row form of a decomposition: X, N and A shaped (R, n+1), the zero
sets as one ``ZeroGeometry``, and a support scale per row.  The row
constructors (``drawdown_rows``, ``pm_rows``, ``lifted_rows``,
``product_rows``, ``scaled_rows``) build it, and ``membership_rows``
runs every check on all rows at once, with each row's own zero set and
tolerances.  The per-path constructors and ``verify_membership`` are
the one-row case of these kernels, so a per-path verdict equals its
ensemble row bit for bit; each row's support mass is summed on its
own, in the order a lone ``np.sum`` would take.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .balayage import PathFunctional, SegmentLayout, gathered_prefix, occupation_kernel
from .density import ZeroGeometry, ZeroSetInfo, empty_zero_set
from .errors import ConfigurationError, ContractError
from .paths import Path, TimeGrid, first_hit

__all__ = [
    "CLASSICAL",
    "SIGMA_H",
    "SIGMA_SH",
    "Decomposition",
    "MemberRows",
    "assemble",
    "abs_martingale",
    "pm_combination",
    "pm_rows",
    "drawdown",
    "drawdown_rows",
    "lifted_reflected",
    "lifted_rows",
    "retag",
    "product",
    "product_rows",
    "scaled_by_f",
    "scaled_rows",
    "sigma_s_characterization_process",
    "CheckOutcome",
    "SupportCheck",
    "MembershipReport",
    "MembershipRows",
    "membership_rows",
    "verify_membership",
]

CLASSICAL = "classical"
SIGMA_H = "sigma_h"
SIGMA_SH = "sigma_s_h"
_TAGS = (CLASSICAL, SIGMA_H, SIGMA_SH)


@dataclass(frozen=True)
class Decomposition:
    """One path triple X = N + A with its class bookkeeping."""

    x: Path
    n: Path
    a: Path
    class_tag: str
    support_scale: float
    zero_set: ZeroSetInfo | None = None
    warnings: tuple[str, ...] = ()
    gap_scale: float = 0.0

    def __post_init__(self) -> None:
        if self.class_tag not in _TAGS:
            raise ConfigurationError(f"unknown class tag {self.class_tag!r}")
        if not (self.x.grid == self.n.grid == self.a.grid):
            raise ContractError("decomposition parts live on different grids")
        if self.class_tag != CLASSICAL and self.zero_set is None:
            raise ContractError(f"class {self.class_tag!r} needs a zero set")
        if self.zero_set is not None and self.zero_set.grid != self.x.grid:
            raise ContractError("zero set grid does not match the paths")

    @property
    def grid(self) -> TimeGrid:
        return self.x.grid


@dataclass(frozen=True, eq=False)
class MemberRows:
    """Decompositions of a chunk of paths, one per row of (R, n+1) arrays.

    The row form of ``Decomposition``: the zero sets are one
    ``ZeroGeometry`` (None for the empty set), and the support scale
    holds one entry per row.  The row constructors build these, and
    ``membership_rows`` checks them.
    """

    x: np.ndarray
    n: np.ndarray
    a: np.ndarray
    class_tag: str
    support_scale: np.ndarray
    zeros: ZeroGeometry | None = None
    gap_scale: float = 0.0


def _rows(x: np.ndarray, a: np.ndarray, class_tag: str, support_scale, zeros: ZeroGeometry | None) -> MemberRows:
    """Member rows with N = X - A bitwise."""
    scale = np.broadcast_to(np.asarray(support_scale, dtype=np.float64), x.shape[:1])
    return MemberRows(x=x, n=x - a, a=a, class_tag=class_tag, support_scale=scale, zeros=zeros)


def _geometry(zs: ZeroSetInfo) -> ZeroGeometry:
    """One path's zero set as a one-row geometry."""
    return ZeroGeometry(in_h=zs.in_h[None], gamma_idx=zs.gamma_index[None], gbar_idx=np.array([zs.gbar_index]))


def _one(rows: MemberRows, grid: TimeGrid, zs: ZeroSetInfo | None, warnings: tuple[str, ...] = ()) -> Decomposition:
    """The decomposition of a one-row ``MemberRows`` over the zero set ``zs``."""
    return Decomposition(
        x=Path(grid=grid, values=rows.x[0]),
        n=Path(grid=grid, values=rows.n[0]),
        a=Path(grid=grid, values=rows.a[0]),
        class_tag=rows.class_tag,
        support_scale=float(rows.support_scale[0]),
        zero_set=zs,
        warnings=warnings,
        gap_scale=rows.gap_scale,
    )


def _zero_set_or_empty(zs: ZeroSetInfo | None, grid: TimeGrid) -> ZeroSetInfo:
    if zs is None:
        return empty_zero_set(grid)
    if zs.grid != grid:
        raise ContractError("zero set grid does not match the path")
    return zs


def assemble(
    x: Path,
    a: Path,
    class_tag: str = CLASSICAL,
    zero_set: ZeroSetInfo | None = None,
    warnings: tuple[str, ...] = (),
    support_scale: float | None = None,
) -> Decomposition:
    """Build a decomposition from X and A, with N defined as X - A.

    The identity check then holds bitwise by construction; everything
    else about the triple is still up to ``verify_membership``.  The
    support scale defaults to the kernel bandwidth sqrt(step).
    """
    n = Path(grid=x.grid, values=x.values - a.values)
    if support_scale is None:
        support_scale = float(np.sqrt(x.grid.step))
    return Decomposition(
        x=x, n=n, a=a, class_tag=class_tag, support_scale=support_scale,
        zero_set=zero_set, warnings=warnings,
    )


def abs_martingale(M: Path, zs: ZeroSetInfo | None = None) -> Decomposition:
    """|M| with its sign-integral part and a kernel local time at 0.

    N is the left-point integral of the sign of M (sign 0 counted as
    -1) against dM; A is the plain, unrestarted occupation kernel at
    level 0, so relative to an ambient zero set its growth may land on
    H as well as on the zeros of X.  The decomposition identity holds
    only up to the kernel error, hence a positive ``gap_scale``.  This
    is ``pm_combination`` at unit weights.
    """
    return pm_combination(M, 1.0, 1.0, zs)


def pm_rows(
    w: np.ndarray, alpha: float, beta: float, step: float, zeros: ZeroGeometry | None = None
) -> MemberRows:
    """``pm_combination`` of martingale rows started at 0."""
    if alpha <= 0.0 or beta <= 0.0:
        raise ConfigurationError("pm_combination needs strictly positive weights")
    if np.any(w[:, 0] != 0.0):
        raise ContractError("pm_combination needs a path started at 0")
    x = alpha * np.maximum(w, 0.0) + beta * np.maximum(-w, 0.0)
    integrand = np.where(w[:, :-1] > 0.0, alpha, -beta)
    n = gathered_prefix(integrand * np.diff(w, axis=-1))
    a = ((alpha + beta) / 2.0) * occupation_kernel(w, step)
    scale = np.full(w.shape[0], max(alpha, beta) * float(np.sqrt(step)))
    return MemberRows(x=x, n=n, a=a, class_tag=SIGMA_H, support_scale=scale, zeros=zeros, gap_scale=(alpha + beta) / 2.0)


def pm_combination(
    M: Path,
    alpha: float,
    beta: float,
    zs: ZeroSetInfo | None = None,
) -> Decomposition:
    """alpha * positive part + beta * negative part of a martingale.

    X = alpha M+ + beta M-; N integrates (alpha on M > 0, -beta
    elsewhere) against dM; A is ((alpha+beta)/2) times the kernel
    local time at 0.  At alpha = beta = 1 every array coincides
    bitwise with ``abs_martingale``.  Both weights must be strictly
    positive; X scales the kernel band by up to max(alpha, beta),
    recorded as the support scale, and the identity residual by the
    mean weight, recorded as the gap scale.  The one-row case of
    ``pm_rows``.
    """
    rows = pm_rows(M.values[None], alpha, beta, M.grid.step)
    return _one(rows, M.grid, _zero_set_or_empty(zs, M.grid))


def drawdown_rows(w: np.ndarray) -> MemberRows:
    """``drawdown`` of path rows, over the empty zero set."""
    s = np.maximum.accumulate(w, axis=-1)
    return _rows(s - w, s - s[:, :1], SIGMA_H, 0.0, None)


def drawdown(M: Path, zs: ZeroSetInfo | None = None) -> Decomposition:
    """Running max minus the path: X = S - M, A = S - S_0, N = X - A.

    A grows exactly at the indices where a new maximum is set, and
    there X is exactly zero, so the support condition holds with zero
    tolerance.  Exact by assembly; N agrees with -(M - M_0) up to
    rounding.  The one-row case of ``drawdown_rows``.
    """
    return _one(drawdown_rows(M.values[None]), M.grid, _zero_set_or_empty(zs, M.grid))


class _HeldAt(PathFunctional):
    """The path held at its value where it first reaches a level."""

    def __init__(self, level: float):
        self.level = level

    def evaluate(self, values: np.ndarray, step: float) -> np.ndarray:
        last = values.shape[-1] - 1
        hit = first_hit(values >= self.level)
        k = np.where(hit >= 0, hit, last)[..., None]
        return np.where(np.arange(last + 1) >= k, np.take_along_axis(values, k, axis=-1), values)


def lifted_rows(
    w: np.ndarray, zeros: ZeroGeometry, step: float, stop_level: float | None = None
) -> MemberRows:
    """``lifted_reflected`` of driver rows over their zero sets."""
    x = np.abs(w - np.take_along_axis(w, zeros.gamma_idx, axis=-1))
    if stop_level is not None:
        if stop_level <= 0.0:
            raise ConfigurationError("stop_level must be positive")
        # every run starts at X = 0, below the level, so the restart's
        # zero at each anchor is X's own value there
        x = SegmentLayout(x, zeros.in_h).restart(_HeldAt(stop_level), step)
    a = occupation_kernel(x, step, anchors=zeros.gamma_idx)
    return _rows(x, a, SIGMA_SH, float(np.sqrt(step)), zeros)


def lifted_reflected(
    W: Path,
    zs: ZeroSetInfo,
    stop_level: float | None = None,
) -> Decomposition:
    """Reflected restart of a driver over a zero set.

    Within each zero-free run the path is |W_t - W at the run anchor|
    and A is the occupation kernel of those run increments at 0, so
    X, N and A all vanish exactly on the zero set.  Past the last
    zero this realizes the reflected process of the shifted driver
    together with its local time; the earlier runs evaluate the same
    recipe from each restart.  With a ``stop_level``, each run freezes
    at its first time X reaches that level (the run after the last
    zero is the one the terminal laws consume).  N = X - A bitwise.
    The one-row case of ``lifted_rows``.
    """
    if W.grid != zs.grid:
        raise ContractError("driver and zero set live on different grids")
    return _one(lifted_rows(W.values[None], _geometry(zs), W.grid.step, stop_level), W.grid, zs)


def retag(d: Decomposition, class_tag: str, zs: ZeroSetInfo | None = None) -> Decomposition:
    """Relabel a decomposition under another class tag.

    Moving to ``classical`` simply forgets the ambient zero set; the
    relabelled triple still has to pass ``verify_membership``, which
    is the point of the move.  Moving to the restarted class requires
    X, N, A to vanish exactly on the target H.
    """
    if class_tag not in _TAGS:
        raise ConfigurationError(f"unknown class tag {class_tag!r}")
    if class_tag == CLASSICAL:
        return replace(d, class_tag=CLASSICAL, zero_set=None)
    zz = zs if zs is not None else d.zero_set
    if zz is None:
        raise ContractError(f"retag to {class_tag!r} needs a zero set")
    if zz.grid != d.grid:
        raise ContractError("zero set grid does not match the paths")
    if class_tag == SIGMA_SH and _null_magnitude(d.x.values, d.n.values, d.a.values, zz.in_h) != 0.0:
        raise ContractError("restarted class needs X, N, A exactly 0 on the zero set")
    return replace(d, class_tag=class_tag, zero_set=zz)


def _null_magnitude(x: np.ndarray, n: np.ndarray, a: np.ndarray, in_h: np.ndarray) -> np.ndarray:
    """Largest of |X|, |N|, |A| over each row's zero set (0 where it is empty)."""
    biggest = np.maximum(np.maximum(np.abs(x), np.abs(n)), np.abs(a))
    return np.max(biggest, axis=-1, where=in_h, initial=0.0)


def _require_member_shape(r: MemberRows, who: str) -> None:
    if np.any(r.x[:, 0] != 0.0) or np.any(r.a[:, 0] != 0.0):
        raise ContractError(f"{who}: members must have X and A start at 0")


def _cross_bracket_warning(n1: np.ndarray, n2: np.ndarray) -> tuple[str, ...]:
    c = np.diff(n1) * np.diff(n2)
    denom = float(np.sqrt(np.sum(c * c)))
    if denom == 0.0:
        return ()
    z = abs(float(np.sum(c))) / denom
    if z > 4.0:
        return (f"driving parts look correlated: cross bracket z = {z:.2f}",)
    return ()


def product_rows(r1: MemberRows, r2: MemberRows) -> MemberRows:
    """The product of two member rows, pair by pair (see ``product``)."""
    if r1.class_tag != r2.class_tag:
        raise ContractError("product factors must share a class tag")
    _require_member_shape(r1, "product")
    _require_member_shape(r2, "product")
    x1, x2 = r1.x, r2.x
    c = x1[:, :-1] * np.diff(r2.a, axis=-1) + x2[:, :-1] * np.diff(r1.a, axis=-1)
    zeros = r1.zeros
    if r1.class_tag == SIGMA_SH:
        same = zeros is r2.zeros or (
            zeros is not None and r2.zeros is not None and np.array_equal(zeros.in_h, r2.zeros.in_h)
        )
        if not same:
            raise ContractError("restarted product factors must share the zero set")
        a = gathered_prefix(c, zeros.gamma_idx)
    else:
        a = gathered_prefix(c)
    scale = np.maximum(
        r1.support_scale * np.max(np.abs(x2), axis=-1), r2.support_scale * np.max(np.abs(x1), axis=-1)
    )
    return _rows(x1 * x2, a, r1.class_tag, scale, zeros)


def _as_rows(d: Decomposition) -> MemberRows:
    """A decomposition as one member row."""
    return MemberRows(
        x=d.x.values[None],
        n=d.n.values[None],
        a=d.a.values[None],
        class_tag=d.class_tag,
        support_scale=np.array([d.support_scale]),
        zeros=None if d.zero_set is None else _geometry(d.zero_set),
        gap_scale=d.gap_scale,
    )


def _product_pair(d1: Decomposition, d2: Decomposition) -> Decomposition:
    if d1.grid != d2.grid:
        raise ContractError("product factors live on different grids")
    rows = product_rows(_as_rows(d1), _as_rows(d2))
    warnings = d1.warnings + d2.warnings + _cross_bracket_warning(d1.n.values, d2.n.values)
    return _one(rows, d1.grid, d1.zero_set, warnings)


def product(ds: Sequence[Decomposition]) -> Decomposition:
    """Product of members via left-point integration by parts.

    Takes the factors as a sequence and folds pairwise: for each pair
    A' accumulates X1 dA2 + X2 dA1 (restarted over the zero set for
    the restarted class) and N' is X1 X2 - A' bitwise.  A one-element
    sequence comes back unchanged.  The construction presumes
    orthogonal driving parts; a realized cross bracket that looks
    significant is surfaced as a warning, not an error.  Each pair is
    the one-row case of ``product_rows``.
    """
    factors = list(ds)
    if not factors:
        raise ConfigurationError("product needs at least one factor")
    out = factors[0]
    for nxt in factors[1:]:
        out = _product_pair(out, nxt)
    return out


def scaled_rows(
    r: MemberRows,
    f: Callable[[np.ndarray], np.ndarray],
    primitive: Callable[[np.ndarray], np.ndarray],
) -> MemberRows:
    """Member rows scaled by a function of their increasing part (see
    ``scaled_by_f``)."""
    _require_member_shape(r, "scaled_by_f")
    a = r.a
    fa = np.asarray(f(a), dtype=np.float64)
    if fa.shape != a.shape:
        raise ContractError("f must map the A values elementwise")
    if np.any(fa < 0.0):
        raise ContractError("f must be nonnegative on the range of A")
    if r.class_tag == SIGMA_SH:
        f0 = float(np.asarray(f(np.zeros(1)), dtype=np.float64)[0])
        if f0 != 0.0:
            raise ContractError("restarted scaling needs f(0) = 0")
    p = np.asarray(primitive(a), dtype=np.float64)
    if p.shape != a.shape:
        raise ContractError("primitive must map the A values elementwise")
    p0 = float(np.asarray(primitive(np.zeros(1)), dtype=np.float64)[0])
    if p0 != 0.0:
        raise ContractError("the primitive must vanish at 0")
    return _rows(fa * r.x, p, r.class_tag, r.support_scale * np.max(fa, axis=-1), r.zeros)


def scaled_by_f(
    d: Decomposition,
    f: Callable[[np.ndarray], np.ndarray],
    primitive: Callable[[np.ndarray], np.ndarray],
) -> Decomposition:
    """Scale a member by a nonnegative function of its increasing part.

    X' = f(A) X and A' = primitive(A), with primitive(0) = 0 so A'
    starts at zero.  Because A' moves exactly where A moves, the
    support of dA' is the support of dA and the construction stays
    exact.  The restarted class additionally needs f(0) = 0, so that
    the scaled triple still vanishes on the zero set and A' = 0 right
    after every restart.  The one-row case of ``scaled_rows``.
    """
    return _one(scaled_rows(_as_rows(d), f, primitive), d.grid, d.zero_set, d.warnings)


def sigma_s_characterization_process(d: Decomposition, f: Callable[[np.ndarray], np.ndarray]) -> Path:
    """Restarted analogue: restarted integral of f(A) dA minus f(A) X.

    Both terms vanish on the zero set, so the output restarts with
    the runs; with f constant 1 it reduces to A - X = -N on each run.
    """
    if d.class_tag != SIGMA_SH:
        raise ContractError("restarted characterization needs a restarted member")
    a = d.a.values
    fa = np.asarray(f(a), dtype=np.float64)
    values = gathered_prefix(fa[:-1] * np.diff(a), d.zero_set.gamma_index) - fa * d.x.values
    return Path(grid=d.grid, values=values)


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str


# the largest share of A's growth the support condition lets land off the allowed set
_SUPPORT_SHARE = 0.05


@dataclass(frozen=True)
class SupportCheck:
    """How much growth of A happens away from the allowed set.

    ``violation_mass`` sums the A-increments whose interval sits
    clear of zero (both endpoint values of X above the tolerance),
    excluding intervals touching the ambient zero set where the class
    allows charge on H; ``total_mass`` is the net growth of A over the
    examined window.  The check passes when the violating fraction
    stays at or below 0.05.
    """

    violation_mass: float
    total_mass: float

    @property
    def ratio(self) -> float:
        if self.total_mass <= 0.0:
            return 0.0
        return self.violation_mass / self.total_mass

    @property
    def passed(self) -> bool:
        return self.ratio <= _SUPPORT_SHARE


@dataclass(frozen=True)
class MembershipReport:
    checks: tuple[CheckOutcome, ...]
    support: SupportCheck

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> tuple[CheckOutcome, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _gap_tolerance(gap_scale: float, grid: TimeGrid) -> float:
    if gap_scale == 0.0:
        return 0.0
    # kernel constructions: the residual tail is heavy, the worst of 2000
    # unit-coefficient paths reaches about 6.4 * step**0.25, so clear it
    # with room to spare and let the construction declare its coefficient
    return 10.0 * gap_scale * grid.step**0.25 * float(np.sqrt(max(1.0, grid.horizon)))


def _masked_row_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-row sums of the masked entries, each summed as ``np.sum``
    sums that row's entries alone: rows with equally many entries are
    summed together, so the pairwise order, and the bits, match."""
    counts = np.count_nonzero(mask, axis=-1)
    out = np.zeros(mask.shape[0])
    for k in np.unique(counts[counts > 0]):
        rows = counts == k
        out[rows] = np.sum(values[rows][mask[rows]].reshape(-1, k), axis=-1)
    return out


@dataclass(frozen=True, eq=False)
class _WindowChecks:
    """The classical checks of each row on its window from column ``start``."""

    gap: np.ndarray
    low: np.ndarray
    starts: np.ndarray
    n_drops: np.ndarray
    worst: np.ndarray
    violation_mass: np.ndarray
    total_mass: np.ndarray

    @property
    def ratio(self) -> np.ndarray:
        return np.divide(
            self.violation_mass, self.total_mass, out=np.zeros_like(self.total_mass), where=self.total_mass > 0.0
        )

    def passes(self, gap_tol: float) -> dict[str, np.ndarray]:
        return {
            "decomposition_identity": self.gap <= gap_tol,
            "nonnegative": self.low >= 0.0,
            "starts_at_zero": self.starts == 0.0,
            "increasing_part_monotone": self.n_drops == 0,
            "support_condition": self.ratio <= _SUPPORT_SHARE,
        }


def _window_checks(
    x: np.ndarray,
    n: np.ndarray,
    a: np.ndarray,
    start: np.ndarray,
    support_start: np.ndarray,
    supp_tol: np.ndarray,
    restarts: np.ndarray | None = None,
    exempt: np.ndarray | None = None,
) -> _WindowChecks:
    """Identity, sign, start, monotonicity and support of each row from
    its ``start`` column on; the support window opens at
    ``support_start``.  A may drop into ``restarts``, and its growth
    may land on ``exempt`` points."""
    cols = np.arange(x.shape[-1])
    inside = cols >= start[:, None]
    steps_in = inside[:, :-1]  # the intervals (j, j+1) with j >= start

    def at(p: np.ndarray, c: np.ndarray) -> np.ndarray:
        return np.take_along_axis(p, c[:, None], axis=-1)[:, 0]

    da = np.diff(a, axis=-1)
    drops = (da < 0.0) & steps_in
    if restarts is not None:
        drops &= ~restarts[:, 1:]
    clear = np.minimum(x[:, :-1], x[:, 1:]) > supp_tol[:, None]
    viol = (da > 0.0) & clear & (cols[:-1] >= support_start[:, None])
    if exempt is not None:
        viol &= ~(exempt[:, :-1] | exempt[:, 1:])
    return _WindowChecks(
        gap=np.max(np.abs((x - a) - n), axis=-1, where=inside, initial=0.0),
        low=np.min(x, axis=-1, where=inside, initial=np.inf),
        starts=np.maximum(np.maximum(np.abs(at(x, start)), np.abs(at(n, start))), np.abs(at(a, start))),
        n_drops=np.count_nonzero(drops, axis=-1),
        worst=np.min(da, axis=-1, where=drops, initial=0.0),
        violation_mass=_masked_row_sums(da, viol),
        total_mass=a[:, -1] - at(a, support_start),
    )


@dataclass(frozen=True, eq=False)
class MembershipRows:
    """Membership check outcomes for a chunk of member rows.

    ``top`` holds the checks of each row as given, ``shifted`` those of
    its triple shifted to the last zero (classical checks; None for the
    classical class).  ``null_magnitude`` is None off the restarted
    class.  ``checks`` maps each check name, in report order, to its
    per-row outcome; a check that does not apply to a row passes there.
    """

    rows: MemberRows
    gap_tolerance: float
    support_tolerance: np.ndarray
    top: _WindowChecks
    null_magnitude: np.ndarray | None
    wants_shift: np.ndarray
    degenerate: np.ndarray
    shifted: _WindowChecks | None

    @property
    def support_ratio(self) -> np.ndarray:
        return self.top.ratio

    def checks(self) -> dict[str, np.ndarray]:
        out = self.top.passes(self.gap_tolerance)
        if self.null_magnitude is not None:
            out["null_on_zero_set"] = self.null_magnitude == 0.0
        if self.shifted is not None:
            shifted_ok = np.all(list(self.shifted.passes(self.gap_tolerance).values()), axis=0)
            out["shifted_classical"] = ~self.wants_shift | self.degenerate | shifted_ok
        return out

    @property
    def passed(self) -> np.ndarray:
        return np.all(list(self.checks().values()), axis=0)

    def report(self, i: int) -> MembershipReport:
        """Row ``i`` as a ``MembershipReport``."""
        top, gap_tol, supp_tol = self.top, self.gap_tolerance, float(self.support_tolerance[i])
        passes = self.checks()
        support = SupportCheck(violation_mass=float(top.violation_mass[i]), total_mass=float(top.total_mass[i]))
        details = {
            "decomposition_identity": f"max |X - A - N| = {top.gap[i]:.3e} (tolerance {gap_tol:.3e})",
            "nonnegative": f"min X = {top.low[i]:.3e}",
            "starts_at_zero": f"|value at 0| = {top.starts[i]:.3e}",
            "increasing_part_monotone": (
                f"{int(top.n_drops[i])} decreasing steps outside restarts (worst {top.worst[i]:.3e})"
            ),
            "support_condition": (
                f"violating mass {support.violation_mass:.3e} of {support.total_mass:.3e}"
                f" (ratio {support.ratio:.3f}, tolerance {supp_tol:.3e})"
            ),
        }
        zeros = self.rows.zeros
        if self.null_magnitude is not None and zeros is not None and zeros.in_h[i].any():
            details["null_on_zero_set"] = f"max |X|, |N|, |A| on the zero set = {self.null_magnitude[i]:.3e}"
        if self.shifted is not None and self.wants_shift[i]:
            if self.degenerate[i]:
                details["shifted_classical"] = "last zero at grid end; shift degenerate, skipped"
            else:
                failing = [k for k, ok in self.shifted.passes(gap_tol).items() if not ok[i]]
                details["shifted_classical"] = ", ".join(failing) or "all classical checks pass"
        checks = tuple(CheckOutcome(name, bool(passes[name][i]), text) for name, text in details.items())
        return MembershipReport(checks=checks, support=support)


def membership_rows(grid: TimeGrid, rows: MemberRows, support_tolerance=None) -> MembershipRows:
    """Run every pathwise membership check on each row, relative to
    its own zero set: the row kernel behind ``verify_membership``.

    ``support_tolerance`` (a number or one per row) defaults to the
    rows' support scales.
    """
    count, width = rows.x.shape
    scale = rows.support_scale if support_tolerance is None else support_tolerance
    supp_tol = np.broadcast_to(np.asarray(scale, dtype=np.float64), (count,))
    x, n, a = rows.x, rows.n, rows.a
    if rows.zeros is None:
        in_h, gbar = np.zeros(x.shape, dtype=bool), np.zeros(count, dtype=np.int64)
    else:
        in_h, gbar = rows.zeros.in_h, rows.zeros.gbar_idx
    origin = np.zeros(count, dtype=np.int64)
    restarted = rows.class_tag == SIGMA_SH
    top = _window_checks(
        x, n, a, origin, gbar if restarted else origin, supp_tol,
        restarts=in_h if restarted else None,
        exempt=in_h if rows.class_tag == SIGMA_H else None,
    )
    null = _null_magnitude(x, n, a, in_h) if restarted else None
    wants = np.full(count, rows.class_tag != CLASSICAL)
    shifted = None
    if rows.class_tag != CLASSICAL:
        # the restarted class always; sigma_h where X vanishes on H and
        # A is still 0 at the last zero
        a_last_zero = np.take_along_axis(a, gbar[:, None], axis=-1)
        if not restarted:
            wants = np.all((x == 0.0) | ~in_h, axis=-1) & (a_last_zero[:, 0] == 0.0)
        n_last_zero = np.take_along_axis(n, gbar[:, None], axis=-1)
        shifted = _window_checks(x, n - n_last_zero, a - a_last_zero, gbar, gbar, supp_tol)
    return MembershipRows(
        rows=rows,
        gap_tolerance=_gap_tolerance(rows.gap_scale, grid),
        support_tolerance=supp_tol,
        top=top,
        null_magnitude=null,
        wants_shift=wants,
        degenerate=gbar >= width - 1,
        shifted=shifted,
    )


def verify_membership(d: Decomposition, support_tolerance: float | None = None) -> MembershipReport:
    """Run every pathwise membership check for the declared class,
    relative to the decomposition's own zero set.

    Checks: the decomposition identity (bitwise at ``gap_scale`` 0,
    within a tolerance of order step**0.25 scaled by ``gap_scale``
    otherwise), nonnegativity of X, zero starts, monotonicity of A
    (drops allowed exactly into zero-set points for the restarted
    class), the support condition (the fraction of A-growth across
    intervals whose smaller X endpoint exceeds ``support_tolerance``
    must stay at or below 0.05; for the restarted class the window
    starts at the last zero, matching its definition), null-on-H for
    the restarted class, and the classical membership of the shifted
    triple past the last zero under the same two tolerances.  The
    shifted check runs for the restarted class always, and for
    ``sigma_h`` where the data meet its side conditions: X vanishes on
    H and A is still 0 at the last zero.

    The default support tolerance is the construction's own
    ``support_scale``.  The one-row case of ``membership_rows``.
    """
    supp_tol = float(d.support_scale if support_tolerance is None else support_tolerance)
    return membership_rows(d.grid, _as_rows(d), supp_tol).report(0)
