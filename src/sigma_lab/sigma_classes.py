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
A constructor given no zero set books an empty one (``empty_zero_set``).
``lifted_reflected`` with a stop level freezes each zero-free run
where X first reaches it, through ``rho`` of the path functional
``partial(_held_at, level=stop_level)``.

X is a member exactly when F(A) - f(A) X is a martingale for every
bounded f with primitive F.  ``characterization`` is that process as a
row kernel: it maps any columns of A and X, so t1-characterization and
sigma-s-characterization evaluate it at their checkpoints alone.

Every constructor and ``verify_membership`` takes a ``Path`` of one
path or of rows of paths on one grid (values shaped (..., n+1)), with
a ``ZeroSetInfo`` of the same shape.  A ``Decomposition`` of rows holds
one triple per row and a support scale that is one number or one per
row; each row equals that path's own construction bit for bit.  A
``MembershipReport`` holds what ``verify_membership`` computed once:
each check's verdict (``verdicts``), a bool for one path and one per
row otherwise, the support mass (``support``), and for one path only
the detail text that ``checks`` and ``failing`` pair with the
verdicts.  Each row's support mass is summed on its own, in the order
a lone ``np.sum`` would take, so a row's verdicts equal that path's
own.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .balayage import gathered_prefix, occupation_kernel, rho
from .density import ZeroSetInfo, empty_zero_set
from .errors import ConfigurationError, ContractError
from .paths import Path, TimeGrid, first_hit, gather

__all__ = [
    "CLASSICAL",
    "SIGMA_H",
    "SIGMA_SH",
    "Decomposition",
    "assemble",
    "abs_martingale",
    "pm_combination",
    "drawdown",
    "lifted_reflected",
    "retag",
    "product",
    "scaled_by_f",
    "characterization",
    "CheckOutcome",
    "SupportCheck",
    "MembershipReport",
    "verify_membership",
]

CLASSICAL = "classical"
SIGMA_H = "sigma_h"
SIGMA_SH = "sigma_s_h"
_TAGS = (CLASSICAL, SIGMA_H, SIGMA_SH)


def _lead(values) -> float | bool | np.ndarray:
    """A per-row result as returned: a Python scalar for one path."""
    values = np.asarray(values)
    return values.item() if values.ndim == 0 else values


@dataclass(frozen=True)
class Decomposition:
    """X = N + A with its class bookkeeping, for one path or per row.

    ``support_scale`` is one number, or one per row.
    """

    x: Path
    n: Path
    a: Path
    class_tag: str
    support_scale: float | np.ndarray
    zero_set: ZeroSetInfo | None = None
    warnings: tuple[str, ...] = ()
    gap_scale: float = 0.0

    def __post_init__(self) -> None:
        if self.class_tag not in _TAGS:
            raise ConfigurationError(f"unknown class tag {self.class_tag!r}")
        if not (self.x.grid == self.n.grid == self.a.grid):
            raise ContractError("decomposition parts live on different grids")
        if not (self.x.values.shape == self.n.values.shape == self.a.values.shape):
            raise ContractError("decomposition parts hold different rows")
        if self.class_tag != CLASSICAL and self.zero_set is None:
            raise ContractError(f"class {self.class_tag!r} needs a zero set")
        if self.zero_set is not None:
            self.zero_set.check_path(self.x)

    @property
    def grid(self) -> TimeGrid:
        return self.x.grid


def assemble(
    x: Path,
    a: Path,
    class_tag: str = CLASSICAL,
    zero_set: ZeroSetInfo | None = None,
    warnings: tuple[str, ...] = (),
    support_scale: float | np.ndarray | None = None,
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
    mean weight, recorded as the gap scale.
    """
    if alpha <= 0.0 or beta <= 0.0:
        raise ConfigurationError("pm_combination needs strictly positive weights")
    w, grid = M.values, M.grid
    if np.any(w[..., 0] != 0.0):
        raise ContractError("pm_combination needs a path started at 0")
    x = alpha * np.maximum(w, 0.0) + beta * np.maximum(-w, 0.0)
    integrand = np.where(w[..., :-1] > 0.0, alpha, -beta)
    n = gathered_prefix(integrand * np.diff(w, axis=-1))
    a = ((alpha + beta) / 2.0) * occupation_kernel(w, grid.step)
    return Decomposition(
        x=Path(grid=grid, values=x),
        n=Path(grid=grid, values=n),
        a=Path(grid=grid, values=a),
        class_tag=SIGMA_H,
        support_scale=max(alpha, beta) * float(np.sqrt(grid.step)),
        zero_set=empty_zero_set(M) if zs is None else zs,
        gap_scale=(alpha + beta) / 2.0,
    )


def drawdown(M: Path, zs: ZeroSetInfo | None = None) -> Decomposition:
    """Running max minus the path: X = S - M, A = S - S_0, N = X - A.

    A grows exactly at the indices where a new maximum is set, and
    there X is exactly zero, so the support condition holds with zero
    tolerance.  Exact by assembly; N agrees with -(M - M_0) up to
    rounding.
    """
    w = M.values
    s = np.maximum.accumulate(w, axis=-1)
    return assemble(
        Path(grid=M.grid, values=s - w),
        Path(grid=M.grid, values=s - s[..., :1]),
        SIGMA_H,
        empty_zero_set(M) if zs is None else zs,
        support_scale=0.0,
    )


def _held_at(values: np.ndarray, step: float, level: float) -> np.ndarray:
    """The path held at its value where it first reaches a level."""
    last = values.shape[-1] - 1
    hit = first_hit(values >= level)
    k = np.where(hit >= 0, hit, last)[..., None]
    return np.where(np.arange(last + 1) >= k, np.take_along_axis(values, k, axis=-1), values)


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
    """
    zs.check_path(W)
    grid, w = W.grid, W.values
    x = Path(grid=grid, values=np.abs(w - np.take_along_axis(w, zs.gamma_index, axis=-1)))
    if stop_level is not None:
        if stop_level <= 0.0:
            raise ConfigurationError("stop_level must be positive")
        # every run starts at X = 0, below the level, so the restart's
        # zero at each anchor is X's own value there
        x = rho(partial(_held_at, level=stop_level), x, zs)
    a = occupation_kernel(x.values, grid.step, anchors=zs.gamma_index)
    return assemble(x, Path(grid=grid, values=a), SIGMA_SH, zs, support_scale=float(np.sqrt(grid.step)))


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
    zz.check_path(d.x)
    if class_tag == SIGMA_SH and np.any(_null_magnitude(d.x.values, d.n.values, d.a.values, zz.in_h) != 0.0):
        raise ContractError("restarted class needs X, N, A exactly 0 on the zero set")
    return replace(d, class_tag=class_tag, zero_set=zz)


def _null_magnitude(x: np.ndarray, n: np.ndarray, a: np.ndarray, in_h: np.ndarray) -> np.ndarray:
    """Largest of |X|, |N|, |A| over each row's zero set (0 where it is empty)."""
    biggest = np.maximum(np.maximum(np.abs(x), np.abs(n)), np.abs(a))
    return np.max(biggest, axis=-1, where=in_h, initial=0.0)


def _require_member_shape(d: Decomposition, who: str) -> None:
    if np.any(d.x.values[..., 0] != 0.0) or np.any(d.a.values[..., 0] != 0.0):
        raise ContractError(f"{who}: members must have X and A start at 0")


def _cross_bracket_warning(n1: np.ndarray, n2: np.ndarray) -> tuple[str, ...]:
    """A warning when some row's realized cross bracket looks significant."""
    c = np.diff(n1, axis=-1) * np.diff(n2, axis=-1)
    denom = np.sqrt(np.sum(c * c, axis=-1))
    z = float(np.max(np.abs(np.sum(c, axis=-1)) / np.where(denom == 0.0, np.inf, denom)))
    if z > 4.0:
        return (f"driving parts look correlated: cross bracket z = {z:.2f}",)
    return ()


def _times(d1: Decomposition, d2: Decomposition) -> Decomposition:
    """The product of two members, row by row (see ``product``)."""
    if d1.grid != d2.grid:
        raise ContractError("product factors live on different grids")
    if d1.x.values.shape != d2.x.values.shape:
        raise ContractError("product factors hold different rows")
    if d1.class_tag != d2.class_tag:
        raise ContractError("product factors must share a class tag")
    _require_member_shape(d1, "product")
    _require_member_shape(d2, "product")
    x1, x2 = d1.x.values, d2.x.values
    c = x1[..., :-1] * np.diff(d2.a.values, axis=-1) + x2[..., :-1] * np.diff(d1.a.values, axis=-1)
    zs = d1.zero_set
    if d1.class_tag == SIGMA_SH:
        if zs is not d2.zero_set and not np.array_equal(zs.in_h, d2.zero_set.in_h):
            raise ContractError("restarted product factors must share the zero set")
        a = gathered_prefix(c, zs.gamma_index)
    else:
        a = gathered_prefix(c)
    scale = np.maximum(
        d1.support_scale * np.max(np.abs(x2), axis=-1), d2.support_scale * np.max(np.abs(x1), axis=-1)
    )
    warnings = d1.warnings + d2.warnings + _cross_bracket_warning(d1.n.values, d2.n.values)
    grid = d1.grid
    return assemble(Path(grid=grid, values=x1 * x2), Path(grid=grid, values=a), d1.class_tag, zs, warnings, _lead(scale))


def product(ds: Sequence[Decomposition]) -> Decomposition:
    """Product of members via left-point integration by parts.

    Takes the factors as a sequence and folds pairwise: for each pair
    A' accumulates X1 dA2 + X2 dA1 (restarted over the zero set for
    the restarted class) and N' is X1 X2 - A' bitwise.  A one-element
    sequence comes back unchanged.  The construction presumes
    orthogonal driving parts; a realized cross bracket that looks
    significant on some row is surfaced as a warning, not an error.
    """
    factors = list(ds)
    if not factors:
        raise ConfigurationError("product needs at least one factor")
    out = factors[0]
    for nxt in factors[1:]:
        out = _times(out, nxt)
    return out


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
    after every restart.
    """
    _require_member_shape(d, "scaled_by_f")
    a = d.a.values
    fa = np.asarray(f(a), dtype=np.float64)
    if fa.shape != a.shape:
        raise ContractError("f must map the A values elementwise")
    if np.any(fa < 0.0):
        raise ContractError("f must be nonnegative on the range of A")
    if d.class_tag == SIGMA_SH:
        f0 = float(np.asarray(f(np.zeros(1)), dtype=np.float64)[0])
        if f0 != 0.0:
            raise ContractError("restarted scaling needs f(0) = 0")
    p = np.asarray(primitive(a), dtype=np.float64)
    if p.shape != a.shape:
        raise ContractError("primitive must map the A values elementwise")
    p0 = float(np.asarray(primitive(np.zeros(1)), dtype=np.float64)[0])
    if p0 != 0.0:
        raise ContractError("the primitive must vanish at 0")
    grid = d.grid
    scale = _lead(d.support_scale * np.max(fa, axis=-1))
    return assemble(Path(grid=grid, values=fa * d.x.values), Path(grid=grid, values=p), d.class_tag, d.zero_set, d.warnings, scale)


def characterization(
    F: Callable[[np.ndarray], np.ndarray],
    f: Callable[[np.ndarray], np.ndarray],
    a: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """F(A) - f(A) X for a bounded f with primitive F, at whatever
    columns of a member's A and X the caller passes.

    X is a member exactly when this is a martingale for every such
    pair.  With (F, f) = (a, 1) it is A - X = -N; for the restarted
    class it vanishes on the zero set whenever F(0) = 0.
    """
    return F(a) - f(a) * x


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
    stays at or below 0.05.  Each field is a number for one path and
    one per row otherwise.
    """

    violation_mass: float | np.ndarray
    total_mass: float | np.ndarray

    @property
    def ratio(self) -> float | np.ndarray:
        v, t = np.asarray(self.violation_mass), np.asarray(self.total_mass)
        return _lead(np.divide(v, t, out=np.zeros_like(t), where=t > 0.0))

    @property
    def passed(self) -> bool | np.ndarray:
        return _lead(np.asarray(self.ratio) <= _SUPPORT_SHARE)


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
    support: SupportCheck

    def passes(self, gap_tol: float) -> dict[str, np.ndarray]:
        return {
            "decomposition_identity": self.gap <= gap_tol,
            "nonnegative": self.low >= 0.0,
            "starts_at_zero": self.starts == 0.0,
            "increasing_part_monotone": self.n_drops == 0,
            "support_condition": self.support.passed,
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
        starts=np.maximum(np.maximum(np.abs(gather(x, start)), np.abs(gather(n, start))), np.abs(gather(a, start))),
        n_drops=np.count_nonzero(drops, axis=-1),
        worst=np.min(da, axis=-1, where=drops, initial=0.0),
        support=SupportCheck(violation_mass=_masked_row_sums(da, viol), total_mass=a[:, -1] - gather(a, support_start)),
    )


@dataclass(frozen=True, eq=False)
class MembershipReport:
    """Membership check outcomes of a decomposition: of one path, or per row.

    ``verdicts`` maps each check name, in report order, to its outcome:
    a bool for one path, one per row otherwise; a check that does not
    apply to a row passes there.  ``support`` is the support mass of
    each row.  ``details`` holds the detail text of the checks that
    apply to one path, and is None on rows, where ``checks`` and
    ``failing`` are not defined.
    """

    verdicts: dict[str, bool | np.ndarray]
    support: SupportCheck
    details: dict[str, str] | None

    @property
    def passed(self) -> bool | np.ndarray:
        return _lead(np.all(list(self.verdicts.values()), axis=0))

    @property
    def checks(self) -> tuple[CheckOutcome, ...]:
        if self.details is None:
            raise ContractError("check details are defined for one path; read verdicts on rows")
        return tuple(CheckOutcome(name, self.verdicts[name], text) for name, text in self.details.items())

    def failing(self) -> tuple[CheckOutcome, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _path_details(top: _WindowChecks, gap_tol: float, supp_tol: float, support: SupportCheck) -> dict[str, str]:
    """The detail text of one path's classical checks."""
    return {
        "decomposition_identity": f"max |X - A - N| = {top.gap[0]:.3e} (tolerance {gap_tol:.3e})",
        "nonnegative": f"min X = {top.low[0]:.3e}",
        "starts_at_zero": f"|value at 0| = {top.starts[0]:.3e}",
        "increasing_part_monotone": (
            f"{int(top.n_drops[0])} decreasing steps outside restarts (worst {top.worst[0]:.3e})"
        ),
        "support_condition": (
            f"violating mass {support.violation_mass:.3e} of {support.total_mass:.3e}"
            f" (ratio {support.ratio:.3f}, tolerance {supp_tol:.3e})"
        ),
    }


def verify_membership(d: Decomposition, support_tolerance: float | np.ndarray | None = None) -> MembershipReport:
    """Run every pathwise membership check for the declared class, on
    each row relative to its own zero set.

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

    The support tolerance (a number, or one per row) defaults to the
    construction's own ``support_scale``.
    """
    width = d.grid.n_steps + 1
    shape = d.x.values.shape[:-1]
    x, n, a = (p.values.reshape(-1, width) for p in (d.x, d.n, d.a))
    count = x.shape[0]
    scale = d.support_scale if support_tolerance is None else support_tolerance
    supp_tol = np.broadcast_to(np.asarray(scale, dtype=np.float64), shape).reshape(count)
    zs = empty_zero_set(d.x) if d.zero_set is None else d.zero_set
    in_h, gbar = zs.in_h.reshape(-1, width), np.reshape(zs.gbar_index, -1)
    origin = np.zeros(count, dtype=np.int64)
    restarted = d.class_tag == SIGMA_SH
    gap_tol = _gap_tolerance(d.gap_scale, d.grid)
    top = _window_checks(
        x, n, a, origin, gbar if restarted else origin, supp_tol,
        restarts=in_h if restarted else None,
        exempt=in_h if d.class_tag == SIGMA_H else None,
    )
    passes = top.passes(gap_tol)
    if restarted:
        null = _null_magnitude(x, n, a, in_h)
        passes["null_on_zero_set"] = null == 0.0
    if d.class_tag != CLASSICAL:
        # the restarted class always; sigma_h where X vanishes on H and
        # A is still 0 at the last zero
        a_last_zero, n_last_zero = gather(a, gbar)[:, None], gather(n, gbar)[:, None]
        wants = np.full(count, True) if restarted else np.all((x == 0.0) | ~in_h, axis=-1) & (a_last_zero[:, 0] == 0.0)
        degenerate = gbar >= width - 1
        shifted = _window_checks(x, n - n_last_zero, a - a_last_zero, gbar, gbar, supp_tol).passes(gap_tol)
        passes["shifted_classical"] = ~wants | degenerate | np.all(list(shifted.values()), axis=0)

    def shaped(values: np.ndarray):
        return _lead(values.reshape(shape))

    support = SupportCheck(violation_mass=shaped(top.support.violation_mass), total_mass=shaped(top.support.total_mass))
    details = None
    if shape == ():
        details = _path_details(top, gap_tol, float(supp_tol[0]), support)
        if restarted and in_h.any():
            details["null_on_zero_set"] = f"max |X|, |N|, |A| on the zero set = {null[0]:.3e}"
        if d.class_tag != CLASSICAL and wants[0]:
            failing = ", ".join(k for k, ok in shifted.items() if not ok[0])
            details["shifted_classical"] = (
                "last zero at grid end; shift degenerate, skipped" if degenerate[0]
                else failing or "all classical checks pass"
            )
    return MembershipReport(verdicts={name: shaped(ok) for name, ok in passes.items()}, support=support, details=details)
