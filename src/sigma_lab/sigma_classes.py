"""Decompositions X = N + A, their constructors, and membership checks.

A decomposition holds three paths on one grid: the nonnegative process
X, its driving part N, and the increasing part A whose growth is
carried by the zero set of X.  Three class tags are distinguished:

``classical``
    A starts at 0 and never decreases; no ambient zero set.
``sigma_h``
    Same, relative to an ambient zero set H: growth of A is allowed
    both where X vanishes and on H itself.  Optional flags record
    that H sits inside the zeros of X, that A has not grown by the
    last zero, and that the family is uniformly integrable; with all
    flags set the part of the path after the last zero must again be
    a classical member.
``sigma_s_h``
    The restarted variant: X, N, A all vanish on H, and A restarts
    from 0 after each zero, so A is increasing within each zero-free
    run and drops back to 0 when a zero is hit.

Constructors that assemble N as X - A make the decomposition identity
hold bitwise; the kernel-based ones still do that, but their A only
approximates the continuum object, which the ``exact`` flag records
so the verifier can pick the right gap tolerance.

Each constructor also leaves behind ``support_scale``, the natural
tolerance below which X should be considered "at zero" for the support
check: 0 for constructions whose A provably grows only at exact zeros,
and the kernel bandwidth sqrt(step) (times the weight of the
construction) for the occupation-kernel ones.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .balayage import _blocks, gathered_prefix, occupation_kernel
from .density import ZeroSetInfo, zero_set_from_level_series
from .errors import ConfigurationError, ContractError
from .paths import Path, TimeGrid, first_hit, make_grid

__all__ = [
    "CLASSICAL",
    "SIGMA_H",
    "SIGMA_SH",
    "ClassFlags",
    "Decomposition",
    "assemble",
    "abs_martingale",
    "pm_combination",
    "drawdown",
    "lifted_reflected",
    "retag",
    "product",
    "scaled_by_f",
    "sigma_s_characterization_process",
    "CheckOutcome",
    "SupportCheck",
    "MembershipReport",
    "verify_membership",
]

CLASSICAL = "classical"
SIGMA_H = "sigma_h"
SIGMA_SH = "sigma_s_h"
_TAGS = (CLASSICAL, SIGMA_H, SIGMA_SH)


@dataclass(frozen=True)
class ClassFlags:
    """Structural side conditions recorded for zero-set classes."""

    h_inside_zeros_of_x: bool = True
    a_null_at_last_zero: bool = True
    uniformly_integrable: bool = True

    @property
    def all_set(self) -> bool:
        return self.h_inside_zeros_of_x and self.a_null_at_last_zero and self.uniformly_integrable


@dataclass(frozen=True)
class Decomposition:
    """One path triple X = N + A with its class bookkeeping."""

    x: Path
    n: Path
    a: Path
    class_tag: str
    zero_set: ZeroSetInfo | None = None
    exact: bool = True
    flags: ClassFlags | None = None
    source: str = "assembled"
    warnings: tuple[str, ...] = ()
    support_scale: float | None = None
    gap_scale: float = 1.0

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


def _empty_zero_set(grid: TimeGrid) -> ZeroSetInfo:
    return zero_set_from_level_series(np.ones(grid.n_steps + 1), grid)


def _computed_flags(x: np.ndarray, a: np.ndarray, zs: ZeroSetInfo) -> ClassFlags:
    h = zs.h_indices
    inside = bool(h.size == 0 or np.all(x[h] == 0.0))
    return ClassFlags(
        h_inside_zeros_of_x=inside,
        a_null_at_last_zero=bool(a[zs.gbar_index] == 0.0),
        uniformly_integrable=True,
    )


def assemble(
    x: Path,
    a: Path,
    class_tag: str = CLASSICAL,
    zero_set: ZeroSetInfo | None = None,
    source: str = "assembled",
    warnings: tuple[str, ...] = (),
    support_scale: float | None = None,
) -> Decomposition:
    """Build a decomposition from X and A, with N defined as X - A.

    The identity check then holds bitwise by construction; everything
    else about the triple is still up to ``verify_membership``.  For
    the zero-set classes the structural flags are read off the data.
    """
    n = Path(grid=x.grid, values=x.values - a.values)
    flags = None
    if zero_set is not None and class_tag != CLASSICAL:
        flags = _computed_flags(x.values, a.values, zero_set)
    return Decomposition(
        x=x, n=n, a=a, class_tag=class_tag, zero_set=zero_set,
        exact=True, flags=flags, source=source, warnings=warnings,
        support_scale=support_scale,
    )


def abs_martingale(M: Path, zs: ZeroSetInfo | None = None) -> Decomposition:
    """|M| with its sign-integral part and a kernel local time at 0.

    N is the left-point integral of the sign of M (sign 0 counted as
    -1) against dM; A is the plain, unrestarted occupation kernel at
    level 0, so relative to an ambient zero set its growth may land on
    H as well as on the zeros of X.  The decomposition identity holds
    only up to the kernel error, hence ``exact=False``.  This is
    ``pm_combination`` at unit weights.
    """
    return replace(pm_combination(M, 1.0, 1.0, zs), source="abs_martingale")


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
    if M.values[0] != 0.0:
        raise ContractError("pm_combination needs a path started at 0")
    if zs is not None and zs.grid != M.grid:
        raise ContractError("zero set grid does not match the path")
    values = M.values
    x = alpha * np.maximum(values, 0.0) + beta * np.maximum(-values, 0.0)
    integrand = np.where(values[:-1] > 0.0, alpha, -beta)
    n = gathered_prefix(integrand * np.diff(values))
    a = ((alpha + beta) / 2.0) * occupation_kernel(values, M.grid.step)
    zz = zs if zs is not None else _empty_zero_set(M.grid)
    return Decomposition(
        x=Path(grid=M.grid, values=x),
        n=Path(grid=M.grid, values=n),
        a=Path(grid=M.grid, values=a),
        class_tag=SIGMA_H,
        zero_set=zz,
        exact=False,
        flags=_computed_flags(x, a, zz),
        source="pm_combination",
        support_scale=max(alpha, beta) * float(np.sqrt(M.grid.step)),
        gap_scale=(alpha + beta) / 2.0,
    )


def drawdown(M: Path, zs: ZeroSetInfo | None = None) -> Decomposition:
    """Running max minus the path: X = S - M, A = S - S_0, N = X - A.

    A grows exactly at the indices where a new maximum is set, and
    there X is exactly zero, so the support condition holds with zero
    tolerance.  Exact by assembly; N agrees with -(M - M_0) up to
    rounding.
    """
    if zs is not None and zs.grid != M.grid:
        raise ContractError("zero set grid does not match the path")
    values = M.values
    s = np.maximum.accumulate(values)
    x = Path(grid=M.grid, values=s - values)
    a = Path(grid=M.grid, values=s - s[0])
    zz = zs if zs is not None else _empty_zero_set(M.grid)
    return assemble(
        x, a, class_tag=SIGMA_H, zero_set=zz, source="drawdown", support_scale=0.0,
    )


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
    if W.grid != zs.grid:
        raise ContractError("driver and zero set live on different grids")
    grid = W.grid
    x = np.abs(W.values - W.values[zs.gamma_index])
    if stop_level is not None:
        if stop_level <= 0.0:
            raise ConfigurationError("stop_level must be positive")
        for anchor, last in _blocks(zs):
            seg = x[anchor : last + 1]
            k = first_hit(seg >= stop_level)
            if k >= 0:
                seg[k:] = seg[k]
    a = occupation_kernel(x, grid.step, anchors=zs.gamma_index)
    return assemble(
        Path(grid=grid, values=x),
        Path(grid=grid, values=a),
        class_tag=SIGMA_SH,
        zero_set=zs,
        source="lifted_reflected",
        support_scale=float(np.sqrt(grid.step)),
    )


def retag(d: Decomposition, class_tag: str, zs: ZeroSetInfo | None = None) -> Decomposition:
    """Relabel a decomposition under another class tag.

    Moving to ``classical`` simply forgets the ambient zero set; the
    relabelled triple still has to pass ``verify_membership``, which
    is the point of the move.  Moving to a zero-set class records the
    structural flags read off the data; moving to the restarted class
    additionally requires X, N, A to vanish exactly on the target H.
    """
    if class_tag not in _TAGS:
        raise ConfigurationError(f"unknown class tag {class_tag!r}")
    if class_tag == CLASSICAL:
        return replace(d, class_tag=CLASSICAL, zero_set=None, flags=None)
    zz = zs if zs is not None else d.zero_set
    if zz is None:
        raise ContractError(f"retag to {class_tag!r} needs a zero set")
    if zz.grid != d.grid:
        raise ContractError("zero set grid does not match the paths")
    if class_tag == SIGMA_SH and zz.h_indices.size:
        if _max_on_zero_set(d, zz) != 0.0:
            raise ContractError("restarted class needs X, N, A exactly 0 on the zero set")
    return replace(
        d,
        class_tag=class_tag,
        zero_set=zz,
        flags=_computed_flags(d.x.values, d.a.values, zz),
    )


def _max_on_zero_set(d: Decomposition, zs: ZeroSetInfo) -> float:
    """Largest of |X|, |N|, |A| over the points of a nonempty zero set."""
    return max(float(np.max(np.abs(p.values[zs.h_indices]))) for p in (d.x, d.n, d.a))


def _require_member_shape(d: Decomposition, who: str) -> None:
    if d.x.values[0] != 0.0 or d.a.values[0] != 0.0:
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


def _running_sup(values: np.ndarray) -> float:
    return float(np.max(np.abs(values))) if values.size else 0.0


def _product_pair(d1: Decomposition, d2: Decomposition) -> Decomposition:
    if d1.grid != d2.grid:
        raise ContractError("product factors live on different grids")
    if d1.class_tag != d2.class_tag:
        raise ContractError("product factors must share a class tag")
    _require_member_shape(d1, "product")
    _require_member_shape(d2, "product")
    grid = d1.grid
    x1, x2 = d1.x.values, d2.x.values
    a1, a2 = d1.a.values, d2.a.values
    c = x1[:-1] * np.diff(a2) + x2[:-1] * np.diff(a1)
    zs = d1.zero_set
    if d1.class_tag == SIGMA_SH:
        same_zs = zs is d2.zero_set or (
            d2.zero_set is not None and np.array_equal(zs.h_indices, d2.zero_set.h_indices)
        )
        if not same_zs:
            raise ContractError("restarted product factors must share the zero set")
        a = gathered_prefix(c, zs.gamma_index)
    else:
        a = gathered_prefix(c)
    s1 = d1.support_scale if d1.support_scale is not None else float(np.sqrt(grid.step))
    s2 = d2.support_scale if d2.support_scale is not None else float(np.sqrt(grid.step))
    scale = max(s1 * _running_sup(x2), s2 * _running_sup(x1))
    warnings = d1.warnings + d2.warnings + _cross_bracket_warning(d1.n.values, d2.n.values)
    out = assemble(
        Path(grid=grid, values=x1 * x2),
        Path(grid=grid, values=a),
        class_tag=d1.class_tag,
        zero_set=zs,
        source="product",
        warnings=warnings,
        support_scale=scale,
    )
    if d1.flags is not None and d2.flags is not None and out.flags is not None:
        flags = ClassFlags(
            h_inside_zeros_of_x=out.flags.h_inside_zeros_of_x,
            a_null_at_last_zero=d1.flags.a_null_at_last_zero and d2.flags.a_null_at_last_zero,
            uniformly_integrable=d1.flags.uniformly_integrable and d2.flags.uniformly_integrable,
        )
        out = replace(out, flags=flags)
    return out


def product(ds: Sequence[Decomposition]) -> Decomposition:
    """Product of members via left-point integration by parts.

    Takes the factors as a sequence and folds pairwise: for each pair
    A' accumulates X1 dA2 + X2 dA1 (restarted over the zero set for
    the restarted class) and N' is X1 X2 - A' bitwise.  A one-element
    sequence comes back unchanged.  The construction presumes
    orthogonal driving parts; a realized cross bracket that looks
    significant is surfaced as a warning, not an error.
    """
    factors = list(ds)
    if not factors:
        raise ConfigurationError("product needs at least one factor")
    out = factors[0]
    for nxt in factors[1:]:
        out = _product_pair(out, nxt)
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
    base = d.support_scale if d.support_scale is not None else float(np.sqrt(d.grid.step))
    scale = base * max(float(np.max(fa)), 0.0) if fa.size else base
    out = assemble(
        Path(grid=d.grid, values=fa * d.x.values),
        Path(grid=d.grid, values=p),
        class_tag=d.class_tag,
        zero_set=d.zero_set,
        source="scaled_by_f",
        warnings=d.warnings,
        support_scale=scale,
    )
    return out


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
    magnitude: float | None = None


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
    tolerance: float

    @property
    def ratio(self) -> float:
        if self.total_mass <= 0.0:
            return 0.0
        return self.violation_mass / self.total_mass

    @property
    def passed(self) -> bool:
        return self.ratio <= 0.05


@dataclass(frozen=True)
class MembershipReport:
    class_tag: str
    checks: tuple[CheckOutcome, ...]
    support: SupportCheck | None = None
    warnings: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> tuple[CheckOutcome, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _default_gap_tolerance(d: Decomposition) -> float:
    if d.exact:
        return 0.0
    # kernel constructions: the residual tail is heavy, the worst of 2000
    # unit-coefficient paths reaches about 6.4 * step**0.25, so clear it
    # with room to spare and let the construction declare its coefficient
    step = d.grid.step
    horizon = d.grid.horizon
    return 10.0 * d.gap_scale * step**0.25 * float(np.sqrt(max(1.0, horizon)))


def _support_check(d: Decomposition, zs: ZeroSetInfo, tol: float) -> SupportCheck:
    x, a = d.x.values, d.a.values
    if d.class_tag == SIGMA_SH:
        g = zs.gbar_index
        xw, aw = x[g:], a[g:]
    else:
        xw, aw = x, a
    exempt = np.zeros(xw.size, dtype=bool)
    if d.class_tag == SIGMA_H:
        exempt[zs.h_indices] = True
    da = np.diff(aw)
    grow = da > 0.0
    clear = np.minimum(xw[:-1], xw[1:]) > tol
    viol = grow & clear & ~(exempt[:-1] | exempt[1:])
    mass = float(np.sum(da[viol]))
    total = float(aw[-1] - aw[0]) if aw.size else 0.0
    return SupportCheck(violation_mass=mass, total_mass=total, tolerance=tol)


def verify_membership(d: Decomposition, support_tolerance: float | None = None) -> MembershipReport:
    """Run every pathwise membership check for the declared class,
    relative to the decomposition's own zero set.

    Checks: the decomposition identity (bitwise for exact
    constructions, within a tolerance of order step**0.25 scaled by
    the construction's ``gap_scale`` otherwise), nonnegativity of X,
    zero starts, monotonicity of A (drops allowed exactly into
    zero-set points for the restarted class), the support condition
    (the fraction of A-growth across intervals whose smaller X
    endpoint exceeds ``support_tolerance`` must stay at or below
    0.05; for the restarted class the window starts at the last zero,
    matching its definition), null-on-H for the restarted class,
    consistency of the recorded flags with the data, and the classical
    membership of the shifted triple past the last zero where the
    class calls for it, under the same two tolerances.

    The default support tolerance is the construction's own
    ``support_scale`` (its kernel bandwidth sqrt(step) times the
    weight it puts on X), falling back to sqrt(step).
    """
    if support_tolerance is not None:
        supp_tol = float(support_tolerance)
    elif d.support_scale is not None:
        supp_tol = float(d.support_scale)
    else:
        supp_tol = float(np.sqrt(d.grid.step))
    return _membership(d, _default_gap_tolerance(d), supp_tol)


def _membership(d: Decomposition, gap_tol: float, supp_tol: float) -> MembershipReport:
    """``verify_membership`` at given identity and support tolerances."""
    grid = d.grid
    zs = d.zero_set if d.zero_set is not None else _empty_zero_set(grid)
    x, n, a = d.x.values, d.n.values, d.a.values
    in_h = np.zeros(grid.n_steps + 1, dtype=bool)
    in_h[zs.h_indices] = True
    checks: list[CheckOutcome] = []

    gap = float(np.max(np.abs((x - a) - n))) if x.size else 0.0
    checks.append(
        CheckOutcome(
            "decomposition_identity",
            gap <= gap_tol,
            f"max |X - A - N| = {gap:.3e} (tolerance {gap_tol:.3e})",
            gap,
        )
    )

    low = float(np.min(x))
    checks.append(
        CheckOutcome(
            "nonnegative",
            low >= 0.0,
            f"min X = {low:.3e}",
            low,
        )
    )

    starts = max(abs(float(x[0])), abs(float(n[0])), abs(float(a[0])))
    checks.append(CheckOutcome("starts_at_zero", starts == 0.0, f"|value at 0| = {starts:.3e}", starts))

    da = np.diff(a)
    if d.class_tag == SIGMA_SH:
        drops = (da < 0.0) & ~in_h[1:]
    else:
        drops = da < 0.0
    n_drops = int(np.count_nonzero(drops))
    worst = float(np.min(da[drops])) if n_drops else 0.0
    checks.append(
        CheckOutcome(
            "increasing_part_monotone",
            n_drops == 0,
            f"{n_drops} decreasing steps outside restarts (worst {worst:.3e})",
            float(n_drops),
        )
    )

    support = _support_check(d, zs, supp_tol)
    checks.append(
        CheckOutcome(
            "support_condition",
            support.passed,
            (
                f"violating mass {support.violation_mass:.3e} of {support.total_mass:.3e}"
                f" (ratio {support.ratio:.3f}, tolerance {supp_tol:.3e})"
            ),
            support.ratio,
        )
    )

    if d.class_tag == SIGMA_SH and zs.h_indices.size:
        off_all = _max_on_zero_set(d, zs)
        checks.append(
            CheckOutcome(
                "null_on_zero_set",
                off_all == 0.0,
                f"max |X|, |N|, |A| on the zero set = {off_all:.3e}",
                off_all,
            )
        )

    if d.class_tag == SIGMA_H and d.flags is not None:
        if zs.h_indices.size:
            off = float(np.max(np.abs(x[zs.h_indices])))
        else:
            off = 0.0
        checks.append(
            CheckOutcome(
                "zeros_flag_consistent",
                (off == 0.0) == d.flags.h_inside_zeros_of_x,
                f"max |X| on the zero set = {off:.3e}, flag says {d.flags.h_inside_zeros_of_x}",
                off,
            )
        )
        a_gbar = abs(float(a[zs.gbar_index]))
        checks.append(
            CheckOutcome(
                "last_zero_flag_consistent",
                (a_gbar == 0.0) == d.flags.a_null_at_last_zero,
                f"|A at last zero| = {a_gbar:.3e}, flag says {d.flags.a_null_at_last_zero}",
                a_gbar,
            )
        )

    wants_shift = d.class_tag == SIGMA_SH or (
        d.class_tag == SIGMA_H and d.flags is not None and d.flags.all_set
    )
    if wants_shift:
        g = zs.gbar_index
        if g >= grid.n_steps:
            checks.append(
                CheckOutcome("shifted_classical", True, "last zero at grid end; shift degenerate, skipped", None)
            )
        else:
            if g == 0:
                sub_grid = grid
            else:
                sub_grid = make_grid(step=grid.step, horizon=(grid.n_steps - g) * grid.step)
            shifted = Decomposition(
                x=Path(grid=sub_grid, values=x[g:].copy()),
                n=Path(grid=sub_grid, values=n[g:] - n[g]),
                a=Path(grid=sub_grid, values=a[g:] - a[g]),
                class_tag=CLASSICAL,
                exact=d.exact,
                source=d.source + "+shift",
                support_scale=d.support_scale,
            )
            # classical, so this call makes no further shifted check
            sub = _membership(shifted, gap_tol, supp_tol)
            bad = ", ".join(c.name for c in sub.failing()) or "all classical checks pass"
            checks.append(CheckOutcome("shifted_classical", sub.passed, bad, None))

    return MembershipReport(class_tag=d.class_tag, checks=tuple(checks), support=support, warnings=d.warnings)
