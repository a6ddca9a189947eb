"""Density martingales, their zero sets, and ensemble reweighting.

A signed reference measure is represented through the path of its
density martingale D relative to the driving probability measure.  Two
closed-form models are provided:

``StoppedBM``
    D is a Brownian motion started at ``start > 0`` and frozen at
    ``stop_time``.  D may cross zero before the freeze, so the measure
    with terminal density D is genuinely signed.
``ErfSign``
    D_t = 2*Phi((W_t + offset)/sqrt(terminal_time - t)) - 1 before
    ``terminal_time`` and sign(W_terminal + offset) afterwards, with W
    the model's own Brownian driver.  D is a bounded martingale whose
    terminal absolute value is 1 on every path, and D vanishes exactly
    where W crosses the level -offset.

The classical probability case D = 1 needs no model: its weights are
all one and its zero set is empty (``empty_zero_set`` of its path).

Zero sets are detected on the grid by sign changes: the interval
(t_k, t_{k+1}) carries a zero when D_k * D_{k+1} <= 0 with the two
values not both zero, and the zero is booked at the right endpoint
k + 1.  The convention sup(empty) = 0 applies throughout: with no
crossing, the last zero time and every last-zero-before-t time is 0.

The driver, density and zero-set functions work on path rows.  A
``ZeroSetInfo`` holds the zero sets of one path or of rows of paths:
their masks, anchor columns and last zeros on one grid.
``zero_set_from_level_series``, ``zero_set`` and ``driver_zero_set``
read it off a series, a density ``Path`` or a driver ``Path`` of
either shape, through the one sign-change kernel ``zero_geometry``, so
a row of a chunk's zero set equals that path's own bit for bit.  The
per-path samplers (``density_driver_path``, ``density_path``) are row
0 of ``driver_matrix`` and ``density_matrix`` for their seed.

Every model has its own time span and its own driver.  What differs
between the models is decided here and nowhere else: that span
(``model_time``), where its driver starts (``driver_matrix``), D's
value from that span on (``terminal_density``, which every check
weights by), and the series whose sign changes are D's zeros
(``zero_level``).  ErfSign(offset=c) and StoppedBM(start=c) on one
span, as in the registry, share one driver and so one zero set H.

``ndtr`` is the package's one normal CDF Phi: a numpy port of Cephes'
erfc (Moshier, *Methods and Programs for Mathematical Functions*,
1989), the code behind ``scipy.special.ndtr``.  ErfSign's density and
r1's bounded member both evaluate it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, ContractError, DegenerateMeasureError
from .paths import Path, SeedSpec, TimeGrid, cumsum_paths, increments_matrix, SUBSTREAM_DENSITY

__all__ = [
    "ndtr",
    "StoppedBM",
    "ErfSign",
    "DensityModel",
    "ZeroSetInfo",
    "empty_zero_set",
    "model_time",
    "driver_matrix",
    "terminal_density",
    "density_matrix",
    "zero_level",
    "zero_geometry",
    "density_path",
    "density_driver_path",
    "zero_set",
    "driver_zero_set",
    "zero_set_from_level_series",
    "ensemble_weights",
]


# Cephes ndtr.c: erf = x T(x^2)/U(x^2) for |x| < 1; erfc = exp(-x^2) P(x)/Q(x)
# for 1 <= |x| < 8 and exp(-x^2) R(x)/S(x) beyond; Q, S and U are monic
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2, 9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
# exp(-x^2) underflows past x^2 = log(DBL_MAX), where erfc is set to 0 (or 2)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = 0.70710678118654752440
# elements per block of ndtr: its five float64 buffers stay in cache
_NDTR_BLOCK = 16384


def _horner(x: np.ndarray, coefs: tuple[float, ...], out: np.ndarray, monic: bool) -> np.ndarray:
    """Cephes polevl at x (p1evl when ``monic``: a leading 1 left out
    of ``coefs``), written into ``out``, which must not be x."""
    if monic:
        np.add(x, coefs[0], out=out)
    else:
        np.multiply(x, coefs[0], out=out)
        out += coefs[1]
        coefs = coefs[1:]
    for c in coefs[1:]:
        out *= x
        out += c
    return out


def _erfc_rational(u: np.ndarray, z: np.ndarray, num: tuple[float, ...], den: tuple[float, ...]) -> np.ndarray:
    """exp(-u^2) num(z)/den(z), in Cephes' order, with z = |u|."""
    y = np.exp(-(u * u))
    y *= _horner(z, num, np.empty_like(z), False)
    y /= _horner(z, den, np.empty_like(z), True)
    return y


def _erfc_far(u: np.ndarray) -> np.ndarray:
    """Cephes erfc at arguments with |u| >= 1 (no NaN)."""
    z = np.abs(u)
    y = np.zeros_like(u)
    live = z * z <= _MAXLOG
    mid = z < 8.0
    for sel, num, den in ((mid, _ERFC_P, _ERFC_Q), (live & ~mid, _ERFC_R, _ERFC_S)):
        y[sel] = _erfc_rational(u[sel], z[sel], num, den)
    return np.where(u < 0.0, 2.0 - y, y)


def ndtr(a: np.ndarray | float) -> np.ndarray:
    """The standard normal CDF Phi(a) = erfc(-a/sqrt(2))/2, elementwise.

    Cephes' arithmetic step for step, so it matches
    ``scipy.special.ndtr`` to within the rounding of numpy's ``exp``
    (a few ulp): exactly 0.5 at 0, 0 and 1 at -inf and inf, 0 below
    a = -sqrt(2 MAXLOG) ~ -37.68 (and 1 above its negative), and NaN
    at NaN.

    The T/U branch runs in place over cache-sized blocks of the
    flattened input; the elements with |a| >= sqrt(2) are gathered from
    all of them and overwritten by the erfc branches, again in blocks.
    """
    a = np.asarray(a, dtype=np.float64)
    out = np.empty(a.shape)
    flat, flat_out = a.reshape(-1), out.reshape(-1)
    n = min(_NDTR_BLOCK, flat.size)
    u, x, x2, num, den = (np.empty(n) for _ in range(5))
    far_parts = [np.empty(0, dtype=np.intp)]
    for s in range(0, flat.size, _NDTR_BLOCK):
        m = min(n, flat.size - s)
        ub, xb, x2b, nb, db = u[:m], x[:m], x2[:m], num[:m], den[:m]
        np.multiply(flat[s:s + m], -_SQRT1_2, out=ub)
        np.abs(ub, out=xb)
        far_parts.append(np.flatnonzero(xb >= 1.0) + s)
        # 1 - erf(u) on u clipped to [-1, 1], which keeps +-inf out of T/U
        np.clip(ub, -1.0, 1.0, out=xb)
        np.multiply(xb, xb, out=x2b)
        _horner(x2b, _ERF_T, nb, False)
        _horner(x2b, _ERF_U, db, True)
        nb *= xb
        nb /= db
        np.subtract(1.0, nb, out=nb)
        np.multiply(nb, 0.5, out=flat_out[s:s + m])
    far_at = np.concatenate(far_parts)
    for s in range(0, far_at.size, _NDTR_BLOCK):
        idx = far_at[s:s + _NDTR_BLOCK]
        flat_out[idx] = 0.5 * _erfc_far(flat[idx] * -_SQRT1_2)
    return out


@dataclass(frozen=True)
class StoppedBM:
    """D = Brownian motion from ``start`` frozen at ``stop_time``."""

    start: float
    stop_time: float

    def __post_init__(self) -> None:
        if self.start <= 0.0:
            raise ConfigurationError("StoppedBM start must be positive")
        if self.stop_time <= 0.0:
            raise ConfigurationError("StoppedBM stop_time must be positive")


@dataclass(frozen=True)
class ErfSign:
    """Gaussian-CDF martingale closing at sign(W_terminal + offset)."""

    offset: float
    terminal_time: float

    def __post_init__(self) -> None:
        if self.offset <= 0.0:
            raise ConfigurationError("ErfSign offset must be positive")
        if self.terminal_time <= 0.0:
            raise ConfigurationError("ErfSign terminal_time must be positive")


DensityModel = StoppedBM | ErfSign


@dataclass(frozen=True, eq=False)
class ZeroSetInfo:
    """Grid geometry of the density zero sets of one path or of rows.

    Built from the zero-set mask; the anchors and last zeros follow from
    it, each computed when first read and from the mask alone.

    Attributes
    ----------
    in_h:
        The zero sets as masks over the grid indices (right endpoints),
        shaped (..., n+1) like the paths; one-dimensional for one path.
    gamma_index:
        For each grid index j, the index of the last zero at or before
        j (0 when there is none), shaped like ``in_h``.
    gbar_index / gbar:
        Each row's last zero index and time (0 when its zero set is
        empty): an int and a float for one path, one per row otherwise.
    """

    grid: TimeGrid
    in_h: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        in_h = np.asarray(self.in_h, dtype=bool)
        if in_h.ndim < 1 or in_h.shape[-1] != self.grid.n_steps + 1:
            raise ContractError("zero-set mask length does not match the grid")
        object.__setattr__(self, "in_h", in_h)

    @cached_property
    def gamma_index(self) -> np.ndarray:
        return np.maximum.accumulate(np.where(self.in_h, np.arange(self.in_h.shape[-1]), 0), axis=-1)

    @cached_property
    def gbar_index(self) -> int | np.ndarray:
        # each row's last True, read from the right; 0 for an empty row
        in_h = self.in_h
        last = np.where(in_h.any(axis=-1), in_h.shape[-1] - 1 - in_h[..., ::-1].argmax(axis=-1), 0)
        return int(last) if in_h.ndim == 1 else last

    @property
    def gbar(self) -> float | np.ndarray:
        return self.gbar_index * self.grid.step

    def check_path(self, X: Path) -> None:
        """Raise ContractError unless X lives on this grid, one row per zero set."""
        if X.grid != self.grid:
            raise ContractError("path and zero set live on different grids")
        if X.values.shape != self.in_h.shape:
            raise ContractError("path and zero set hold different rows")

    def _one_path(self, what: str) -> None:
        if self.in_h.ndim != 1:
            raise ContractError(f"{what} is defined for one path, not for rows")

    @property
    def h_indices(self) -> np.ndarray:
        """Sorted grid indices carrying a detected zero (one path only)."""
        self._one_path("h_indices")
        return np.nonzero(self.in_h)[0].astype(np.int64)


def empty_zero_set(path: Path) -> ZeroSetInfo:
    """The empty zero set of one path or of rows: no zeros, and every
    anchor at index 0."""
    return ZeroSetInfo(grid=path.grid, in_h=np.zeros(path.values.shape, dtype=bool))


def model_time(model: DensityModel) -> float:
    """The model's own time span: where StoppedBM freezes and ErfSign
    closes."""
    return model.stop_time if isinstance(model, StoppedBM) else model.terminal_time


def _require_horizon(model: DensityModel, grid: TimeGrid) -> int:
    """Validate the grid against the model's own time; return the grid
    index of that time."""
    intrinsic = model_time(model)
    if grid.horizon < intrinsic - 1e-12:
        raise ConfigurationError(
            f"grid horizon {grid.horizon} is shorter than the model time {intrinsic}"
        )
    return grid.index_of(min(intrinsic, grid.horizon))


def driver_matrix(model: DensityModel, master_seed: int, start_index: int, count: int, grid: TimeGrid) -> np.ndarray:
    """Density-substream driver rows: StoppedBM's start at ``start``,
    ErfSign's at 0, so the two models share one Brownian draw."""
    _require_horizon(model, grid)
    incs = increments_matrix(master_seed, start_index, count, grid.n_steps, grid.step, SUBSTREAM_DENSITY)
    return cumsum_paths(incs, model.start if isinstance(model, StoppedBM) else 0.0)


def terminal_density(model: DensityModel, driver: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """D at the model's own time, and so at every later grid time, one
    value per driver row: StoppedBM's driver there, and ErfSign's sign
    of W + offset there, which needs no CDF."""
    at_stop = driver[..., _require_horizon(model, grid)]
    if isinstance(model, StoppedBM):
        return at_stop.copy()
    return np.where(at_stop + model.offset >= 0.0, 1.0, -1.0)


def density_matrix(model: DensityModel, driver: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Density rows from driver rows."""
    stop = _require_horizon(model, grid)
    values = np.empty_like(driver)
    if isinstance(model, StoppedBM):
        values[:, :stop] = driver[:, :stop]
    else:
        # ErfSign: smooth CDF transform before the terminal time
        shifted = driver[:, :stop] + model.offset
        values[:, :stop] = 2.0 * ndtr(shifted / np.sqrt(model.terminal_time - grid.times[:stop])) - 1.0
    values[:, stop:] = terminal_density(model, driver, grid)[:, None]
    return values


def density_driver_path(model: DensityModel, seed: SeedSpec, grid: TimeGrid) -> Path:
    """The model's own driver path (density substream): row 0 of
    ``driver_matrix`` for this seed."""
    return Path(grid=grid, values=driver_matrix(model, seed.master_seed, seed.path_index, 1, grid)[0])


def density_path(model: DensityModel, seed: SeedSpec, grid: TimeGrid) -> Path:
    """Sample the density path for one seed on the grid."""
    driver = driver_matrix(model, seed.master_seed, seed.path_index, 1, grid)
    return Path(grid=grid, values=density_matrix(model, driver, grid)[0])


def zero_geometry(level_rows: np.ndarray, last_index: int | None = None) -> np.ndarray:
    """Zero-set masks of series crossing level 0, shaped (..., n+1).

    Zeros are booked at the right endpoint of a sign-change interval;
    ``last_index`` discards detections past a freeze column.
    """
    left, right = level_rows[..., :-1], level_rows[..., 1:]
    change = (left * right <= 0.0) & ~((left == 0.0) & (right == 0.0))
    if last_index is not None:
        change[..., last_index:] = False
    in_h = np.zeros(level_rows.shape, dtype=bool)
    in_h[..., 1:] = change
    return in_h


def zero_set_from_level_series(series: np.ndarray, grid: TimeGrid, last_index: int | None = None) -> ZeroSetInfo:
    """Zero sets of series crossing level 0 on the grid, one per row.

    ``last_index`` restricts detection to intervals ending at or before
    that index (used when the series is frozen afterwards).
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim < 1 or series.shape[-1] != grid.n_steps + 1:
        raise ContractError("level series length does not match the grid")
    return ZeroSetInfo(grid=grid, in_h=zero_geometry(series, last_index))


def zero_level(model: DensityModel, driver: np.ndarray) -> np.ndarray:
    """Driver rows whose sign changes, up to the model's own time, are
    D's zeros.

    ErfSign's D vanishes exactly where W crosses -offset, and reading
    that off W + offset avoids any CDF round-off near zero.  StoppedBM's
    D is its driver until the freeze.
    """
    return driver + model.offset if isinstance(model, ErfSign) else driver


def zero_set(D: Path, model: DensityModel) -> ZeroSetInfo:
    """Detect the density zero set by sign changes of D on the grid, up
    to the model's own time.  The CDF transform is strictly monotone in
    W, so this agrees with ``driver_zero_set`` wherever the CDF is
    resolvable."""
    return zero_set_from_level_series(D.values, D.grid, last_index=_require_horizon(model, D.grid))


def driver_zero_set(model: DensityModel, driver: Path) -> ZeroSetInfo:
    """D's zero sets read off its driver paths alone, so that one draw of
    the density substream serves both."""
    stop = _require_horizon(model, driver.grid)
    return zero_set_from_level_series(zero_level(model, driver.values), driver.grid, last_index=stop)


def ensemble_weights(terminal_values: np.ndarray) -> np.ndarray:
    """The P' weight of each path: |D_terminal| over its ensemble mean,
    so the weights have mean 1.

    Raises
    ------
    DegenerateMeasureError
        If every terminal value is zero (the normalized absolute
        measure does not exist).
    """
    terminal = np.asarray(terminal_values, dtype=np.float64)
    if terminal.ndim != 1 or terminal.size == 0:
        raise ContractError("terminal_values must be a non-empty 1-d array")
    raw = np.abs(terminal)
    normalizer = float(np.mean(raw))
    if normalizer == 0.0:
        raise DegenerateMeasureError("all terminal density values are zero")
    return raw / normalizer

