"""Uniform time grids and exact Brownian path sampling.

Sampling contract
-----------------
All randomness flows through counter-based Philox streams.  The stream
for one path is a pure function of ``(master_seed, path_index)``:

    key     = master_seed << 64 | path_index        (128-bit Philox key)
    counter = substream << 128                      (256-bit start counter)

so streams never overlap (each substream owns a 2**128 block of the
counter space) and any path can be regenerated in isolation, bit for
bit, on any worker.  ``make_stream`` builds that generator;
``bm_increments``, the single source of every increment row, re-keys
one Philox per process to it instead, writing the key words and the
substream's counter word, and draws the row in place.  Substream
indices are fixed constants:

    0  primary construction driver
    1  density driver
    2  secondary member of an independent pair

Brownian increments are exact Gaussian draws scaled by sqrt(step); there
is no discretization error in the increments themselves, only in the
path functionals evaluated on the grid.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "TimeGrid",
    "Path",
    "SeedSpec",
    "SUBSTREAM_PRIMARY",
    "SUBSTREAM_DENSITY",
    "SUBSTREAM_SECONDARY",
    "check_key",
    "make_grid",
    "make_stream",
    "bm_increments",
    "increments_matrix",
    "cumsum_paths",
    "first_hit",
    "before_hit",
    "sample_bm",
    "sample_independent_pair",
]

SUBSTREAM_PRIMARY = 0
SUBSTREAM_DENSITY = 1
SUBSTREAM_SECONDARY = 2

_MASK64 = (1 << 64) - 1
_REL_TOL = 1e-9
# One float64 row of a grid may take at most this many bytes (262,144
# grid points).  A chunk holds a few matrices of 64 to 256 such rows;
# the registry's longest row, zero-geometry's model span at its full
# step 2.5e-4, is 32 KB (4,001 points).
_ROW_BYTE_BUDGET = 2 << 20


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0, step, 2*step, ..., horizon with n_steps intervals."""

    step: float
    horizon: float
    n_steps: int

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.step

    def index_of(self, t: float) -> int:
        """Grid index of time t (must lie on the grid up to rounding)."""
        r = t / self.step
        k = int(round(r)) if np.isfinite(r) else -1
        if k < 0 or k > self.n_steps or abs(k * self.step - t) > _REL_TOL * max(1.0, self.horizon):
            raise ConfigurationError(f"time {t!r} is not a grid point of {self!r}")
        return k


@dataclass(frozen=True, eq=False)
class Path:
    """Scalar paths sampled on one uniform grid: values shaped (..., n+1).

    A one-dimensional ``values`` is one path; a matrix holds one path
    per row, and every function that takes a ``Path`` maps each row on
    its own, so a row of its output equals that row's one-path call bit
    for bit.  Compared by identity; compare ``values`` arrays
    explicitly when content equality is meant.
    """

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim < 1 or values.shape[-1] != self.grid.n_steps + 1:
            raise ConfigurationError(
                f"path needs {self.grid.n_steps + 1} values a row, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ConfigurationError("path values must be finite")


def check_key(master_seed: int, path_index: int = 0) -> None:
    """Refuse a stream key whose seed or path index does not fit in 64
    unsigned bits: the Philox key holds each in one 64-bit word."""
    if not 0 <= master_seed <= _MASK64:
        raise ConfigurationError("master_seed must fit in 64 unsigned bits")
    if not 0 <= path_index <= _MASK64:
        raise ConfigurationError("path_index must fit in 64 unsigned bits")


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus the index of one path in the ensemble."""

    master_seed: int
    path_index: int = 0

    def __post_init__(self) -> None:
        check_key(int(self.master_seed), int(self.path_index))


def make_grid(horizon: float, step: float) -> TimeGrid:
    """Build a uniform grid; horizon must be an exact multiple of step.

    Raises
    ------
    ConfigurationError
        If step or horizon is not positive and finite, one float64 row
        of the grid would take more than 2 MiB (262,144 points), or
        horizon/step is not an integer within relative tolerance 1e-9.
    """
    if not (0.0 < step < np.inf and 0.0 < horizon < np.inf):
        raise ConfigurationError("step and horizon must be positive and finite")
    ratio = horizon / step
    # checked on the float ratio, which may be inf, before it becomes an int
    row_bytes = 8.0 * (ratio + 1.0)
    if row_bytes > _ROW_BYTE_BUDGET:
        raise ConfigurationError(
            f"one row of the grid to time {horizon:g} at step {step:g} takes {row_bytes:.3g} bytes,"
            f" over the {_ROW_BYTE_BUDGET} byte budget; lengthen the step or shorten the horizon"
        )
    n = int(round(ratio))
    if n < 1 or abs(n * step - horizon) > _REL_TOL * max(1.0, abs(horizon)):
        raise ConfigurationError(
            f"horizon {horizon!r} is not an integer multiple of step {step!r}"
        )
    return TimeGrid(step=float(step), horizon=float(horizon), n_steps=n)


def make_stream(seed: SeedSpec, substream: int = SUBSTREAM_PRIMARY) -> np.random.Generator:
    """Counter-based generator for one (path, substream) pair."""
    key = (int(seed.master_seed) << 64) | int(seed.path_index)
    return np.random.Generator(np.random.Philox(key=key, counter=int(substream) << 128))


# bm_increments re-keys one Philox per process instead of constructing a
# fresh one per path: the constructor draws OS entropy for a seed
# sequence the key then overrides, and costs several times the reset.
# A Philox state is its key and counter words plus an empty output
# buffer, so a re-key writes the three words that differ between
# streams into a freshly constructed state and loads it.  The generator
# never leaves this module, and the lock keeps the reset and the draw
# together.
_DRAW_LOCK = threading.Lock()
_DRAW_BITGEN = np.random.Philox(key=0)
_DRAW_GEN = np.random.Generator(_DRAW_BITGEN)
_FRESH_STATE = _DRAW_BITGEN.state
_KEY_WORDS = _FRESH_STATE["state"]["key"]  # [path index, master seed]
_COUNTER_WORDS = _FRESH_STATE["state"]["counter"]  # word 2 is the substream; the others stay 0


def bm_increments(
    master_seed: int, path_index: int, n_steps: int, step: float, substream: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Exact N(0, step) increments for one path; the single source used by
    both the per-path samplers and the ensemble engine (bit-identical).

    The draws are those of ``make_stream(SeedSpec(master_seed,
    path_index), substream)``: the shared Philox is re-keyed to that
    stream's start.  They are drawn and scaled in ``out`` (a new array
    when None), a contiguous float64 row of ``n_steps``, and returned.
    """
    check_key(master_seed, path_index)
    if out is None:
        out = np.empty(n_steps)
    with _DRAW_LOCK:
        _KEY_WORDS[0] = int(path_index)
        _KEY_WORDS[1] = master_seed
        _COUNTER_WORDS[2] = substream
        _DRAW_BITGEN.state = _FRESH_STATE
        _DRAW_GEN.standard_normal(n_steps, out=out)
    out *= math.sqrt(step)
    return out


def increments_matrix(
    master_seed: int,
    start_index: int,
    count: int,
    n_steps: int,
    step: float,
    substream: int = SUBSTREAM_PRIMARY,
) -> np.ndarray:
    """Gaussian increment rows for paths start_index .. start_index+count-1,
    each drawn in place by ``bm_increments``."""
    out = np.empty((count, n_steps))
    for i in range(count):
        bm_increments(master_seed, start_index + i, n_steps, step, substream, out=out[i])
    return out


def cumsum_paths(incs: np.ndarray, start: float = 0.0) -> np.ndarray:
    """Path values from increment rows, with the given common start."""
    count, n = incs.shape
    values = np.empty((count, n + 1))
    values[:, 0] = start
    np.cumsum(incs, axis=1, out=values[:, 1:])
    if start != 0.0:
        values[:, 1:] += start
    return values


def first_hit(mask: np.ndarray) -> np.ndarray:
    """Index of the first True along the last axis, or -1 where there is none."""
    return np.where(mask.any(axis=-1), mask.argmax(axis=-1), -1)


def before_hit(values: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """Each row's value one step before its first hit (``first_hit``
    indices); inf where there is none, and for a hit at index 0, which
    no caller meets: the processes they scan start at 0, below their level."""
    picked = values[np.arange(values.shape[0]), np.maximum(hit - 1, 0)]
    return np.where(hit > 0, picked, np.inf)


def _one_path(grid: TimeGrid, start: float, seed: SeedSpec, substream: int) -> Path:
    incs = increments_matrix(seed.master_seed, seed.path_index, 1, grid.n_steps, grid.step, substream)
    return Path(grid=grid, values=cumsum_paths(incs, start)[0])


def sample_bm(grid: TimeGrid, start: float, seed: SeedSpec) -> Path:
    """Brownian path on the grid: values[0] = start, exact Gaussian increments.

    Deterministic: the same (grid, start, seed) always yields bit-identical
    values, independent of call order or process.  It is the one-row
    case of ``increments_matrix`` and ``cumsum_paths``.
    """
    return _one_path(grid, start, seed, SUBSTREAM_PRIMARY)


def sample_independent_pair(
    grid: TimeGrid, starts: tuple[float, float], seed: SeedSpec
) -> tuple[Path, Path]:
    """Two Brownian paths with independent increment streams.

    The first path equals sample_bm(grid, starts[0], seed); the second
    draws from the disjoint secondary substream of the same seed.
    """
    return sample_bm(grid, starts[0], seed), _one_path(grid, starts[1], seed, SUBSTREAM_SECONDARY)
