"""Chunked evaluation of path ensembles.

``run_chunked`` evaluates a chunk function over fixed 256-path chunks,
serially or through a process pool, and concatenates the per-path
features in index order, so results are independent of chunking and
of the worker count.

The row kernels behind the chunk functions live with their concepts
(``paths``, ``density``, ``balayage``, ``sigma_classes``); the path,
density and zero-geometry kernels are re-exported here.  Each per-path function
calls the same kernel on one row, so an ensemble row equals the
per-path result bit for bit because the two share code, not just
formulas.  Row generation keeps one counter-based stream per path for
that reason.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .density import ZeroGeometry, density_matrix, driver_matrix, zero_geometry
from .errors import ConfigurationError, ContractError
from .paths import cumsum_paths, increments_matrix

__all__ = [
    "CHUNK_SIZE",
    "chunk_ranges",
    "run_chunked",
    "increments_matrix",
    "cumsum_paths",
    "driver_matrix",
    "density_matrix",
    "ZeroGeometry",
    "zero_geometry",
]

CHUNK_SIZE = 256

_POOLS: dict[int, object] = {}


def _pool(workers: int):
    # spawn startup is slow; keep one pool per worker count alive for the process
    pool = _POOLS.get(workers)
    if pool is None:
        import atexit
        from multiprocessing import get_context

        pool = get_context("spawn").Pool(processes=workers)
        _POOLS[workers] = pool
        if len(_POOLS) == 1:
            atexit.register(_close_pools)
    return pool


def _close_pools() -> None:
    for pool in _POOLS.values():
        pool.terminate()
        pool.join()
    _POOLS.clear()


def chunk_ranges(n_paths: int, chunk_size: int = CHUNK_SIZE) -> list[tuple[int, int]]:
    if n_paths <= 0 or chunk_size <= 0:
        raise ConfigurationError("need positive path and chunk counts")
    return [(s, min(chunk_size, n_paths - s)) for s in range(0, n_paths, chunk_size)]


def run_chunked(
    n_paths: int,
    fn: Callable[[int, int], dict[str, np.ndarray]],
    chunk_size: int = CHUNK_SIZE,
    workers: int = 1,
) -> dict[str, np.ndarray]:
    """Evaluate fn(start, count) per chunk and concatenate by key.

    ``fn`` returns one 1-d array per feature, of length ``count``.
    With ``workers`` > 1 the chunks go through a process pool (fn must
    then be picklable); the concatenation order is the index order
    either way, so the output never depends on the pool.
    """
    ranges = chunk_ranges(n_paths, chunk_size)
    if workers > 1 and len(ranges) > 1:
        parts = _pool(workers).starmap(fn, ranges)
    else:
        # Owned copies: a feature that is a view (a column of a chunk's
        # matrix) would otherwise keep that whole matrix alive.
        parts = [{k: np.array(v) for k, v in fn(s, c).items()} for s, c in ranges]
    keys = list(parts[0].keys())
    out: dict[str, np.ndarray] = {}
    for k in keys:
        if any(k not in p for p in parts):
            raise ContractError(f"feature {k!r} missing from some chunks")
        out[k] = np.concatenate([np.atleast_1d(np.asarray(p[k])) for p in parts])
    return out
