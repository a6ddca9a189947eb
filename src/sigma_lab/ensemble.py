"""Chunked evaluation of path ensembles.

``run_chunked`` evaluates a chunk function over chunks of a fixed
number of paths (``CHUNK_SIZE``, 256, unless the caller passes
another), serially or through a process pool, and concatenates the
per-path features in index order, so results are independent of
chunking and of the worker count.  The row contract: a chunk function returns, for
each feature, one row per path of its chunk (an array whose leading
length is the chunk's count); ``run_chunked`` raises ``ContractError``
naming any feature that breaks it.

The public functions of the concept modules (``paths``, ``density``,
``balayage``, ``sigma_classes``) take a ``Path`` of one path or of
rows, so a chunk function calls them on its rows and each row equals
that path's own result bit for bit, because the two share code, not
just formulas.  Row generation keeps one counter-based stream per path
for that reason.  The path and density row kernels are re-exported
here because ``perfbench``'s span tracer patches them by name as
``sigma_lab.ensemble.<name>``: its per-layer metrics are the
``ensemble.*`` spans, and dropping a re-export would rename one.

Pool workers are spawned once per worker count and kept for the
process; a worker that dies surfaces as ``BrokenProcessPool``, and the
broken pool is dropped so that the next call starts a fresh one.
"""

from __future__ import annotations

import atexit
from collections.abc import Callable

import numpy as np

from .density import density_matrix, driver_matrix, zero_geometry
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
    "zero_geometry",
]

CHUNK_SIZE = 256

_POOLS: dict[int, object] = {}


def _pool(workers: int):
    # spawn startup is slow; keep one pool per worker count alive for the process
    pool = _POOLS.get(workers)
    if pool is None:
        # imported here, so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        pool = _POOLS[workers] = ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn"))
    return pool


@atexit.register
def _close_pools() -> None:
    # shut the pools down while the interpreter is whole; collected
    # during its teardown, an executor's callbacks fail
    for pool in _POOLS.values():
        pool.shutdown(cancel_futures=True)
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

    ``fn`` returns, per feature, an array of ``count`` rows.  With
    ``workers`` > 1 the chunks go through a process pool (fn must then
    be picklable); the concatenation order is the index order either
    way, so the output never depends on the pool.
    """
    ranges = chunk_ranges(n_paths, chunk_size)
    if workers > 1 and len(ranges) > 1:
        from concurrent.futures.process import BrokenProcessPool

        try:
            parts = list(_pool(workers).map(fn, *zip(*ranges)))
        except BrokenProcessPool:
            _POOLS.pop(workers, None)
            raise
    else:
        # Owned copies: a feature that is a view (a column of a chunk's
        # matrix) would otherwise keep that whole matrix alive.
        parts = [{k: np.array(v) for k, v in fn(s, c).items()} for s, c in ranges]
    keys = list(parts[0].keys())
    out: dict[str, np.ndarray] = {}
    for k in keys:
        if any(k not in p for p in parts):
            raise ContractError(f"feature {k!r} missing from some chunks")
        for (start, count), p in zip(ranges, parts):
            if np.shape(p[k])[:1] != (count,):
                raise ContractError(
                    f"feature {k!r} has shape {np.shape(p[k])} for the {count}-path chunk at {start}; it needs one row per path"
                )
        out[k] = np.concatenate([np.asarray(p[k]) for p in parts])
    return out
