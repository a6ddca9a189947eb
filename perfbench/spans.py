"""Outside-in span tracer for one benchmark unit.

``install`` wraps the public functions of each ``sigma_lab`` layer.
``experiments.py`` binds its names with ``from .x import y``, so
patching the defining module alone would miss those call sites: every
``sigma_lab.*`` module attribute that refers to the same function
object is rebound.  Spawned pool workers re-import unpatched modules,
so a run with ``workers > 1`` records parent-side spans only.

Each span records its name, start, end, parent span and run id.
Spans stay in memory until ``write``.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import tracemalloc
from time import perf_counter

_MB = float(1 << 20)


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def _wrap(self, name_of, fn, counter, before):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before()
            record = [name_of(args, kwargs), 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    self._add(key, amount)
            return result

        return traced

    def patch(self, module: str, attr: str, span, counter=None, before=None) -> None:
        """Rebind ``module.attr`` and every sigma_lab alias of it.

        ``span`` is the span name, or a function of (args, kwargs) that
        returns it; ``counter(args, kwargs, result)`` returns counts to add.
        """
        original = getattr(sys.modules[module], attr)
        name_of = (lambda args, kwargs: span) if isinstance(span, str) else span
        traced = self._wrap(name_of, original, counter, before)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "sigma_lab" and not mod_name.startswith("sigma_lab."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    def aggregate(self) -> dict[str, float]:
        """``<span>.self_s``, ``<span>.wall_s`` and ``<span>.calls`` per span
        name, plus the counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            for key, amount in (("self_s", end - start - child[i]), ("wall_s", end - start), ("calls", 1.0)):
                out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0.0) + amount
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        rows = [[name, start, end, parent, self.run_id] for name, start, end, parent in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "run_id"], "spans": rows}, fh)


def _normal_draws(args, kwargs, result):
    return {"paths.normal_draws": float(result.size)}


def _matrix_bytes(args, kwargs, result):
    # computed as rows x cols x 8, not measured
    return {"ensemble.matrix_bytes": float(result.size * 8)}


def _chunk_counter(run_chunked):
    sig = inspect.signature(run_chunked)

    def count(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        n_paths, chunk_size = bound.arguments["n_paths"], bound.arguments["chunk_size"]
        return {"ensemble.run_chunked.chunks": float(math.ceil(n_paths / chunk_size))}

    return count


def _experiment_span(args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    return f"experiments.{cfg.experiment}"


def _experiment_alloc(args, kwargs, result):
    return {f"experiments.{result.name}.alloc_peak_mb": tracemalloc.get_traced_memory()[1] / _MB}


_CONSTRUCTORS = (
    "assemble",
    "abs_martingale",
    "pm_combination",
    "drawdown",
    "lifted_reflected",
    "retag",
    "product",
    "scaled_by_f",
)


def install(run_id: str) -> Tracer:
    """Trace every layer of an imported sigma_lab."""
    import sigma_lab.ensemble as ensemble
    import sigma_lab.estimates as estimates

    t = Tracer(run_id)
    t.patch("sigma_lab.paths", "bm_increments", "paths.bm_increments", _normal_draws)
    t.patch("sigma_lab.ensemble", "run_chunked", "ensemble.run_chunked", _chunk_counter(ensemble.run_chunked))
    for name in ("increments_matrix", "cumsum_paths", "density_matrix"):
        t.patch("sigma_lab.ensemble", name, f"ensemble.{name}", _matrix_bytes)
    for name in ("driver_matrix", "zero_geometry"):
        t.patch("sigma_lab.ensemble", name, f"ensemble.{name}")
    for name in ("zero_set_from_level_series", "density_path", "density_driver_path", "zero_set", "ensemble_weights"):
        t.patch("sigma_lab.density", name, f"density.{name}")
    for name in ("rho", "shift", "tanaka_residual", "ito_residual"):
        t.patch("sigma_lab.balayage", name, f"balayage.{name}")
    t.patch("sigma_lab.sigma_classes", "verify_membership", "sigma_classes.verify_membership")
    for name in _CONSTRUCTORS:
        t.patch("sigma_lab.sigma_classes", name, "sigma_classes.construct")
    for name in estimates.__all__:
        if inspect.isfunction(getattr(estimates, name)):
            t.patch("sigma_lab.estimates", name, "estimates")
    t.patch("sigma_lab.experiments", "run_experiment", _experiment_span)
    t.patch("sigma_lab.reporting", "write_report", "reporting.write_report")
    return t


def install_alloc(run_id: str) -> Tracer:
    """Record the tracemalloc peak of each experiment, and nothing else.

    tracemalloc hooks every allocation and doubles the run time of the
    per-path code, so it gets a unit of its own, apart from the spans.
    """
    t = Tracer(run_id)
    t.patch(
        "sigma_lab.experiments",
        "run_experiment",
        _experiment_span,
        _experiment_alloc,
        before=tracemalloc.reset_peak,
    )
    tracemalloc.start()
    return t
