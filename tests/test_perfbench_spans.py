"""The benchmark's span tracer still finds every layer function it wraps.

``perfbench/spans.py`` patches ``sigma_lab`` functions by module and
attribute name.  A refactor that moves one of them would otherwise
break ``perfbench/run.py --trace 1`` without any test noticing.  Its
draw counts come from wrapping ``paths.bm_increments``, so every normal
draw must still pass through that one per-row call.
"""

import importlib
import sys
from pathlib import Path

import pytest

import sigma_lab  # noqa: F401  (install expects every layer imported)
from sigma_lab import ExperimentConfig, run_experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

ENSEMBLE_LAYERS = ("run_chunked", "increments_matrix", "cumsum_paths", "density_matrix", "driver_matrix", "zero_geometry")


def _bindings() -> dict:
    return {
        (name, key): value
        for name, mod in list(sys.modules.items())
        if name == "sigma_lab" or name.startswith("sigma_lab.")
        for key, value in vars(mod).items()
        if callable(value)
    }


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        yield importlib.import_module("spans")
    finally:
        sys.modules.pop("spans", None)


def test_span_tracer_patches_and_restores_every_layer(spans):
    before = _bindings()
    tracer = spans.install("guard")
    try:
        patched = {(mod.__name__, key) for mod, key, _ in tracer._restore}
        for mod, key, original in tracer._restore:
            assert getattr(mod, key).__wrapped__ is original
    finally:
        tracer.uninstall()
    assert {("sigma_lab.ensemble", name) for name in ENSEMBLE_LAYERS} <= patched
    assert _bindings() == before


def test_every_normal_draw_is_counted_through_the_per_row_call(spans):
    # passage-eq4 at the fast step 2e-3 reads one primary and one density
    # row of 500 draws per path, each through one bm_increments call
    tracer = spans.install("guard")
    try:
        run_experiment(ExperimentConfig(experiment="passage-eq4", n_paths=8), suite="fast")
    finally:
        tracer.uninstall()
    counts = tracer.aggregate()
    assert counts["paths.normal_draws"] == 8000
    assert counts["paths.bm_increments.calls"] == 16
