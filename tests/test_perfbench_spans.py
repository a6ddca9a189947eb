"""The benchmark's span tracer still finds every layer function it wraps.

``perfbench/spans.py`` patches ``sigma_lab`` functions by module and
attribute name.  A refactor that moves one of them would otherwise
break ``perfbench/run.py --trace 1`` without any test noticing.
"""

import importlib
import sys
from pathlib import Path

import sigma_lab  # noqa: F401  (install expects every layer imported)

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


def test_span_tracer_patches_and_restores_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    before = _bindings()
    try:
        tracer = spans.install("guard")
        try:
            patched = {(mod.__name__, key) for mod, key, _ in tracer._restore}
            for mod, key, original in tracer._restore:
                assert getattr(mod, key).__wrapped__ is original
        finally:
            tracer.uninstall()
    finally:
        sys.modules.pop("spans", None)
    assert {("sigma_lab.ensemble", name) for name in ENSEMBLE_LAYERS} <= patched
    assert _bindings() == before
