"""The benchmark tracer (benchmark/spans.py) names program functions by module.

A rename or move in changeseries would otherwise make `--trace 1` fail or
silently lose a span, so every name it lists must resolve.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    spans = load_spans()
    for modname, fn_name in spans.FUNCTIONS:
        module = importlib.import_module(f"changeseries.{modname}")
        assert callable(getattr(module, fn_name, None)), f"changeseries.{modname}.{fn_name}"


def test_tracer_installs_and_restores():
    from changeseries import backbone, layers

    spans = load_spans()
    originals = (backbone.load_checkpoint, layers.Conv2d.forward)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert backbone.load_checkpoint is not originals[0]
    finally:
        tracer.uninstall()
    assert (backbone.load_checkpoint, layers.Conv2d.forward) == originals
