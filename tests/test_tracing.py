"""The benchmark's tracer wraps package functions by name. Every traced
name must resolve, and every module that imports one by name must hold
the same object, or tracing fails or misses calls. The tracer module is
only imported and constructed here; nothing is installed."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _tracing()
    tracing.Tracer()  # reads comb.is_closed.cache_info(), so that cache must stay
    spans = tracing.SPANS
    assert spans
    for name, importers in spans:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"ruledcurves.{module_name}")
        fn = getattr(module, attr, None)
        assert callable(fn), name
        for importer in importers:
            other = importlib.import_module(f"ruledcurves.{importer}")
            assert getattr(other, attr, None) is fn, (name, importer)
