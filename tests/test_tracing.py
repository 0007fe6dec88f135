"""The benchmark's tracer wraps package functions by name. Every traced
name must resolve, and every module that imports one by name must hold
the same object, or tracing fails or misses calls. The benchmark's
worker calls package names too, and each must resolve. The tracer module
is only imported and constructed here, and the worker is only parsed;
nothing is installed."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def test_worker_names_resolve():
    """Every module.attr the worker reads from a ruledcurves module it
    imports (`from ruledcurves import cli, comb, ...`) exists."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "ruledcurves"
               for alias in node.names}
    names = {f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    assert names
    for name in sorted(names):
        module_name, attr = name.split(".")
        assert hasattr(importlib.import_module(f"ruledcurves.{module_name}"), attr), name
