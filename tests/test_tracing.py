"""The benchmark's tracer wraps package functions by name. Every traced
name must resolve, and every module that imports one by name must hold
the same object, or tracing fails or misses calls. The benchmark's
worker calls package names too, and each must resolve. The tracer must
install on the package and run a parse and an Alexander polynomial, and
uninstalling must restore every attribute it patched. The CLI's `repro`
run must reach the traced functions through their wrappers. The worker
is only parsed."""

import ast
import functools
import importlib
import importlib.util
import inspect
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


def test_tracer_installs_runs_and_restores():
    """Install wraps the SPANS functions in every namespace that holds them
    and counts LaurentPoly's +, * and reversed *; the parser and the
    Alexander polynomial run under it, and uninstall puts back each
    original."""
    tracing = _tracing()
    laurent = importlib.import_module("ruledcurves.laurent")
    invariants = importlib.import_module("ruledcurves.invariants")
    braid = importlib.import_module("ruledcurves.braid")
    targets = [(laurent.LaurentPoly, name) for name in ("__mul__", "__rmul__", "__add__")]
    for name, importers in tracing.SPANS:
        module_name, attr = name.split(".")
        targets += [(importlib.import_module(f"ruledcurves.{target}"), attr)
                    for target in (module_name, *importers)]
    originals = [getattr(owner, attr) for owner, attr in targets]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in zip(targets, originals))
        p = laurent.parse_poly("(t - 1)^2*(t + 1) + 1")
        assert 2 * p == laurent.parse_poly("2*t^3 - 2*t^2 - 2*t + 4")
        trefoil = invariants.alexander_polynomial(braid.word(2, [1, 1, 1]))
        assert trefoil == laurent.parse_poly("t^2 - t + 1")
        assert tracer.mul_calls and tracer.add_calls
        assert [span[tracing.NAME] for span in tracer.spans] == ["invariants.alexander_polynomial"]
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original
               for (owner, attr), original in zip(targets, originals))


# SPANS names that no decision calls on the `repro` path.
_OFF_REPRO_PATH = {"laurent.divide_exact", "laurent.gcd_primitive", "invariants.reduced_burau",
                   "comb.find_closure", "comb.chain_successors"}


def _held_by(module) -> list:
    """Every object a module's namespace holds: through containers, and
    through the defaults and closures of its own functions."""
    stack, held = [v for v in vars(module).values() if not inspect.ismodule(v)], {}
    while stack:
        obj = stack.pop()
        if id(obj) in held:
            continue
        held[id(obj)] = obj
        if isinstance(obj, dict):
            stack += obj.values()
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack += obj
        elif isinstance(obj, functools.partial):
            stack += [obj.func, *obj.args, *obj.keywords.values()]
        elif inspect.isfunction(obj) and obj.__module__ == module.__name__:
            stack += [*(obj.__defaults__ or ()), *(obj.__kwdefaults__ or {}).values(),
                      *(cell.cell_contents for cell in obj.__closure__ or ())]
    return list(held.values())


def test_tracer_sees_the_cli_repro_calls(capsys):
    """The traced `cli-repro` workload runs `cli.main(["repro", "--json"])`
    under the tracer. The CLI's command and fixture tables must look
    package functions up on their modules at call time: while the tracer
    is installed the CLI holds no unwrapped SPANS function, and the run
    records a span for every SPANS name on its path. A table that bound
    one at import would hide its calls from the counters."""
    tracing = _tracing()
    cli = importlib.import_module("ruledcurves.cli")
    originals = {}
    for name, _ in tracing.SPANS:
        module_name, attr = name.split(".")
        originals[name] = getattr(importlib.import_module(f"ruledcurves.{module_name}"), attr)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        held = _held_by(cli)
        code = cli.main(["repro", "--json"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert not [name for name, fn in originals.items() if any(obj is fn for obj in held)]
    seen = {span[tracing.NAME] for span in tracer.spans}
    assert {name for name, _ in tracing.SPANS} - _OFF_REPRO_PATH <= seen
