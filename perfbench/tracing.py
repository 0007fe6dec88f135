"""Per-layer tracing installed from outside the program.

``Tracer.install()`` replaces the public functions named in ``SPANS``
with wrappers in every module namespace where callers look the name up
(``invariants`` imports ``has_simple_unit_circle_root`` and
``divide_exact`` by name, so those are wrapped there too), and wraps
``LaurentPoly.__mul__``/``__add__`` with counters only. Each wrapped call
records a span: name, start, end, parent span and operation id. Spans
stay in memory; ``summary()`` reduces them to additive totals once the
run ends, so the totals of several processes can be summed.
"""

from __future__ import annotations

import importlib
import time

# (span name, other modules that import the function by name). The span
# name is "<module>.<function>" in the ruledcurves package.
SPANS = (
    ("laurent.has_simple_unit_circle_root", ("invariants",)),
    ("laurent.gcd_primitive", ()),
    ("laurent.divide_exact", ("invariants",)),
    ("braid.garside_normal_form", ()),
    ("invariants.reduced_burau", ()),
    ("invariants.alexander_polynomial", ()),
    ("invariants.determinant_of_closure", ()),
    ("invariants.quasipositivity_verdict", ()),
    ("lscheme.to_braid", ()),
    ("lscheme.weighted_comb", ()),
    ("comb.find_closure", ()),
    ("comb.is_closed", ()),
    ("comb.chain_successors", ()),
    ("comb.mu_exists", ()),
    ("comb.mu_count", ()),
    ("schemes7.realizable", ()),
    ("schemes7.enumerate_schemes", ()),
    ("cli.run_repro", ()),
)


def _module(name: str):
    return importlib.import_module(f"ruledcurves.{name}")


# Amounts read off a call's argument or result, summed per span name.
_AMOUNTS = {
    "invariants.reduced_burau": lambda args, result: len(args[0].letters),
    "braid.garside_normal_form": lambda args, result: len(result.factors),
}

# Span fields, one list per span.
NAME, START, END, PARENT, OP, STRANDS, ERROR = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.amounts: dict[str, int] = {}
        self.digits_max = 0
        self.mul_calls = 0
        self.mul_terms = 0
        self.add_calls = 0
        self._restore: list[tuple[object, str, object]] = []
        self._is_closed = _module("comb").is_closed  # the lru_cache, for cache_info()
        self._cache_before = self._cache_info()

    # -- installation ---------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        amount = _AMOUNTS.get(name)
        is_det = name == "invariants.determinant_of_closure"
        tags_strands = name == "invariants.alexander_polynomial"

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    args[0].strands if tags_strands else 0, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if amount is not None:
                self.amounts[name] = self.amounts.get(name, 0) + amount(args, result)
            if is_det:
                self.digits_max = max(self.digits_max, len(str(result)))
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, module, attr: str, value) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        for name, importers in SPANS:
            module, attr = name.split(".")
            wrapped = self._wrap(name, getattr(_module(module), attr))
            for target in (module, *importers):
                self._set(_module(target), attr, wrapped)
        poly = _module("laurent").LaurentPoly
        mul, add = poly.__mul__, poly.__add__

        def counted_mul(a, b):
            self.mul_calls += 1
            self.mul_terms += len(a.coeffs) * (len(b.coeffs) if isinstance(b, poly) else 1)
            return mul(a, b)

        def counted_add(a, b):
            self.add_calls += 1
            return add(a, b)

        self._set(poly, "__mul__", counted_mul)
        self._set(poly, "__rmul__", counted_mul)
        self._set(poly, "__add__", counted_add)

    def uninstall(self) -> None:
        while self._restore:
            module, attr, value = self._restore.pop()
            setattr(module, attr, value)

    def _cache_info(self) -> tuple[int, int]:
        info = self._is_closed.cache_info()
        return info.hits, info.misses

    # -- reduction --------------------------------------------------------

    def summary(self) -> dict:
        """Additive totals: seconds, self seconds and calls per span name,
        plus the ratios' numerators and denominators."""
        spans = self.spans
        seconds: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_seconds = [0.0] * len(spans)
        for span in spans:
            d = span[END] - span[START]
            seconds[span[NAME]] = seconds.get(span[NAME], 0.0) + d
            calls[span[NAME]] = calls.get(span[NAME], 0) + 1
            if span[PARENT] >= 0:
                child_seconds[span[PARENT]] += d
        raw = {"seconds": seconds, "calls": calls, "amounts": dict(self.amounts)}

        def under(index: int, ancestor: str) -> int:
            """Index of the nearest enclosing span with that name, or -1."""
            index = spans[index][PARENT]
            while index >= 0 and spans[index][NAME] != ancestor:
                index = spans[index][PARENT]
            return index

        alex_self = 0.0
        alex_by_m: dict[str, float] = {}
        alex_in_verdict = 0
        searching: set[int] = set()
        for i, span in enumerate(spans):
            name = span[NAME]
            if name == "invariants.alexander_polynomial":
                d = span[END] - span[START]
                alex_self += d - child_seconds[i]
                key = f"m{span[STRANDS]}"
                alex_by_m[key] = alex_by_m.get(key, 0.0) + d
                if under(i, "invariants.quasipositivity_verdict") >= 0:
                    alex_in_verdict += 1
            elif name == "comb.chain_successors":
                for search in ("comb.mu_exists", "comb.mu_count"):
                    j = under(i, search)
                    if j >= 0:
                        searching.add(j)
        searches = [i for i, s in enumerate(spans)
                    if s[NAME] in ("comb.mu_exists", "comb.mu_count")]
        hits, misses = self._cache_info()
        raw.update({
            "alex_self_seconds": alex_self,
            "alex_seconds_by_m": alex_by_m,
            "alex_in_verdict": alex_in_verdict,
            "weighted_comb_refused": sum(1 for s in spans if s[NAME] == "lscheme.weighted_comb"
                                         and s[ERROR] == "LSchemeError"),
            "searches": len(searches),
            "searches_root_decided": sum(1 for i in searches if i not in searching),
            "is_closed_hits": hits - self._cache_before[0],
            "is_closed_misses": misses - self._cache_before[1],
            "digits_max": self.digits_max,
            "mul_calls": self.mul_calls,
            "mul_terms": self.mul_terms,
            "add_calls": self.add_calls,
        })
        return raw


def merge(summaries: list[dict]) -> dict:
    """Sum the totals of several processes (digits_max takes the max)."""
    out: dict = {}
    for raw in summaries:
        for key, value in raw.items():
            if isinstance(value, dict):
                slot = out.setdefault(key, {})
                for k, v in value.items():
                    slot[k] = slot.get(k, 0) + v
            elif key == "digits_max":
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


# Counters that do not depend on the machine: two traced runs of one
# seed must give exactly the same values.
REPEATABLE = (
    "invariants.reduced_burau.letters",
    "invariants.alexander_polynomial.per_verdict",
    "laurent.mul.term_products",
    "comb.chain_successors.calls",
    "comb.is_closed.calls",
    "braid.garside_normal_form.factors",
)

LADDER_M = range(3, 11)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from merged totals."""
    s, c, a = raw.get("seconds", {}), raw.get("calls", {}), raw.get("amounts", {})
    by_m = raw.get("alex_seconds_by_m", {})
    out: dict[str, tuple[float, str]] = {
        "cli.run_repro_s": (s.get("cli.run_repro", 0.0), "s"),
        "schemes7.realizable.s": (s.get("schemes7.realizable", 0.0), "s"),
        "schemes7.enumerate_schemes.s": (s.get("schemes7.enumerate_schemes", 0.0), "s"),
        "lscheme.to_braid.s": (s.get("lscheme.to_braid", 0.0), "s"),
        "lscheme.to_braid.calls": (c.get("lscheme.to_braid", 0), "count"),
        "lscheme.weighted_comb.s": (s.get("lscheme.weighted_comb", 0.0), "s"),
        "lscheme.weighted_comb.refused_ratio": (
            _ratio(raw.get("weighted_comb_refused", 0), c.get("lscheme.weighted_comb", 0)),
            "ratio"),
        "braid.garside_normal_form.s": (s.get("braid.garside_normal_form", 0.0), "s"),
        "braid.garside_normal_form.calls": (c.get("braid.garside_normal_form", 0), "count"),
        "braid.garside_normal_form.factors": (a.get("braid.garside_normal_form", 0), "count"),
        "invariants.quasipositivity_verdict.s": (
            s.get("invariants.quasipositivity_verdict", 0.0), "s"),
        "invariants.quasipositivity_verdict.calls": (
            c.get("invariants.quasipositivity_verdict", 0), "count"),
        "invariants.reduced_burau.s": (s.get("invariants.reduced_burau", 0.0), "s"),
        "invariants.reduced_burau.letters": (a.get("invariants.reduced_burau", 0), "count"),
        "invariants.alexander_polynomial.s": (s.get("invariants.alexander_polynomial", 0.0), "s"),
        "invariants.alexander_polynomial.calls": (
            c.get("invariants.alexander_polynomial", 0), "count"),
        "invariants.alexander_polynomial.per_verdict": (
            _ratio(raw.get("alex_in_verdict", 0),
                   c.get("invariants.quasipositivity_verdict", 0)), "ratio"),
        "invariants.alexander_polynomial.self_s": (raw.get("alex_self_seconds", 0.0), "s"),
    }
    for m in LADDER_M:
        out[f"invariants.alexander_polynomial.s.m{m}"] = (by_m.get(f"m{m}", 0.0), "s")
    out.update({
        "invariants.determinant_of_closure.s": (
            s.get("invariants.determinant_of_closure", 0.0), "s"),
        "invariants.determinant_of_closure.digits_max": (raw.get("digits_max", 0), "digits"),
        "laurent.has_simple_unit_circle_root.s": (
            s.get("laurent.has_simple_unit_circle_root", 0.0), "s"),
        "laurent.has_simple_unit_circle_root.calls": (
            c.get("laurent.has_simple_unit_circle_root", 0), "count"),
        "laurent.gcd_primitive.s": (s.get("laurent.gcd_primitive", 0.0), "s"),
        "laurent.divide_exact.s": (s.get("laurent.divide_exact", 0.0), "s"),
        "laurent.mul.calls": (raw.get("mul_calls", 0), "count"),
        "laurent.mul.term_products": (raw.get("mul_terms", 0), "count"),
        "laurent.add.calls": (raw.get("add_calls", 0), "count"),
        "comb.mu_exists.s": (s.get("comb.mu_exists", 0.0), "s"),
        "comb.mu_count.s": (s.get("comb.mu_count", 0.0), "s"),
        "comb.chain_successors.calls": (c.get("comb.chain_successors", 0), "count"),
        "comb.chain_successors.s": (s.get("comb.chain_successors", 0.0), "s"),
        "comb.is_closed.calls": (c.get("comb.is_closed", 0), "count"),
        "comb.is_closed.hit_ratio": (
            _ratio(raw.get("is_closed_hits", 0),
                   raw.get("is_closed_hits", 0) + raw.get("is_closed_misses", 0)), "ratio"),
        "comb.find_closure.s": (s.get("comb.find_closure", 0.0), "s"),
        "comb.root_decided_ratio": (
            _ratio(raw.get("searches_root_decided", 0), raw.get("searches", 0)), "ratio"),
    })
    return out
