"""
Command-line front end: compile schemes to braids, run invariants and
obstruction tests, build root schemes and combs, decide algebraic
realizability, query the degree-7 classification, and replay the
reproduction fixture registry.

Exit codes: 0 success / all fixtures pass, 1 usage or parse error,
2 fixture failure, 3 internal convention violation.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from . import braid as braids
from . import comb as combs
from . import invariants as invs
from . import lscheme as lschemes
from . import schemes7
from .laurent import format_poly, parse_poly

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FIXTURE = 2
EXIT_CONVENTION = 3

# Every layer's error class subclasses ValueError.
_PARSE_ERRORS = (ValueError, OSError)


# -- reproduction harness -------------------------------------------------


def _lines(path: str) -> list[tuple[int, str]]:
    """The stripped lines of a UTF-8 text file, whatever the locale,
    numbered from 1, without blank lines and '#' comment lines."""
    with open(path, encoding="utf-8") as fh:
        lines = enumerate(map(str.strip, fh.read().splitlines()), 1)
    return [(lineno, line) for lineno, line in lines if line and not line.startswith("#")]


def load_registry(path: str | None = None) -> list[dict]:
    path = path or os.path.join(os.path.dirname(__file__), "data", "registry.txt")
    fixtures = []
    for lineno, line in _lines(path):
        parts = [p.strip().replace("\\|", "|") for p in line.split(" | ")]
        if len(parts) != 5:
            raise ValueError(f"registry line {lineno}: expected 5 fields, got {len(parts)}")
        name, kind, input_text, expectation, provenance = parts
        fixtures.append({"name": name, "kind": kind, "input": input_text,
                         "expectation": expectation, "provenance": provenance})
    return fixtures


def _parse_expectation(expectation: str) -> list[tuple[str, str]]:
    out = []
    for clause in expectation.split(" & "):
        key, _, value = clause.strip().partition("=")
        if not key or not value:
            raise ValueError(f"bad expectation clause {clause!r}")
        out.append((key.strip(), value.strip()))
    return out


def _bool(got: bool, value: str) -> tuple[bool, str]:
    if value not in ("true", "false"):
        raise ValueError(f"expected true or false, got {value!r}")
    return got == (value == "true"), str(got).lower()


def _int(got: int, value: str) -> tuple[bool, str]:
    if not re.fullmatch(r"-?[0-9]+", value):
        raise ValueError(f"expected a decimal integer, got {value!r}")
    return got == braids.parse_int(value, ValueError), str(got)


def _text(got: str, value: str) -> tuple[bool, str]:
    return got == value, got


def _fires(b: braids.BraidWord, value: str, fire: bool) -> tuple[bool, str]:
    want = {name.strip() for name in value.split(",")}
    if unknown := sorted(want - {"alex", "double_alex", "square"}):
        raise ValueError(f"unknown obstruction test {unknown[0]!r}")
    fired = {o.test for o in invs.obstructions(b)}
    return (want <= fired if fire else not want & fired), ",".join(sorted(fired)) or "none"


def _alexander(b: braids.BraidWord, value: str) -> tuple[bool, str]:
    got = invs.alexander_polynomial(b)
    return got == parse_poly(value).normalized_unit(), format_poly(got)


def _alexander_equals(b: braids.BraidWord, value: str) -> tuple[bool, str]:
    got = invs.alexander_polynomial(b)
    other = invs.alexander_polynomial(braids.parse_braid(value))
    return got == other, f"{format_poly(got)} vs {format_poly(other)}"


def _braid(ls: lschemes.LScheme, value: str) -> tuple[bool, str]:
    got = lschemes.to_braid(ls)
    return got == braids.parse_braid(value), braids.render_braid(got)


def _count(query: tuple[str, str], value: str) -> tuple[bool, str]:
    subject, category = query
    if subject == "complex-list":
        return _int(len(schemes7.symmetric_m_complex_schemes()), value)
    if subject != "enumerate":
        raise ValueError(f"count assertion needs an enumerate input, got {subject!r}")
    return _int(len(schemes7.enumerate_schemes(category)), value)


# fixture kind -> (input parser, assertion key -> check(subject, value)
# -> (passed, computed text)). The checks look functions up on their
# modules at call time, so wrappers installed after import see the calls.
_FIXTURE_KINDS = {
    "braid": (braids.parse_braid, {
        "e": lambda b, v: _int(braids.exponent_sum(b), v),
        "alexander": _alexander,
        "alexander_equals": _alexander_equals,
        "det": lambda b, v: _int(invs.determinant_of_closure(b), v),
        "fires": lambda b, v: _fires(b, v, True),
        "not_fires": lambda b, v: _fires(b, v, False),
        "trivial": lambda b, v: _bool(braids.is_trivial(b), v),
        "garside_equals": lambda b, v: _bool(braids.equals(b, braids.parse_braid(v)), "true"),
        "verdict": lambda b, v: _text(invs.quasipositivity_verdict(b).status, v),
    }),
    "lscheme": (lschemes.parse_scheme, {
        "braid": _braid,
        "root_scheme": lambda ls, v: _text(
            lschemes.render_root_scheme(lschemes.root_scheme(ls)), v),
        "comb": lambda ls, v: _text(combs.render_weighted_comb(lschemes.weighted_comb(ls)), v),
    }),
    "comb": (combs.parse_weighted_comb, {
        "closed": lambda w, v: _bool(combs.is_closed(w.word), v),
        "mu_exists": lambda w, v: _bool(combs.mu_exists(w), v),
        "mu_count": lambda w, v: _int(combs.mu_count(w), v),
    }),
    "scheme-query": (lambda text: tuple(part.strip() for part in text.partition(" :: ")[::2]), {
        "count": _count,
        "realizable": lambda q, v: _bool(
            schemes7.realizable(schemes7.parse_real_scheme(q[0]), q[1]), v),
    }),
}


def run_fixture(fixture: dict) -> dict:
    start = time.perf_counter()
    failures = []
    computed = []
    try:
        clauses = _parse_expectation(fixture["expectation"])
        kind = fixture["kind"]
        if kind not in _FIXTURE_KINDS:
            raise ValueError(f"unknown fixture kind {kind!r}")
        parse, checks = _FIXTURE_KINDS[kind]
        subject = parse(fixture["input"])
        for key, value in clauses:
            if key not in checks:
                raise ValueError(f"unknown {kind} assertion {key!r}")
            ok, got = checks[key](subject, value)
            computed.append(f"{key}={got}")
            if not ok:
                failures.append(f"{key}: expected {value}, got {got}")
    except Exception as exc:  # report, never crash the harness
        failures.append(f"error: {exc}")
    return {
        "name": fixture["name"],
        "status": "pass" if not failures else "fail",
        "computed": "; ".join(computed),
        "expected": fixture["expectation"],
        "failures": failures,
        "provenance": fixture["provenance"],
        "seconds": round(time.perf_counter() - start, 4),
    }


def run_repro(path: str | None = None) -> dict:
    results = sorted((run_fixture(f) for f in load_registry(path)),
                     key=lambda r: r["name"])
    failed = [r for r in results if r["status"] != "pass"]
    return {"fixtures": results, "total": len(results),
            "passed": len(results) - len(failed), "failed": len(failed)}


# -- commands -------------------------------------------------------------


def _braids(args) -> tuple[dict, str]:
    schemes = [args.scheme]
    if args.file:
        schemes = [line for _, line in _lines(args.scheme)]
    outputs = [braids.render_braid(lschemes.to_braid(lschemes.parse_scheme(s)))
               for s in schemes]
    return {"braids": outputs}, "\n".join(outputs)


def _invariants(args) -> tuple[dict, str]:
    b = braids.parse_braid(args.braid)
    alex = invs.alexander_polynomial(b)
    payload = {"strands": b.strands, "exponent_sum": braids.exponent_sum(b),
               "alexander": format_poly(alex), "determinant": invs._determinant(alex)}
    return payload, "\n".join(f"{k.replace('_', ' ')}: {v}" for k, v in payload.items())


def _obstruct(args) -> tuple[dict, str]:
    verdict = invs.quasipositivity_verdict(braids.parse_braid(args.braid))
    lines = [f"status: {verdict.status}"]
    lines += [f"obstruction {o.test}: e={o.exponent_sum} m={o.strands} witness={o.witness}"
              for o in verdict.obstructions]
    if verdict.note:
        lines.append(f"note: {verdict.note}")
    return verdict.payload(), "\n".join(lines)


def _rootscheme(args) -> tuple[dict, str]:
    rs = lschemes.root_scheme(lschemes.parse_scheme(args.scheme))
    return ({"root_scheme": [[letter, mult] for letter, mult in rs]},
            lschemes.render_root_scheme(rs))


def _comb(args) -> tuple[dict, str]:
    w = lschemes.weighted_comb(lschemes.parse_scheme(args.scheme))
    return ({"comb": combs.render_comb(w.word), "alpha": w.alpha, "beta": w.beta,
             "gamma": w.gamma}, combs.render_weighted_comb(w))


def _mu(args) -> tuple[dict, str]:
    result = getattr(combs, f"mu_{args.mode}")(combs.parse_weighted_comb(args.weighted_comb))
    return {"mode": args.mode, "result": result}, str(result).lower()


def _rewrite(args) -> tuple[dict, str]:
    ls = lschemes.parse_scheme(args.scheme)
    rewrite = getattr(lschemes, f"rewrite_{args.rules}")
    text = lschemes.render_scheme(rewrite(ls, args.rule, args.position))
    return {"scheme": text}, text


def _classify(args) -> tuple[dict, str]:
    code = schemes7.parse_real_scheme(args.scheme)
    result = schemes7.realizable(code, args.category)
    return ({"scheme": schemes7.render_real_scheme(code), "category": args.category,
             "realizable": result}, str(result).lower())


def _enumerate(args) -> tuple[dict, str]:
    texts = [schemes7.render_real_scheme(c) for c in schemes7.enumerate_schemes(args.category)]
    return {"category": args.category, "count": len(texts), "schemes": texts}, "\n".join(texts)


def _repro(args) -> tuple[dict, str]:
    report = run_repro(args.registry)
    lines = [f"{r['status'].upper():4} {r['name']:24} ({r['seconds']:.3f}s)"
             + ("  " + "; ".join(r["failures"]) if r["failures"] else "")
             for r in report["fixtures"]]
    lines.append(f"{report['passed']}/{report['total']} fixtures passed")
    # wall times vary run to run; json output stays byte-stable
    stable = dict(report, fixtures=[{k: v for k, v in r.items() if k != "seconds"}
                                    for r in report["fixtures"]])
    return stable, "\n".join(lines)


def _arg(*flags, **kwargs) -> tuple[tuple, dict]:
    return flags, kwargs


_SCHEME = _arg("scheme")
_CATEGORY = _arg("category", choices=schemes7.CATEGORIES)

# command -> (help, arguments after --json, run(args) -> (json payload, text)).
# The runs look package functions up on their modules at call time, so
# wrappers installed after import see the calls.
_COMMANDS = {
    "braid": ("compile a scheme to its braid", [
        _arg("scheme", help="scheme text, or a path with --file"),
        _arg("--file", action="store_true", help="read schemes from a file, one per line"),
    ], _braids),
    "invariants": ("exponent sum, alexander polynomial, determinant", [
        _arg("braid", help="braid text, e.g. 'strands=3; s2^-7 s1 s2 D^2'"),
    ], _invariants),
    "obstruct": ("run the quasipositivity obstruction suite", [_arg("braid")], _obstruct),
    "rootscheme": ("root scheme of a trigonal scheme", [_SCHEME], _rootscheme),
    "comb": ("weighted comb of a trigonal scheme", [_SCHEME], _comb),
    "mu": ("chain multiplicity of a weighted comb", [
        _arg("weighted_comb", help="e.g. 'g5 g2 | 2 1 1'"),
        _arg("--mode", choices=("exists", "count"), default="exists"),
    ], _mu),
    "rewrite": ("apply one elementary move", [
        _SCHEME,
        _arg("--rules", choices=("pseudo", "alg"), required=True),
        _arg("--rule", required=True, help=f"pseudo: {', '.join(lschemes.PSEUDO_RULES)};"
             f" alg: {', '.join(lschemes.ALG_RULES)}"),
        _arg("--position", type=int, required=True),
    ], _rewrite),
    "classify": ("is a real scheme realizable in a category", [
        _arg("scheme", help="e.g. '<J + 4 + 1<8>>'"), _CATEGORY,
    ], _classify),
    "enumerate": ("all realizable schemes of a category", [_CATEGORY], _enumerate),
    "repro": ("replay the reproduction fixture registry", [
        _arg("--registry", help="alternate registry file"),
    ], _repro),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruledcurves",
        description="Braid and comb realizability tests for curves on ruled surfaces")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="structured output")
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        payload, text = _COMMANDS[args.command][2](args)
    except invs.ConventionError as exc:
        print(f"convention violation: {exc}", file=sys.stderr)
        return EXIT_CONVENTION
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps(payload, sort_keys=True) if args.json else text)
    # only repro's payload counts failures
    return EXIT_FIXTURE if payload.get("failed") else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
