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
import sys
import time
from importlib import resources

from . import braid as braids
from . import comb as combs
from . import invariants as invs
from . import lscheme as lschemes
from . import schemes7
from .laurent import LaurentError, format_poly, parse_poly

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FIXTURE = 2
EXIT_CONVENTION = 3

_PARSE_ERRORS = (
    LaurentError, braids.BraidError, lschemes.LSchemeError,
    combs.CombError, schemes7.SchemeError, ValueError,
)


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _cmd_braid(args) -> int:
    if args.file:
        with open(args.scheme) as fh:
            lines = [line.strip() for line in fh]
        schemes = [line for line in lines if line and not line.startswith("#")]
    else:
        schemes = [args.scheme]
    outputs = [braids.render_braid(lschemes.to_braid(lschemes.parse_scheme(s)))
               for s in schemes]
    _emit(args, {"braids": outputs}, "\n".join(outputs))
    return EXIT_OK


def _cmd_invariants(args) -> int:
    b = braids.parse_braid(args.braid)
    alex = invs.alexander_polynomial(b)
    det = invs._determinant(alex)
    payload = {
        "strands": b.strands,
        "exponent_sum": braids.exponent_sum(b),
        "alexander": format_poly(alex),
        "determinant": det,
    }
    text = (f"strands: {payload['strands']}\n"
            f"exponent sum: {payload['exponent_sum']}\n"
            f"alexander: {payload['alexander']}\n"
            f"determinant: {payload['determinant']}")
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_obstruct(args) -> int:
    verdict = invs.quasipositivity_verdict(braids.parse_braid(args.braid))
    lines = [f"status: {verdict.status}"]
    for o in verdict.obstructions:
        lines.append(f"obstruction {o.test}: e={o.exponent_sum} m={o.strands} witness={o.witness}")
    if verdict.note:
        lines.append(f"note: {verdict.note}")
    _emit(args, verdict.as_dict(), "\n".join(lines))
    return EXIT_OK


def _cmd_rootscheme(args) -> int:
    rs = lschemes.root_scheme(lschemes.parse_scheme(args.scheme))
    payload = {"root_scheme": [[letter, mult] for letter, mult in rs]}
    _emit(args, payload, lschemes.render_root_scheme(rs))
    return EXIT_OK


def _cmd_comb(args) -> int:
    w = lschemes.weighted_comb(lschemes.parse_scheme(args.scheme))
    text = combs.render_weighted_comb(w)
    payload = {"comb": combs.render_comb(w.word),
               "alpha": w.alpha, "beta": w.beta, "gamma": w.gamma}
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_mu(args) -> int:
    w = combs.parse_weighted_comb(args.weighted_comb)
    if args.mode == "exists":
        result: int | bool = combs.mu_exists(w)
    else:
        result = combs.mu_count(w)
    _emit(args, {"mode": args.mode, "result": result}, str(result).lower()
          if isinstance(result, bool) else str(result))
    return EXIT_OK


def _cmd_rewrite(args) -> int:
    ls = lschemes.parse_scheme(args.scheme)
    if args.rules == "pseudo":
        out = lschemes.rewrite_pseudo(ls, args.rule, args.position)
    else:
        out = lschemes.rewrite_alg(ls, args.rule, args.position)
    text = lschemes.render_scheme(out)
    _emit(args, {"scheme": text}, text)
    return EXIT_OK


def _cmd_classify(args) -> int:
    code = schemes7.parse_real_scheme(args.scheme)
    result = schemes7.realizable(code, args.category)
    _emit(args, {"scheme": schemes7.render_real_scheme(code),
                 "category": args.category, "realizable": result}, str(result).lower())
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    codes = schemes7.enumerate_schemes(args.category)
    texts = [schemes7.render_real_scheme(c) for c in codes]
    _emit(args, {"category": args.category, "count": len(texts), "schemes": texts},
          "\n".join(texts))
    return EXIT_OK


# -- reproduction harness -------------------------------------------------


def _unescape(field: str) -> str:
    return field.replace("\\|", "|")


def load_registry(path: str | None = None) -> list[dict]:
    if path:
        with open(path) as fh:
            raw = fh.read()
    else:
        raw = resources.files("ruledcurves").joinpath("data/registry.txt").read_text()
    fixtures = []
    for lineno, line in enumerate(raw.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [_unescape(p.strip()) for p in line.split(" | ")]
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


def _fired_tests(b: braids.BraidWord) -> set[str]:
    return {o.test for o in invs.obstructions(b)}


def _check_braid(b: braids.BraidWord, key: str, value: str) -> tuple[bool, str]:
    if key == "e":
        got = braids.exponent_sum(b)
        return got == int(value), str(got)
    if key == "alexander":
        got = invs.alexander_polynomial(b)
        want = parse_poly(value).normalized_unit()
        return got == want, format_poly(got)
    if key == "alexander_equals":
        got = invs.alexander_polynomial(b)
        other = invs.alexander_polynomial(braids.parse_braid(value))
        return got == other, f"{format_poly(got)} vs {format_poly(other)}"
    if key == "det":
        got = invs.determinant_of_closure(b)
        return got == int(value), str(got)
    if key == "fires":
        fired = _fired_tests(b)
        want = set(value.split(","))
        return want <= fired, ",".join(sorted(fired)) or "none"
    if key == "not_fires":
        fired = _fired_tests(b)
        want = set(value.split(","))
        return not (want & fired), ",".join(sorted(fired)) or "none"
    if key == "trivial":
        got = braids.is_trivial(b)
        return got == (value == "true"), str(got).lower()
    if key == "garside_equals":
        got = braids.equals(b, braids.parse_braid(value))
        return got, str(got).lower()
    if key == "verdict":
        got = invs.quasipositivity_verdict(b).status
        return got == value, got
    raise ValueError(f"unknown braid assertion {key!r}")


def _check_lscheme(ls, key: str, value: str) -> tuple[bool, str]:
    if key == "braid":
        got = lschemes.to_braid(ls)
        want = braids.parse_braid(value)
        return got.letters == want.letters and got.strands == want.strands, \
            braids.render_braid(got)
    if key == "root_scheme":
        got = lschemes.render_root_scheme(lschemes.root_scheme(ls))
        return got == value, got
    if key == "comb":
        got = combs.render_weighted_comb(lschemes.weighted_comb(ls))
        return got == value, got
    raise ValueError(f"unknown lscheme assertion {key!r}")


def _check_comb(w: combs.WeightedComb, key: str, value: str) -> tuple[bool, str]:
    if key == "closed":
        got = combs.is_closed(w.word)
        return got == (value == "true"), str(got).lower()
    if key == "mu_exists":
        got = combs.mu_exists(w)
        return got == (value == "true"), str(got).lower()
    if key == "mu_count":
        got = combs.mu_count(w)
        return got == int(value), str(got)
    raise ValueError(f"unknown comb assertion {key!r}")


def _check_scheme_query(input_text: str, key: str, value: str) -> tuple[bool, str]:
    if input_text == "complex-list":
        got = len(schemes7.symmetric_m_complex_schemes())
        return got == int(value), str(got)
    subject, _, category = input_text.partition(" :: ")
    subject, category = subject.strip(), category.strip()
    if key == "count":
        if subject != "enumerate":
            raise ValueError(f"count assertion needs an enumerate input, got {subject!r}")
        got = len(schemes7.enumerate_schemes(category))
        return got == int(value), str(got)
    if key == "realizable":
        got = schemes7.realizable(schemes7.parse_real_scheme(subject), category)
        return got == (value == "true"), str(got).lower()
    raise ValueError(f"unknown scheme-query assertion {key!r}")


def run_fixture(fixture: dict) -> dict:
    start = time.perf_counter()
    failures = []
    computed = []
    try:
        clauses = _parse_expectation(fixture["expectation"])
        kind = fixture["kind"]
        if kind == "braid":
            subject = braids.parse_braid(fixture["input"])
            check = lambda k, v: _check_braid(subject, k, v)
        elif kind == "lscheme":
            subject = lschemes.parse_scheme(fixture["input"])
            check = lambda k, v: _check_lscheme(subject, k, v)
        elif kind == "comb":
            subject = combs.parse_weighted_comb(fixture["input"])
            check = lambda k, v: _check_comb(subject, k, v)
        elif kind == "scheme-query":
            check = lambda k, v: _check_scheme_query(fixture["input"], k, v)
        else:
            raise ValueError(f"unknown fixture kind {kind!r}")
        for key, value in clauses:
            ok, got = check(key, value)
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


def _cmd_repro(args) -> int:
    report = run_repro(args.registry)
    if args.json:
        # wall times vary run to run; json output stays byte-stable
        stable = dict(report)
        stable["fixtures"] = [{k: v for k, v in r.items() if k != "seconds"}
                              for r in report["fixtures"]]
        print(json.dumps(stable, sort_keys=True))
    else:
        for r in report["fixtures"]:
            line = f"{r['status'].upper():4} {r['name']:24} ({r['seconds']:.3f}s)"
            if r["failures"]:
                line += "  " + "; ".join(r["failures"])
            print(line)
        print(f"{report['passed']}/{report['total']} fixtures passed")
    return EXIT_OK if report["failed"] == 0 else EXIT_FIXTURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruledcurves",
        description="Braid and comb realizability tests for curves on ruled surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="structured output")
        p.set_defaults(fn=fn)
        return p

    p = add("braid", _cmd_braid, help="compile a scheme to its braid")
    p.add_argument("scheme", help="scheme text, or a path with --file")
    p.add_argument("--file", action="store_true", help="read schemes from a file, one per line")

    p = add("invariants", _cmd_invariants, help="exponent sum, alexander polynomial, determinant")
    p.add_argument("braid", help="braid text, e.g. 'strands=3; s2^-7 s1 s2 D^2'")

    p = add("obstruct", _cmd_obstruct, help="run the quasipositivity obstruction suite")
    p.add_argument("braid")

    p = add("rootscheme", _cmd_rootscheme, help="root scheme of a trigonal scheme")
    p.add_argument("scheme")

    p = add("comb", _cmd_comb, help="weighted comb of a trigonal scheme")
    p.add_argument("scheme")

    p = add("mu", _cmd_mu, help="chain multiplicity of a weighted comb")
    p.add_argument("weighted_comb", help="e.g. 'g5 g2 | 2 1 1'")
    p.add_argument("--mode", choices=("exists", "count"), default="exists")

    p = add("rewrite", _cmd_rewrite, help="apply one elementary move")
    p.add_argument("scheme")
    p.add_argument("--rules", choices=("pseudo", "alg"), required=True)
    p.add_argument("--rule", required=True,
                   help=f"pseudo: {', '.join(lschemes.PSEUDO_RULES)}; alg: {', '.join(lschemes.ALG_RULES)}")
    p.add_argument("--position", type=int, required=True)

    p = add("classify", _cmd_classify, help="is a real scheme realizable in a category")
    p.add_argument("scheme", help="e.g. '<J + 4 + 1<8>>'")
    p.add_argument("category", choices=schemes7.CATEGORIES)

    p = add("enumerate", _cmd_enumerate, help="all realizable schemes of a category")
    p.add_argument("category", choices=schemes7.CATEGORIES)

    p = add("repro", _cmd_repro, help="replay the reproduction fixture registry")
    p.add_argument("--registry", help="alternate registry file")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except invs.ConventionError as exc:
        print(f"convention violation: {exc}", file=sys.stderr)
        return EXIT_CONVENTION
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
