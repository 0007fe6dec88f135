import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ruledcurves import braid as braids
from ruledcurves import cli, schemes7
from ruledcurves.invariants import ConventionError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_braid_command(capsys):
    code, out, _ = run(capsys, "braid", "n=2 m=4; >3 o3^2 x1 o2^2 x1^4 / <3 x2^2 >3 <3")
    assert code == 0
    assert out.startswith("strands=4; s3^-3 s1^-1 s2^-1 s3 s2^-2")


def test_braid_file(tmp_path, capsys):
    path = tmp_path / "schemes.txt"
    path.write_text("# two schemes\nn=0 m=3; >1 <1\n\nn=1 m=3;\n")
    code, out, _ = run(capsys, "braid", str(path), "--file", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["braids"]) == 2
    assert payload["braids"][1] == "strands=3; s1 s2 s1"


def test_invariants_command(capsys):
    code, out, _ = run(capsys, "invariants", "strands=3; s2^-7 s1 s2 D^2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exponent_sum"] == 1
    assert payload["alexander"] == "t^5 - 2*t^4 + 2*t^3 - 2*t^2 + 2*t - 1"
    assert payload["determinant"] == 10


def test_obstruct_command(capsys):
    code, out, _ = run(capsys, "obstruct", "strands=3; s1^-4 s2^2 s1^-3 s2^-1 s1 D^2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "not_quasipositive"
    assert payload["obstructions"][0]["test"] == "alex"
    code, out, _ = run(capsys, "obstruct", "strands=3; s1")
    assert code == 0
    assert out.splitlines() == [
        "status: unknown", "note: e = 1 noted; obstruction suite is sound but incomplete"]


def test_obstruct_command_prints_the_burau_witness(capsys):
    # s1 s2^-1 has e = 0; its Burau image at t = 37 mod 2^61 - 1 has
    # (0, 0) entry -t, so Garside never runs.
    witness = ("reduced Burau image at t = 37 mod 2305843009213693951:"
               f" entry (0, 0) = {(1 << 61) - 1 - 37}, not 1")
    code, out, _ = run(capsys, "obstruct", "strands=3; s1 s2^-1")
    assert code == 0
    assert out.splitlines() == [
        "status: not_quasipositive",
        f"obstruction exponent_zero: e=0 m=3 witness={witness}",
        "note: a quasipositive braid with e = 0 is trivial"]
    code, out, _ = run(capsys, "obstruct", "strands=3; s1 s2^-1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "not_quasipositive"
    assert payload["obstructions"] == [
        {"test": "exponent_zero", "strands": 3, "exponent_sum": 0, "witness": witness}]


def test_rootscheme_comb_mu(capsys):
    code, out, _ = run(capsys, "rootscheme", "n=1 m=3; >2 <1 >2 o2 <2")
    assert code == 0 and out.strip() == "q2 r1 p3 q2 p3 r1 q2 r1 r1 r1 r1"
    code, out, _ = run(capsys, "comb", "n=1 m=3; >2 <1 >2 o2 <2")
    assert code == 0 and out.strip() == "g5 g6 g1 g4 g1 g6 g5 g2 g3 g2 | 0 0 0"
    code, out, _ = run(capsys, "mu", "g5 g6 g1 g4 g1 g6 g5 g2 g3 g2 | 0 0 0",
                       "--mode", "count")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "mu", "g5 g2 | 2 1 1")
    assert code == 0 and out.strip() == "false"


def test_mu_on_a_thousand_step_chain(capsys):
    # One chain of 1,000 beta moves whose last comb closes; the chain
    # search keeps its own stack, so Python's recursion limit does not bound it.
    code, out, _ = run(capsys, "mu", "(g3)^1000 g5 (g3)^1000 g6 | 0 1000 0")
    assert code == 0 and out.strip() == "true"


def test_rewrite_command(capsys):
    code, out, _ = run(capsys, "rewrite", "n=0 m=4; x1 >3",
                       "--rules", "pseudo", "--rule", "cross-commute", "--position", "0")
    assert code == 0 and out.strip() == "n=0 m=4; >3 x1"
    code, out, _ = run(capsys, "rewrite", "n=0 m=3; >1 <2 >1 <1",
                       "--rules", "alg", "--rule", "descend-zigzag", "--position", "0")
    assert code == 0 and out.strip() == "n=0 m=3; >1 <1"


def test_classify_enumerate(capsys):
    code, out, _ = run(capsys, "classify", "<J + 15>", "any")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "enumerate", "any", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 121


# command -> md5 of the stdout of its README example, in text and in
# --json mode. Every example exits 0; in text mode `repro` drops its
# per-fixture seconds, which vary run to run.
README_OUTPUTS = {
    "braid": ("6df390d00c49888d01eada858d4b4454", "b6626169cd947ed715b3fbaeb617c193"),
    "invariants": ("b433f7d73d9a223ffc228ace34bd2ae1", "7c698ce5af5dbcd20ec1a96e4d9e3434"),
    "obstruct": ("53f70a28753f9c8f24da5895083658a6", "11d09332adb3201cb316311942057bce"),
    "rootscheme": ("03f96cd691da093af67ea76bc97e7993", "119e785b4b11195e54737ba0f38e56b3"),
    "comb": ("dea37d8492e6fc22fff35961f977a0c0", "b656eb494dba3c729178ff37de58b4ee"),
    "mu": ("897316929176464ebc9ad085f31e7284", "70bc6960297db7a6ac30bcce3396600c"),
    "rewrite": ("e37a8a754b0864948b4078dd7dc0f059", "6fc264c9803f1aa5a3c64c5e6fe9d3cf"),
    "classify": ("d42f2da1df5ecdf29be4ac27edda0c12", "7a2cb0405d108e263dae86de3bfb575c"),
    "enumerate": ("a28899ccde904a26fcd52a069b428a65", "423b9e222ca0427ef520fe25a0da5e03"),
    "repro": ("a094900fe6e3600e527a808f1933ed9b", "11b8a96f2444421952e984e5a5aa7b36"),
}


def test_readme_examples_keep_their_output(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line)[1:] for line in block.splitlines()]
    assert [argv[0] for argv in examples] == list(cli._COMMANDS) == list(README_OUTPUTS)
    for argv in examples:
        argv = [arg for arg in argv if arg != "--json"]
        for mode, extra in enumerate(([], ["--json"])):
            code, out, _ = run(capsys, *argv, *extra)
            out = re.sub(r" \(\d+\.\d{3}s\)", "", out)
            assert (code, hashlib.md5(out.encode()).hexdigest()) == \
                (0, README_OUTPUTS[argv[0]][mode]), (argv, mode)


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "invariants", "strands=3; bogus")
    assert code == 1
    assert "bogus" in err
    code, _, err = run(capsys, "braid", "n=0 m=4; >9")
    assert code == 1


def test_missing_file_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    for argv in (("braid", missing, "--file"), ("repro", "--registry", missing)):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert err.startswith("error: ") and "missing.txt" in err


def test_word_beyond_the_cap_exit_code(capsys):
    for argv in (("invariants", "strands=2; s1^1000000000"),
                 ("braid", "n=0 m=3; o1^1000000000"),
                 ("mu", "(g1 g2)^1000000000 | 0 0 0")):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "longer than" in err


def test_header_numbers_beyond_the_cap_exit_code(capsys):
    # Refused from the header, before a matrix or a padding word is built.
    for argv, message in ((("invariants", "strands=100000; s1"), "strands must be"),
                          (("obstruct", "strands=100000; s1"), "strands must be"),
                          (("braid", "n=0 m=100000; x1"), "more than"),
                          (("braid", "n=1000000000 m=3;"), "longer than"),
                          (("comb", "n=1000000000 m=3; >1 <1"), "longer than")):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert message in err


def test_oval_count_beyond_the_cap_exit_code(capsys):
    code, _, err = run(capsys, "classify", "<J + 1000000000>", "any")
    assert code == 1
    assert "more than 100000 ovals" in err


def test_nesting_beyond_the_cap_exit_code(tmp_path, capsys):
    deep = "<J + " + "1<" * 1499 + "1" + ">" * 1500
    code, _, err = run(capsys, "classify", deep, "any")
    assert code == 1
    assert "nested deeper than 8" in err
    bad = tmp_path / "registry.txt"
    bad.write_text(f"deep | braid | strands=3; s1 s2 | alexander={'(' * 1500}t{')' * 1500}"
                   " | check\n")
    code, out, _ = run(capsys, "repro", "--registry", str(bad))
    assert code == 2
    assert "nested deeper than 8" in out


def test_wide_polynomial_in_a_registry_fails_the_fixture(tmp_path, capsys):
    bad = tmp_path / "registry.txt"
    bad.write_text("wide | braid | strands=3; s1 s2 | alexander=(t+1)^1000000000 | check\n")
    code, out, _ = run(capsys, "repro", "--registry", str(bad))
    assert code == 2
    assert "power wider than" in out


def test_cli_import_does_not_load_numpy():
    # Every module the import adds is standard library or the package's
    # own, and fractions is not among them. The baseline is a bare
    # interpreter, since site may load third-party modules of its own.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

    def modules(imports):
        code = f"import sys{imports}; print(' '.join(sys.modules))"
        return set(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, env=env, check=True).stdout.split())

    added = modules(", ruledcurves.cli") - modules("")
    assert "ruledcurves.cli" in added and "fractions" not in added
    assert {name.partition(".")[0] for name in added} <= {*sys.stdlib_module_names, "ruledcurves"}


def test_cli_import_does_not_load_dataclasses():
    # The value types are named tuples; dataclasses would pull in inspect,
    # ast, dis and tokenize and exec generated methods at every start-up.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = "import ruledcurves.cli, sys; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "False"


def test_registry_answers_are_unchanged():
    # is_trivial and equals on every registry braid, and realizable of
    # every registry scheme in every category, pinned so that a change to
    # the value types (their equality and hashing) cannot move them.
    fixtures = cli.load_registry()
    named = [(f["name"], braids.parse_braid(f["input"])) for f in fixtures if f["kind"] == "braid"]
    assert len(named) == 42
    assert [name for name, b in named if braids.is_trivial(b)] == ["b12", "b13"]
    assert sorted((n1, n2) for i, (n1, a) in enumerate(named) for n2, b in named[i + 1:]
                  if a.strands == b.strands and braids.equals(a, b)) == [
        ("b12", "b13"), ("b1_0_6_0", "b19"), ("b1_3_3_0", "b5")]
    # one digit per category, in schemes7.CATEGORIES order
    assert schemes7.CATEGORIES == (
        "any", "dividing", "non-dividing", "symmetric", "symmetric-dividing-pseudoholomorphic",
        "symmetric-dividing-algebraic", "symmetric-non-dividing")
    queries = {f["input"].partition(" :: ")[0] for f in fixtures
               if f["kind"] == "scheme-query" and "<" in f["input"]}
    assert {q: "".join("01"[schemes7.realizable(schemes7.parse_real_scheme(q), c)]
                       for c in schemes7.CATEGORIES) for q in queries} == {
        "<J + 2 + 1<10>>": "1111001", "<J + 4 + 1<4>>": "1111001",
        "<J + 4 + 1<8>>": "1111101", "<J + 4 + 1<9>>": "1010000",
        "<J + 5 + 1<9>>": "1100000", "<J + 6 + 1<6>>": "1111001",
        "<J + 6 + 1<7>>": "1010000", "<J + 6 + 1<8>>": "1100000",
        "<J + 7 + 1<6>>": "1010000", "<J + 7 + 1<7>>": "1100000",
        "<J + 8 + 1<4>>": "1111101", "<J + 8 + 1<6>>": "1100000",
    }


def test_module_entry_point_matches_in_process_repro(capsys):
    # The benchmark runs the registry through `python -m ruledcurves.cli`.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "ruledcurves.cli", "repro", "--json"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    _, out, _ = run(capsys, "repro", "--json")
    assert proc.stdout == out
    assert json.loads(proc.stdout)["failed"] == 0


def test_module_entry_point_decides_a_long_closure():
    # Closure takes one cancellation pass, so a 64-letter comb answers at once.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "ruledcurves.cli", "mu",
                           "(g1 g2)^30 g3 g5 g4 g6 | 0 0 0"],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "false"


def test_usage_error_exit_code(capsys):
    assert cli.main(["enumerate", "nonsense-category"]) == 1
    capsys.readouterr()


def test_convention_error_exit_code(capsys, monkeypatch):
    def boom(_b):
        raise ConventionError("forced for the test")
    monkeypatch.setattr(cli.invs, "alexander_polynomial", boom)
    code, _, err = run(capsys, "invariants", "strands=2; s1")
    assert code == 3
    assert "convention" in err


def test_repro_all_pass(capsys):
    code, out, _ = run(capsys, "repro")
    assert code == 0
    assert "fixtures passed" in out
    assert "FAIL" not in out


def test_repro_json_stable_and_round_trips(capsys):
    code, first, _ = run(capsys, "repro", "--json")
    assert code == 0
    code, second, _ = run(capsys, "repro", "--json")
    assert first == second  # byte-stable across runs
    report = json.loads(first)
    assert report["failed"] == 0
    assert report["total"] >= 40
    names = [f["name"] for f in report["fixtures"]]
    assert names == sorted(names)
    assert json.loads(json.dumps(report, sort_keys=True)) == report


def test_repro_json_md5_is_pinned(capsys):
    # The value every ROADMAP "done when" cites; a change to any fixture's
    # computed text or to the report layout changes it.
    code, out, _ = run(capsys, "repro", "--json")
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == "11b8a96f2444421952e984e5a5aa7b36"


def test_repro_detects_failures(tmp_path, capsys):
    bad = tmp_path / "registry.txt"
    bad.write_text("wrong_det | braid | strands=3; s2^-7 s1 s2 D^2 | det=11 | check\n")
    code, out, _ = run(capsys, "repro", "--registry", str(bad))
    assert code == 2
    assert "expected 11, got 10" in out


GOOD_FIXTURE = "good | braid | strands=3; s2^-7 s1 s2 D^2 | det=10 | check"


@pytest.mark.parametrize("line, failure", [
    ("bad | knot | strands=3; s1 | e=1 | check", "error: unknown fixture kind 'knot'"),
    ("bad | braid | strands=3; s1 | e=1 & colour=red | check",
     "error: unknown braid assertion 'colour'"),
    ("bad | lscheme | n=0 m=3; >1 <1 | colour=red | check",
     "error: unknown lscheme assertion 'colour'"),
    ("bad | comb | g5 g2 \\| 2 1 1 | colour=red | check", "error: unknown comb assertion 'colour'"),
    ("bad | scheme-query | <J + 4> :: any | colour=red | check",
     "error: unknown scheme-query assertion 'colour'"),
    ("bad | braid | strands=3; s1 | e | check", "error: bad expectation clause 'e'"),
    ("bad | braid | strands=3; bogus | e=1 | check", "error: bad braid token 'bogus'"),
    ("bad | lscheme | n=0 m=3; >9 | braid=strands=3; s1 | check",
     "error: event 0 (>9): index out of range"),
    ("bad | comb | g5 g2 \\| x | mu_count=0 | check", "error: expected three weights"),
    ("bad | scheme-query | <J + > :: any | realizable=true | check",
     "error: expected an oval count at offset 5 in '<J + >'"),
    ("bad | scheme-query | <J + 4> :: any | count=1 | check",
     "error: count assertion needs an enumerate input, got '<J + 4>'"),
    ("bad | braid | strands=3; s1 s2 | trivial=ture | check",
     "error: expected true or false, got 'ture'"),
    ("bad | comb | g5 g2 \\| 2 1 1 | closed=True | check",
     "error: expected true or false, got 'True'"),
    ("bad | braid | strands=3; s2^-7 s1 s2 D^2 | not_fires=alx | check",
     "error: unknown obstruction test 'alx'"),
    ("bad | braid | strands=3; s2^-7 s1 s2 D^2 | det=1_0 | check",
     "error: expected a decimal integer, got '1_0'"),
    ("bad | braid | strands=3; s2^-7 s1 s2 D^2 | e=+1 | check",
     "error: expected a decimal integer, got '+1'"),
    pytest.param("bad | braid | strands=3; s1 s2 | e=" + "9" * 5000 + " | check",
                 "error: number of 5000 digits is too long", id="e=<5000 digits>"),
    # names are stripped, so alex is read and found to fire
    ("bad | braid | strands=3; s2^-7 s1 s2 D^2 | not_fires=square, alex | check",
     "not_fires: expected square, alex, got alex"),
])
def test_repro_refusals_fail_only_their_fixture(tmp_path, capsys, line, failure):
    path = tmp_path / "registry.txt"
    path.write_text(f"{GOOD_FIXTURE}\n{line}\n")
    code, out, _ = run(capsys, "repro", "--registry", str(path), "--json")
    assert code == 2
    report = json.loads(out)
    assert (report["passed"], report["failed"]) == (1, 1)
    bad, good = report["fixtures"]
    assert good["status"] == "pass"
    assert bad["failures"] == [failure]


def test_registry_rejects_malformed_lines(tmp_path):
    bad = tmp_path / "registry.txt"
    bad.write_text("only | three | fields\n")
    try:
        cli.load_registry(str(bad))
    except ValueError as exc:
        assert "5 fields" in str(exc)
    else:
        raise AssertionError("malformed registry line accepted")


def test_registry_escaped_pipes_round_trip():
    fixtures = cli.load_registry()
    w1 = next(f for f in fixtures if f["name"] == "w1")
    assert w1["input"].endswith("| 1 2 0")
    assert "\\|" not in w1["input"]
