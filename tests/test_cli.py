import json
from fractions import Fraction

from ruledcurves import cli
from ruledcurves.invariants import ConventionError
from ruledcurves.laurent import LaurentPoly


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


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "invariants", "strands=3; bogus")
    assert code == 1
    assert "bogus" in err
    code, _, err = run(capsys, "braid", "n=0 m=4; >9")
    assert code == 1


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


def test_non_integer_determinant_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli.invs, "alexander_polynomial",
                        lambda _b: LaurentPoly({0: Fraction(1, 2)}))
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


def test_repro_detects_failures(tmp_path, capsys):
    bad = tmp_path / "registry.txt"
    bad.write_text("wrong_det | braid | strands=3; s2^-7 s1 s2 D^2 | det=11 | check\n")
    code, out, _ = run(capsys, "repro", "--registry", str(bad))
    assert code == 2
    assert "expected 11, got 10" in out


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
