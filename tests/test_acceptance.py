"""
Acceptance gate: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated tolerance and runtime budget.

Criterion 2 asserts corrected values for the fixtures p6 and p7. The
polynomials printed for them in the source are not the Alexander
polynomials of their braids; they are kept below as SOURCE_MISPRINTS.
test_criterion_2_alexander_oracle proves the correction with sympy and
the unreduced Burau representation, sharing no code with the invariant
layer: the oracle reproduces the printed values of p4 and p5 and the
corrected values of p6 and p7, and differs from the printed ones. The
corrected values also match the b6/b7 and b18 registry entries, which
encode the same curve arrangements.
"""

import random
import time

import pytest

from ruledcurves.braid import (
    compose,
    conjugate,
    equals,
    inverse,
    is_trivial,
    parse_braid,
    word,
)
from ruledcurves.comb import WeightedComb, is_closed, mu_count, mu_exists, parse_weighted_comb
from ruledcurves.invariants import (
    alexander_polynomial,
    determinant_of_closure,
    obstructions,
    reduced_burau,
)
from ruledcurves.laurent import LaurentPoly, format_poly, parse_poly
from ruledcurves.lscheme import parse_scheme, render_root_scheme, root_scheme, to_braid
from ruledcurves.schemes7 import enumerate_schemes, parse_real_scheme, realizable

from matrices import mat_mul


def obstruction(b, test):
    """The obstruction of that name which fires on b, or None."""
    return next((o for o in obstructions(b) if o.test == test), None)


def _report(criterion: str, failures: list[str], elapsed: float, budget: float):
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    print(f"{status} {criterion} ({elapsed:.2f}s / budget {budget:.0f}s)")
    for f in failures:
        print(f"     - {f}")
    assert elapsed < budget, f"{criterion}: runtime {elapsed:.2f}s exceeds {budget}s"
    assert not failures, f"{criterion}: " + "; ".join(failures)


def test_criterion_1_encoder_exactness():
    start = time.perf_counter()
    failures = []
    got = to_braid(parse_scheme("n=2 m=4; >3 o3^2 x1 o2^2 x1^4 / <3 x2^2 >3 <3"))
    want = parse_braid("strands=4; s3^-3 s1^-1 s2^-1 s3 s2^-2 s3^-1 s2 s1^-4"
                       " s2^-1 s3^2 s2 s1 s2^-2 s3^-1 D^2")
    if got.letters != want.letters:
        failures.append(f"compiled letters differ: {got.letters} != {want.letters}")
    _report("criterion 1 (encoder exactness)", failures, time.perf_counter() - start, 1.0)


def _b1(a, b, g):
    text = "strands=3; s1^-1 s2^-1 s1"
    if g:
        text += f" s2^{-g}"
    text += " s1^-1 s2^2 s1"
    if b:
        text += f" s2^{-b}"
    text += " s1^-1 s2"
    if a:
        text += f" s1^{-a}"
    return text + " s2^-1 s1 D^2"


def _b2(a, b):
    text = "strands=3; s1"
    if b:
        text += f" s2^{-b}"
    text += " s1^-1 s2"
    if a:
        text += f" s1^{-a}"
    return text + " D^2"


def _b3(a, b, g):
    text = f"strands=3; s2^{-(1 + g)} s1^-1 s2^2 s1"
    if b:
        text += f" s2^{-b}"
    text += " s1^-1 s2"
    if a:
        text += f" s1^{-a}"
    return text + " D^2"


ALEXANDER_FIXTURES = [
    ("p1_0_6_0", _b1(0, 6, 0), "(t-1)*(t^4-t^3+t^2-t+1)"),
    ("p1_6_0_0", _b1(6, 0, 0), "(t-1)*(t^4-t^3+t^2-t+1)"),
    ("p1_2_4_0", _b1(2, 4, 0), "(t-1)*(t^2-t+1)"),
    ("p1_4_2_0", _b1(4, 2, 0), "(t-1)*(t^2-t+1)"),
    ("p1_3_3_0", _b1(3, 3, 0), "(t-1)^3"),
    ("p1_1_5_0", _b1(1, 5, 0), "0"),
    ("p1_5_1_0", _b1(5, 1, 0), "0"),
    ("p3_0_6_0", _b3(0, 6, 0), "(t^2+t+1)*(t^2-t+1)*(t-1)^3"),
    ("p3_1_5_0", _b3(1, 5, 0), "(t-1)*(t^4-t^3+t^2-t+1)"),
    ("p3_3_3_0", _b3(3, 3, 0), "(t-1)*(t^2-t+1)"),
    ("p3_5_1_0", _b3(5, 1, 0), "(t-1)*(t^2-t+1)"),
    ("p3_4_2_0", _b3(4, 2, 0), "(t-1)^3"),
    ("p3_2_4_0", _b3(2, 4, 0), "0"),
    ("p3_6_0_0", _b3(6, 0, 0), "0"),
    ("p4", "strands=3; s2^-7 s1 s2 D^2", "(t-1)*(t^4-t^3+t^2-t+1)"),
    ("p5", "strands=3; s1^-4 s2^2 s1^-3 s2^-1 s1 D^2", "(t-1)^3"),
    # corrected values; the printed ones are in SOURCE_MISPRINTS
    ("p6", "strands=4; s3^-2 s2^-2 s3^-1 s1 s2^2 s1^-4 s2^-1 s3 s2^-3 s3^-1 s2 s1^-1 D^2",
     "(t-1)^5"),
    ("p7", "strands=4; s3^-3 s1 s2^2 s1^-4 s2^-1 s3 s1^-2 s2^-3 s3^-1 s2 s1^-1 D^2",
     "(t^2-t+1)*(t-1)^3"),
    ("p8", "strands=4; s2^-2 s3^-3 s1^-3 s2^-1 s3 s2^-3 s3^-1 s2 s1^-2 s2^-1 s3^2 s2 s1 D^2",
     "(t-1)^7"),
    ("p9", "strands=4; s3^-3 s1^-3 s2^-1 s3 s2^-2 s1^-2 s2^-1 s3^-1 s2 s1^-2 s2^-1 s3^2 s2 s1 D^2",
     "(t^2-t+1)*(t-1)^3"),
    ("p10_4_1",
     "strands=4; s3^-1 s2^-1 s1^-1 s3^-2 s2^-1 s3 s2^-4 s3^-1 s2 s1^-3 s3 s2 s1 s3^-1 D^2",
     "(t^2+1)*(t^2-t+1)*(t-1)^3"),
    ("p10_2_3",
     "strands=4; s3^-1 s2^-1 s1^-1 s3^-4 s2^-1 s3 s2^-2 s3^-1 s2 s1^-3 s3 s2 s1 s3^-1 D^2",
     "(t^4-2*t^3+4*t^2-2*t+1)*(t-1)^3"),
    ("p11_2_3", "strands=4; s2^-2 s3^-1 s2 s3^-3 s1^-3 s1 s2^2 s1^-4 s2^-1 s3 D^2",
     "(t^2+1)*(t^6-5*t^5+12*t^4-14*t^3+12*t^2-5*t+1)*(t-1)^2"),
    ("p19", "strands=3; s1^-7 s2 s1 D^2", "(t-1)*(t^4-t^3+t^2-t+1)"),
]

# Values printed in the source for p6 and p7. They are not the Alexander
# polynomials of the printed braids (test_criterion_2_alexander_oracle);
# both are nonzero at e = 2 < 3, as are the corrected values, so the
# prohibitions that rest on them stand.
SOURCE_MISPRINTS = {
    "p6": "(t^2-t+1)*(t^6-3*t^5+6*t^4-5*t^3+6*t^2-3*t+1)*(t-1)^3",
    "p7": "(2*t^4-2*t^3+3*t^2-2*t+2)*(t^2-t+1)^2*(t-1)^3",
}


def test_criterion_2_alexander_fixtures():
    start = time.perf_counter()
    failures = []
    for name, braid_text, expected_text in ALEXANDER_FIXTURES:
        got = alexander_polynomial(parse_braid(braid_text))
        want = parse_poly(expected_text).normalized_unit()
        if got != want:
            failures.append(f"{name}: expected {expected_text}, computed {format_poly(got)}")
    for a in range(0, 7):
        b = 6 - a
        lhs = alexander_polynomial(parse_braid(_b2(a, b)))
        rhs = alexander_polynomial(parse_braid(_b1(a, b, 0)))
        if lhs != rhs:
            failures.append(f"identity p2=p1 fails at ({a},{b}):"
                            f" {format_poly(lhs)} != {format_poly(rhs)}")
    _report("criterion 2 (alexander fixtures)", failures, time.perf_counter() - start, 10.0)


def test_criterion_2_alexander_oracle():
    """Recompute the criterion-2 values of p4..p7 with sympy, sharing no
    code with the invariant layer: Delta is the minor of I - psi(b) that
    deletes the first row and column, psi the unreduced Burau
    representation sigma_i -> [[1-t, t], [1, 0]] on rows and columns
    i, i+1. p4 and p5 calibrate the oracle (their fixture values are the
    printed ones); for p6 and p7 it must give the fixture values and
    differ from the printed ones."""
    sp = pytest.importorskip("sympy")
    start = time.perf_counter()
    failures = []
    t = sp.Symbol("t")
    fixtures = {name: (braid, value) for name, braid, value in ALEXANDER_FIXTURES}

    def same_up_to_unit(a, text):
        num, den = sp.fraction(sp.cancel(a / sp.sympify(text)))
        return all(sp.Poly(p, t).is_monomial and abs(sp.Poly(p, t).LC()) == 1
                   for p in (num, den))

    def burau(m, letter):
        mat = sp.eye(m)
        i = abs(letter) - 1
        block = sp.Matrix([[1 - t, t], [1, 0]])
        mat[i:i + 2, i:i + 2] = block if letter > 0 else block.inv()
        return mat

    for name in ("p4", "p5", "p6", "p7"):
        braid_text, expected_text = fixtures[name]
        b = parse_braid(braid_text)
        psi = sp.eye(b.strands)
        for letter in b.letters:
            psi = (psi * burau(b.strands, letter)).applyfunc(sp.expand)
        oracle = sp.expand((sp.eye(b.strands) - psi)[1:, 1:].det(method="berkowitz"))
        if not same_up_to_unit(oracle, expected_text):
            failures.append(f"{name}: oracle gives {sp.factor(oracle)},"
                            f" fixture expects {expected_text}")
        printed = SOURCE_MISPRINTS.get(name, expected_text)
        if same_up_to_unit(oracle, printed) != (name not in SOURCE_MISPRINTS):
            failures.append(f"{name}: oracle gives {sp.factor(oracle)},"
                            f" printed value {printed}")
    _report("criterion 2 (alexander oracle)", failures, time.perf_counter() - start, 30.0)


def test_criterion_3_determinants():
    start = time.perf_counter()
    failures = []
    cases = [
        ("b11_5_0", "strands=4; s2^-5 s3^-1 s2 s1^-3 s1 s2^2 s1^-4 s2^-1 s3 D^2", 976, True),
        ("b11_3_2", "strands=4; s2^-3 s3^-1 s2 s3^-2 s1^-3 s1 s2^2 s1^-4 s2^-1 s3 D^2", 592, True),
        ("b17", "strands=3; s2^-4 s1^-5 s2^-1 s1 s2^-4 s1^-1 s2 D^5", 301, None),
    ]
    for name, text, expected, must_fire in cases:
        b = parse_braid(text)
        got = determinant_of_closure(b)
        if got != expected:
            failures.append(f"{name}: determinant {got} != {expected}")
        if must_fire and obstruction(b, "square") is None:
            failures.append(f"{name}: perfect-square obstruction did not fire")
    _report("criterion 3 (determinants)", failures, time.perf_counter() - start, 2.0)


def test_criterion_4_garside():
    start = time.perf_counter()
    failures = []
    b12 = parse_braid("strands=4; s2^-1 s3^-1 s2 s3^-1 s2^-1 s3^-3 s2^-1 s3 s1^-1"
                      " s2^-2 s3^-1 s1 s2^2 s1^-1 s2^-2 s1^-1 s2^-1 D^2")
    b13 = parse_braid("strands=4; s2^-3 s3^-1 s2^-1 s3 s2^-1 s3^-1 s2 s1^-2 s2^-1"
                      " s1^-1 s3^-1 s1 s2^2 s1^-2 s2^-1 s1^-2 s2^-1 s3 D^2")
    if not is_trivial(b12):
        failures.append("b12 is not trivial")
    if not is_trivial(b13):
        failures.append("b13 is not trivial")
    # normal-form identities: each braid equals Delta^-3 times the stated
    # positive word (the stated identities' half twist rides on the left;
    # the faithful reduced Burau representation confirms that reading)
    table = [
        ("b14", "strands=3; s1^-1 s2^-1 s1^-2 s2^-1 s1 s2^-4 s1^-1 D^3",
         "strands=3; s2^3 s1^2 s2^2 s1^2"),
        ("b15", "strands=3; s1^-1 s2^-1 s1^-1 s2^-5 s1^-1 D^3",
         "strands=3; s1 s2^2 s1^2 s2^2 s1^2"),
        ("b16", "strands=3; s1^-1 s2^-1 s1^-1 s2^-1 s1 s2^-4 s1^-1 s2^-1 D^3",
         "strands=3; s1 s2^3 s1^2 s2^2 s1"),
    ]
    d3 = parse_braid("strands=3; D^3")
    for name, braid_text, positive_text in table:
        b = parse_braid(braid_text)
        w = parse_braid(positive_text)
        if not equals(compose(d3, b), w):
            failures.append(f"{name}: normal form does not match the stated positive word")
        if reduced_burau(b) != reduced_burau(compose(inverse(d3), w)):
            failures.append(f"{name}: faithful-representation cross-check failed")
    _report("criterion 4 (garside)", failures, time.perf_counter() - start, 2.0)


def test_criterion_5_combs():
    start = time.perf_counter()
    failures = []
    if not is_closed((5, 6, 1, 4, 1, 6, 5, 2, 3, 2)):
        failures.append("the closed comb example is rejected")
    w1 = parse_weighted_comb("g3 g6 g1 g4 g1 g6 g5 g2 g3 g6 g1 g4 g1 g6 (g3 g2)^3"
                             " g3 g6 g1 g4 g1 g6 g5 g2 | 1 2 0")
    t0 = time.perf_counter()
    if mu_exists(w1):
        failures.append("mu_exists(w1) should be false")
    if time.perf_counter() - t0 >= 5.0:
        failures.append("w1 exceeded its 5s budget")
    w2 = parse_weighted_comb("(g3 g2 g3 g2 g3 g2 g3 g6 g1 g4 g1 g6)^3 | 3 6 2")
    t0 = time.perf_counter()
    if mu_exists(w2):
        failures.append("mu_exists(w2) should be false")
    if time.perf_counter() - t0 >= 60.0:
        failures.append("w2 exceeded its 60s budget")
    _report("criterion 5 (combs)", failures, time.perf_counter() - start, 66.0)


def test_criterion_6_root_scheme():
    start = time.perf_counter()
    failures = []
    got = render_root_scheme(root_scheme(parse_scheme("n=1 m=3; >2 <1 >2 o2 <2")))
    want = "q2 r1 p3 q2 p3 r1 q2 r1 r1 r1 r1"
    if got != want:
        failures.append(f"root scheme {got!r} != {want!r}")
    _report("criterion 6 (root scheme)", failures, time.perf_counter() - start, 1.0)


def test_criterion_7_classification():
    start = time.perf_counter()
    failures = []
    if len(enumerate_schemes("any")) != 121:
        failures.append("master list is not 121 schemes")
    R = parse_real_scheme
    if not realizable(R("<J + 4 + 1<8>>"), "symmetric-dividing-pseudoholomorphic"):
        failures.append("<J + 4 + 1<8>> should be pseudoholomorphically realizable")
    if realizable(R("<J + 4 + 1<8>>"), "symmetric-dividing-algebraic"):
        failures.append("<J + 4 + 1<8>> should not be algebraically realizable")
    for a, b in ((2, 10), (6, 6), (4, 4)):
        if realizable(R(f"<J + {a} + 1<{b}>>"), "symmetric-dividing-pseudoholomorphic"):
            failures.append(f"<J + {a} + 1<{b}>> should be prohibited (dividing symmetric)")
    for a, b in ((8, 6), (7, 7), (6, 8), (5, 9), (7, 6), (6, 7), (4, 9)):
        if realizable(R(f"<J + {a} + 1<{b}>>"), "symmetric"):
            failures.append(f"<J + {a} + 1<{b}>> should be prohibited (symmetric)")
    _report("criterion 7 (classification)", failures, time.perf_counter() - start, 1.0)


def _random_word(rng, m, max_len=15):
    return word(m, [rng.choice((1, -1)) * rng.randint(1, m - 1)
                    for _ in range(rng.randint(0, max_len))])


def test_criterion_8_property_suites():
    start = time.perf_counter()
    failures = []
    rng = random.Random(2718281828)

    # Burau homomorphism and braid-relation preservation, 1000 words
    for i in range(1000):
        m = rng.randint(2, 5)
        b = _random_word(rng, m)
        cut = rng.randint(0, len(b.letters))
        left = word(m, b.letters[:cut])
        right = word(m, b.letters[cut:])
        if reduced_burau(b) != mat_mul(reduced_burau(left), reduced_burau(right)):
            failures.append(f"homomorphism fails on sample {i}")
            break
        if m >= 3:
            j = rng.randint(1, m - 2)
            rel_a = word(m, b.letters + (j, j + 1, j))
            rel_b = word(m, b.letters + (j + 1, j, j + 1))
            if reduced_burau(rel_a) != reduced_burau(rel_b):
                failures.append(f"braid relation not preserved on sample {i}")
                break

    # Alexander conjugation invariance, 200 pairs
    for i in range(200):
        m = rng.randint(2, 5)
        a = _random_word(rng, m, max_len=8)
        b = _random_word(rng, m, max_len=12)
        if alexander_polynomial(conjugate(a, b)) != alexander_polynomial(b):
            failures.append(f"conjugation invariance fails on pair {i}")
            break

    # pruned vs unpruned chain multiplicity
    for length in range(0, 7):
        for _ in range(5):
            comb_word = tuple(rng.randint(1, 6) for _ in range(length))
            for alpha in range(0, 4):
                for beta in range(0, 3):
                    for gamma in range(0, 3):
                        w = WeightedComb(comb_word, alpha, beta, gamma)
                        if mu_count(w, prune=True) != mu_count(w, prune=False):
                            failures.append(f"pruning changes mu on {w}")

    # Laurent ring axioms
    def rand_poly():
        return LaurentPoly({rng.randint(-4, 6): rng.randint(-9, 9)
                            for _ in range(rng.randint(0, 5))})
    for _ in range(300):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        if a * (b + c) != a * b + a * c or (a * b) * c != a * (b * c) or a + b != b + a:
            failures.append("ring axiom failure")
            break

    _report("criterion 8 (property suites)", failures, time.perf_counter() - start, 120.0)
