import random
from fractions import Fraction

import pytest

from ruledcurves import invariants
from ruledcurves.braid import (
    compose,
    conjugate,
    identity,
    inverse,
    parse_braid,
    word,
)
from ruledcurves.invariants import (
    ConventionError,
    _determinant,
    _is_perfect_square,
    alexander_polynomial,
    burau_determinant_check,
    determinant_of_closure,
    mat_mul,
    obstructions,
    quasipositivity_verdict,
    reduced_burau,
)
from ruledcurves.laurent import LaurentPoly, parse_poly


def random_word(rng, m=None, max_len=15):
    m = m or rng.randint(2, 5)
    letters = [rng.choice((1, -1)) * rng.randint(1, m - 1)
               for _ in range(rng.randint(0, max_len))]
    return word(m, letters)


def obstruction(b, test):
    """The obstruction of that name which fires on b, or None."""
    return next((o for o in obstructions(b) if o.test == test), None)


def test_burau_identity_and_generator():
    one = LaurentPoly.one()
    zero = LaurentPoly.zero()
    assert reduced_burau(identity(3)) == ((one, zero), (zero, one))
    assert reduced_burau(word(2, [1])) == ((parse_poly("-t"),),)


def test_burau_determinant_convention():
    for m in range(2, 6):
        assert burau_determinant_check(m)


def test_burau_relations():
    assert reduced_burau(word(3, [1, 2, 1])) == reduced_burau(word(3, [2, 1, 2]))
    assert reduced_burau(word(4, [1, 3])) == reduced_burau(word(4, [3, 1]))
    for m in (2, 3, 4, 5):
        for i in range(1, m):
            assert reduced_burau(word(m, [i, -i])) == reduced_burau(identity(m))


def test_burau_homomorphism_randomized():
    rng = random.Random(41)
    for _ in range(100):
        m = rng.randint(2, 5)
        a, b = random_word(rng, m), random_word(rng, m)
        assert reduced_burau(compose(a, b)) == mat_mul(reduced_burau(a), reduced_burau(b))


def test_alexander_of_identity_and_unknot():
    for m in (2, 3, 4):
        assert alexander_polynomial(identity(m)).is_zero()
    assert alexander_polynomial(word(2, [1])) == LaurentPoly.one()
    # trefoil
    assert alexander_polynomial(word(2, [1, 1, 1])) == parse_poly("t^2 - t + 1")


def test_alexander_fixture():
    b4 = parse_braid("strands=3; s2^-7 s1 s2 D^2")
    assert alexander_polynomial(b4) == \
        parse_poly("(t - 1)*(t^4 - t^3 + t^2 - t + 1)").normalized_unit()
    assert determinant_of_closure(b4) == 10


def test_alexander_conjugation_invariance():
    rng = random.Random(43)
    for _ in range(60):
        m = rng.randint(2, 4)
        a, b = random_word(rng, m, max_len=8), random_word(rng, m, max_len=8)
        assert alexander_polynomial(conjugate(a, b)) == alexander_polynomial(b)
        assert determinant_of_closure(conjugate(a, b)) == determinant_of_closure(b)


def test_alex_obstruction():
    b5 = parse_braid("strands=3; s1^-4 s2^2 s1^-3 s2^-1 s1 D^2")
    fired = obstruction(b5, "alex")
    assert fired is not None and fired.test == "alex"
    assert fired.witness == "t^3 - 3*t^2 + 3*t - 1"
    # zero polynomial: no obstruction
    b1_150 = parse_braid(
        "strands=3; s1^-1 s2^-1 s1 s1^-1 s2^2 s1 s2^-5 s1^-1 s2 s1^-1 s2^-1 s1 D^2")
    assert alexander_polynomial(b1_150).is_zero()
    assert obstruction(b1_150, "alex") is None
    # e = m - 1: not applicable
    assert obstruction(word(2, [1]), "alex") is None


def test_double_alex_obstruction():
    b11_23 = parse_braid("strands=4; s2^-2 s3^-1 s2 s3^-3 s1^-3 s1 s2^2 s1^-4 s2^-1 s3 D^2")
    fired = obstruction(b11_23, "double_alex")
    assert fired is not None and fired.test == "double_alex"
    assert obstruction(word(2, [1]), "double_alex") is None  # alexander = 1, no roots
    # Hopf braid: e = 2 > m - 1 = 1, not applicable despite the circle root
    assert alexander_polynomial(word(2, [1, 1])) == parse_poly("t - 1")
    assert obstruction(word(2, [1, 1]), "double_alex") is None
    # below the threshold: not applicable
    b4 = parse_braid("strands=3; s2^-7 s1 s2 D^2")
    assert obstruction(b4, "double_alex") is None


def test_square_obstruction():
    b11_50 = parse_braid("strands=4; s2^-5 s3^-1 s2 s1^-3 s1 s2^2 s1^-4 s2^-1 s3 D^2")
    b11_32 = parse_braid("strands=4; s2^-3 s3^-1 s2 s3^-2 s1^-3 s1 s2^2 s1^-4 s2^-1 s3 D^2")
    assert determinant_of_closure(b11_50) == 976
    assert determinant_of_closure(b11_32) == 592
    assert obstruction(b11_50, "square") is not None
    assert obstruction(b11_32, "square") is not None
    # determinant 0 and 1 are squares: never fires
    assert obstruction(word(2, [1]), "square") is None


def test_determinants():
    b17 = parse_braid("strands=3; s2^-4 s1^-5 s2^-1 s1 s2^-4 s1^-1 s2 D^5")
    assert determinant_of_closure(b17) == 301
    assert obstruction(b17, "square") is not None


def test_verdicts():
    b12 = parse_braid(
        "strands=4; s2^-1 s3^-1 s2 s3^-1 s2^-1 s3^-3 s2^-1 s3 s1^-1 s2^-2 s3^-1"
        " s1 s2^2 s1^-1 s2^-2 s1^-1 s2^-1 D^2")
    assert quasipositivity_verdict(b12).status == "quasipositive_certified"
    b5 = parse_braid("strands=3; s1^-4 s2^2 s1^-3 s2^-1 s1 D^2")
    v = quasipositivity_verdict(b5)
    assert v.status == "not_quasipositive"
    assert any(o.test == "alex" for o in v.obstructions)
    v1 = quasipositivity_verdict(word(2, [1]))
    assert v1.status == "unknown"
    assert v1.exponent_sum == 1
    # nontrivial with e = 0 is rejected outright
    v0 = quasipositivity_verdict(word(3, [1, -2]))
    assert v0.status == "not_quasipositive"
    assert v0.obstructions[0].test == "exponent_zero"
    vneg = quasipositivity_verdict(word(3, [-1]))
    assert vneg.status == "not_quasipositive"
    assert vneg.obstructions[0].test == "negative_exponent"


def test_soundness_on_trivial_braids():
    # braids certified quasipositive trigger no obstruction
    rng = random.Random(47)
    for _ in range(60):
        m = rng.randint(2, 4)
        a = random_word(rng, m, max_len=8)
        b = compose(a, inverse(a))
        assert quasipositivity_verdict(b).status == "quasipositive_certified"
        assert obstruction(b, "alex") is None
        assert obstruction(b, "double_alex") is None
        assert obstruction(b, "square") is None


def test_exponent_sum_reported():
    b = parse_braid("strands=3; s2^-7 s1 s2 D^2")
    v = quasipositivity_verdict(b)
    assert v.exponent_sum == 1 and v.strands == 3
    payload = v.as_dict()
    assert payload["status"] == "not_quasipositive"
    assert payload["obstructions"][0]["test"] == "alex"


def test_perfect_square_is_exact_at_any_size():
    assert _is_perfect_square((10**200 + 7) ** 2)
    assert not _is_perfect_square((10**200 + 7) ** 2 + 1)
    assert not _is_perfect_square(10**401)  # beyond float range
    assert _is_perfect_square(0) and _is_perfect_square(1)
    assert not _is_perfect_square(-4)


def test_square_obstruction_on_an_84_digit_determinant(monkeypatch):
    # (s1 s2^-1)^200 s1 s2 has e = m - 1 and an 84-digit determinant,
    # far beyond what a float square-root guess can correct step by step.
    # The unit-circle test is stubbed out: on this degree-396 polynomial
    # it takes tens of seconds and is not what this test is about.
    b = word(3, [1, -2] * 200 + [1, 2])
    det = determinant_of_closure(b)
    assert len(str(det)) == 84
    monkeypatch.setattr(invariants, "has_simple_unit_circle_root", lambda p: False)
    fired = obstructions(b)
    assert [o.test for o in fired] == ["square"]
    assert fired[0].exponent_sum == 2 and fired[0].witness == str(det)


def test_determinant_is_exact():
    # negative exponents still give an integer at t = -1
    assert _determinant(LaurentPoly({-1: 1})) == 1
    assert _determinant(parse_poly("t^2 - t + 1")) == 3
    with pytest.raises(ConventionError):
        _determinant(LaurentPoly({0: Fraction(1, 2)}))
