import math
import random

import pytest

from ruledcurves.braid import MAX_DEPTH, word
from ruledcurves.invariants import alexander_polynomial
from ruledcurves.laurent import (
    MAX_POLY_SPAN,
    LaurentError,
    LaurentPoly,
    divide_exact,
    format_poly,
    gcd_primitive,
    has_simple_unit_circle_root,
    parse_poly,
)


def P(text):
    return parse_poly(text)


def random_poly(rng, max_terms=5, exp_range=(-4, 6), coeff_range=(-9, 9)):
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        coeffs[rng.randint(*exp_range)] = rng.randint(*coeff_range)
    return LaurentPoly(coeffs)


def test_add_examples():
    assert P("t - 1") + P("1") == P("t")
    assert P("t^-1 + 1") + P("-t^-1") == P("1")
    p = P("3*t^2 - t^-5")
    assert p + P("0") == p


def test_mul_examples():
    assert P("t - 1") * P("t^4 - t^3 + t^2 - t + 1") == \
        P("t^5 - 2*t^4 + 2*t^3 - 2*t^2 + 2*t - 1")
    p = P("t^2 - 7*t^-3")
    assert p * P("1") == p
    assert p * P("0") == P("0")


def test_hash_agrees_with_equality():
    # a constant polynomial equals its integer, so it must hash like it
    for value, poly in ((0, P("0")), (1, P("1")), (-3, P("-3"))):
        assert poly == value and hash(poly) == hash(value)
        assert {poly} == {value} and {value: "x"}[poly] == "x"
    p = P("2*t^3 - t^-1 + 5")
    assert hash(p) == hash(P("5 - t^-1 + 2*t^3")) and p != 5
    assert len({p, P("5 - t^-1 + 2*t^3"), P("5"), 5}) == 2


def test_ring_axioms_randomized():
    rng = random.Random(20240)
    for _ in range(300):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_normalize_unit():
    assert P("t^-2 - t^-1").normalized_unit() == P("t - 1")
    assert P("-1").normalized_unit() == P("1")
    p = P("t^5 - 2*t^4 + 2*t^3 - 2*t^2 + 2*t - 1")
    assert p.normalized_unit() == p
    assert P("0").normalized_unit() == P("0")


def test_normalize_unit_idempotent_and_unit_invariant():
    rng = random.Random(7)
    for _ in range(200):
        p = random_poly(rng)
        q = p.normalized_unit()
        assert q.normalized_unit() == q
        k = rng.randint(-3, 3)
        sign = rng.choice((1, -1))
        assert (p * LaurentPoly({k: sign})).normalized_unit() == q


def test_divide_exact():
    assert divide_exact(P("t^2 - 1"), P("t - 1")) == P("t + 1")
    p = P("3*t^3 - t^-2")
    assert divide_exact(p, P("1")) == p
    assert divide_exact(P("t^-3 - t^-1"), P("t^-2 - 1")) == P("t^-1")
    assert divide_exact(P("0"), P("t - 1")) == P("0")
    with pytest.raises(LaurentError):
        divide_exact(P("t + 2"), P("t - 1"))
    with pytest.raises(LaurentError, match="inexact polynomial division"):
        divide_exact(P("t"), P("t^2 + 1"))
    with pytest.raises(LaurentError, match="division by zero"):
        divide_exact(P("t"), P("0"))
    with pytest.raises(LaurentError, match="inexact polynomial division"):
        divide_exact(P("t^2 + 1"), P("2*t"))
    with pytest.raises(LaurentError, match="negative powers"):
        P("t + 1") ** -1


def test_divide_exact_roundtrip():
    rng = random.Random(99)
    for _ in range(200):
        p = random_poly(rng)
        q = random_poly(rng)
        if not q:
            continue
        assert divide_exact(p * q, q) == p


def test_gcd():
    assert gcd_primitive(P("t^2 - 1"), P("t - 1")) == P("t - 1")
    assert gcd_primitive(P("t - 1"), P("0")) == P("t - 1")
    with pytest.raises(LaurentError):
        gcd_primitive(P("0"), P("0"))
    rng = random.Random(5)
    for _ in range(100):
        g = random_poly(rng, max_terms=3)
        a = random_poly(rng, max_terms=3)
        b = random_poly(rng, max_terms=3)
        if not (g and a and b):
            continue
        d = gcd_primitive(g * a, g * b)
        # the common factor divides the gcd
        divide_exact(d, gcd_primitive(d, g.normalized_unit()))  # no exactness error
        assert d


def multiplicity_one_part(p):
    """The product of the linear factors of p of multiplicity exactly one,
    s1 = (p/g) / gcd(p/g, g) with g = gcd(p, p'), as a primitive
    polynomial; gcd_primitive(q, 0) is the primitive part of q."""
    zero = P("0")
    p = gcd_primitive(p, zero)
    g = gcd_primitive(p, LaurentPoly({e - 1: e * c for e, c in p.coeffs.items()}))
    h = gcd_primitive(divide_exact(p, g), zero)
    return gcd_primitive(divide_exact(h, gcd_primitive(h, g)), zero)


def test_multiplicity_one_part():
    assert multiplicity_one_part(P("(t - 1)^2*(t^2 + 1)")) == P("t^2 + 1")
    assert multiplicity_one_part(P("t - 1")) == P("t - 1")


def dense(p):
    """Coefficients of the unit-normalised p from degree 0 up."""
    q = p.normalized_unit()
    return [q.coeffs.get(e, 0) for e in range(max(q.coeffs, default=-1) + 1)]


def _roots_by_multiplicity(np, p):
    """Independent oracle: cluster the numeric roots of p."""
    coeffs = list(reversed(dense(p)))
    roots = np.roots([float(c) for c in coeffs])
    clusters = []
    for r in roots:
        for cluster in clusters:
            if abs(cluster[0] - r) < 1e-5:
                cluster.append(r)
                break
        else:
            clusters.append([r])
    return clusters


def test_multiplicity_one_part_against_numeric_roots():
    np = pytest.importorskip("numpy")
    rng = random.Random(31)
    linear_pool = [P("t - 1"), P("t + 1"), P("t - 2"), P("t + 3"), P("t^2 + 1")]
    for _ in range(60):
        square = rng.choice(linear_pool)
        simple = rng.choice([q for q in linear_pool if q != square])
        p = square * square * simple
        s1 = multiplicity_one_part(p)
        assert s1 == simple.normalized_unit()
        # no root of the squared factor survives
        assert gcd_primitive(s1, square) == 1
        simple_roots = {round(c[0].real, 5) + 1j * round(c[0].imag, 5)
                        for c in _roots_by_multiplicity(np, p) if len(c) == 1}
        s1_roots = {round(c[0].real, 5) + 1j * round(c[0].imag, 5)
                    for c in _roots_by_multiplicity(np, s1)}
        assert simple_roots == s1_roots


def test_unit_circle_root():
    p = P("(t^2 + 1)*(t^6 - 5*t^5 + 12*t^4 - 14*t^3 + 12*t^2 - 5*t + 1)*(t - 1)^2")
    assert has_simple_unit_circle_root(p)
    assert not has_simple_unit_circle_root(P("(t - 1)^2"))
    assert not has_simple_unit_circle_root(P("t - 2"))
    with pytest.raises(LaurentError):
        has_simple_unit_circle_root(P("0"))


def cyclotomic(n):
    """Phi_n = (t^n - 1) / prod of Phi_d over the proper divisors d of n."""
    p = P(f"t^{n} - 1")
    for d in range(1, n):
        if n % d == 0:
            p = divide_exact(p, cyclotomic(d))
    return p


# Factors whose unit-circle roots are known: Phi_1 = t - 1 and
# Phi_2 = t + 1 give t = 1 and t = -1, every other Phi_n only roots of
# unity off the real axis; the reciprocal pairs (t^2 - 3t + 1,
# 2t^2 - 5t + 2 = (2t - 1)(t - 2)) and the non-reciprocal factors (t - 2,
# t^2 + t + 2 with |root|^2 = 2) have no root on the circle. The Phi_n
# are pairwise coprime and share no root with the other factors, so a
# unit-circle root has the exponent of its Phi_n as its multiplicity.
ON_CIRCLE = [cyclotomic(n) for n in range(1, 13)]
OFF_CIRCLE = [P("t^2 - 3*t + 1"), P("2*t^2 - 5*t + 2"), P("t - 2"), P("t^2 + t + 2")]


def test_cyclotomic_factors():
    assert ON_CIRCLE[0] == P("t - 1") and ON_CIRCLE[1] == P("t + 1")
    assert ON_CIRCLE[11] == P("t^4 - t^2 + 1")
    assert [max(f.coeffs) for f in ON_CIRCLE] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_unit_circle_root_by_construction():
    cases = [
        ("(t - 1)*(t + 1)^2", True),  # a = 1
        ("(t - 1)^2*(t + 1)", True),  # b = 1
        ("(t - 1)^3*(t + 1)^2*(t^2 + 1)^2", False),
        ("(t - 1)^2*(t^2 - 3*t + 1)", False),
        ("(t^2 + t + 1)*(t - 2)", True),
        ("(t^2 + t + 1)^2*(t - 2)*(t^2 + t + 2)", False),
        ("(t^2 + 1)*(t^2 + t + 2)^3", True),
        ("(t^2 + 1)^3*(t^4 - t^2 + 1)^2*(2*t^2 - 5*t + 2)", False),
        ("t^-3*(t^4 + t^3 + t^2 + t + 1)*(t^2 - t + 1)^2", True),
        ("-(t + 1)^3", False),
    ]
    for text, want in cases:
        assert has_simple_unit_circle_root(P(text)) is want, text


def test_unit_circle_root_on_random_products():
    rng = random.Random(2004)
    pool = ON_CIRCLE + OFF_CIRCLE
    for _ in range(300):
        chosen = rng.sample(range(len(pool)), rng.randint(1, 4))
        mults = {i: rng.randint(1, 3) for i in chosen}
        sign = rng.choice((1, -1))
        p = LaurentPoly({rng.randint(-5, 5): sign})
        for i, r in mults.items():
            p = p * pool[i] ** r
        want = any(r == 1 for i, r in mults.items() if i < len(ON_CIRCLE))
        assert has_simple_unit_circle_root(p) is want, format_poly(p)


def _float_unit_circle_rule(np, p):
    """The companion-matrix rule: a root of the multiplicity-one part
    within 1e-8 of |z| = 1."""
    coeffs = dense(multiplicity_one_part(p))
    if len(coeffs) <= 1:
        return False
    roots = np.roots([float(c) for c in reversed(coeffs)])
    return bool(np.any(np.abs(np.abs(roots) - 1.0) < 1e-8))


def test_unit_circle_root_against_numeric_roots():
    # Alexander polynomials of random braids at e = m - 1, m <= 6: the
    # inputs of the double_alex obstruction. Their coefficients stay small
    # enough here that the float rule is reliable.
    np = pytest.importorskip("numpy")
    rng = random.Random(11)
    checked = 0
    while checked < 150:
        m = rng.randint(2, 6)
        negative = rng.randint(0, 12)
        letters = ([rng.randint(1, m - 1) for _ in range(negative + m - 1)]
                   + [-rng.randint(1, m - 1) for _ in range(negative)])
        rng.shuffle(letters)
        p = alexander_polynomial(word(m, letters))
        if not p:
            continue
        assert has_simple_unit_circle_root(p) == _float_unit_circle_rule(np, p), format_poly(p)
        checked += 1


def test_text_round_trip():
    rng = random.Random(12)
    for _ in range(200):
        p = random_poly(rng)
        assert parse_poly(format_poly(p)) == p
    assert format_poly(LaurentPoly()) == "0"
    assert parse_poly("0") == LaurentPoly()
    assert not parse_poly("0") and parse_poly("-1") and parse_poly("t^-1")
    assert format_poly(P("-t^-2 + 3")) == "3 - t^-2"
    with pytest.raises(LaurentError):
        parse_poly("t^^2")
    with pytest.raises(LaurentError):
        parse_poly("(t-1")
    with pytest.raises(LaurentError, match="expected a monomial"):
        parse_poly("+")
    with pytest.raises(LaurentError, match="trailing input in polynomial"):
        parse_poly("t )")


def test_parse_refuses_wide_powers_and_products():
    # Each text is a few bytes but would expand to a polynomial of huge
    # degree span or a huge coefficient; the parser refuses first.
    for text in ("(t+1)^1000000000", f"(t+1)^{MAX_POLY_SPAN + 1}",
                 f"(t^2+1)^{MAX_POLY_SPAN // 2 + 1}", "(2)^1000000000",
                 f"(t+1)^{MAX_POLY_SPAN}*(t-1)"):
        with pytest.raises(LaurentError, match="wider than"):
            parse_poly(text)
    at_cap = parse_poly(f"(t+1)^{MAX_POLY_SPAN}")
    assert max(at_cap.coeffs) == MAX_POLY_SPAN and min(at_cap.coeffs) == 0
    assert at_cap.coeffs[MAX_POLY_SPAN // 2] == math.comb(MAX_POLY_SPAN, MAX_POLY_SPAN // 2)
    assert parse_poly(f"(t^2-1)^{MAX_POLY_SPAN // 2}") == P("t^2-1") ** (MAX_POLY_SPAN // 2)
    assert parse_poly("(t^-3)^1000*t^1000000000") == LaurentPoly({10**9 - 3000: 1})


def test_nesting_beyond_the_cap_is_refused():
    # The parser recurses once per parenthesis: 1,500 levels would pass
    # the interpreter's recursion limit, so they are refused at the cap.
    for depth in (MAX_DEPTH + 1, 1500):
        with pytest.raises(LaurentError, match=f"deeper than {MAX_DEPTH}"):
            P("(" * depth + "t - 1" + ")" * depth)
    assert P("(" * MAX_DEPTH + "t - 1" + ")" * MAX_DEPTH) == P("t - 1")
    assert P("((t - 1)^2*(t + 1))^2") == P("(t^2 - 1)^2*(t - 1)^2")
