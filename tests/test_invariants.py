import itertools
import json
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest

from ruledcurves import cli, invariants
from ruledcurves.braid import (
    compose,
    conjugate,
    exponent_sum,
    identity,
    inverse,
    is_trivial,
    parse_braid,
    word,
)
from ruledcurves.invariants import (
    _BURAU_POINT,
    _BURAU_PRIME,
    _SPARE_BITS,
    _START_WIDTH,
    ConventionError,
    _alexander_residue,
    _burau_mod_p,
    _burau_witness,
    _coefficients,
    _decoded,
    _det,
    _determinant,
    _digit_bytes,
    _fits,
    _is_perfect_square,
    _packed_burau,
    _widen,
    alexander_polynomial,
    determinant_of_closure,
    obstructions,
    quasipositivity_verdict,
    reduced_burau,
)
from ruledcurves.laurent import LaurentPoly, divide_exact, format_poly, parse_poly

from matrices import mat_mul


def random_word(rng, m=None, max_len=15):
    m = m or rng.randint(2, 5)
    letters = [rng.choice((1, -1)) * rng.randint(1, m - 1)
               for _ in range(rng.randint(0, max_len))]
    return word(m, letters)


def obstruction(b, test):
    """The obstruction of that name which fires on b, or None."""
    return next((o for o in obstructions(b) if o.test == test), None)


def test_burau_identity_and_generator():
    one, zero = LaurentPoly({0: 1}), LaurentPoly()
    assert reduced_burau(identity(3)) == ((one, zero), (zero, one))
    assert reduced_burau(word(2, [1])) == ((parse_poly("-t"),),)


def block_matrix(m, letter, t, t_inv, one, zero):
    """The reduced Burau image of one letter in the block convention:
    sigma_i is the identity with the block [[1,t,0],[0,-t,0],[0,1,1]] at
    rows/columns i-1..i+1 (2x2 corners for the first and last generator);
    sigma_i^-1 has 1, -t^-1, t^-1 in column i-1 instead of t, -t, 1."""
    n, k = m - 1, abs(letter) - 1
    rows = [[one if r == c else zero for c in range(n)] for r in range(n)]
    column = (t, t * -1, one) if letter > 0 else (one, t_inv * -1, t_inv)
    for r, entry in zip((k - 1, k, k + 1), column):
        if 0 <= r < n:
            rows[r][k] = entry
    return tuple(tuple(row) for row in rows)


def laurent_block(m, letter):
    return block_matrix(m, letter, LaurentPoly({1: 1}), LaurentPoly({-1: 1}),
                        LaurentPoly({0: 1}), LaurentPoly())


def leibniz_det(mat, one):
    """Sum over permutations of sign * product of entries."""
    n = len(mat)
    total = one * 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = one
        for row, col in enumerate(perm):
            term = term * mat[row][col]
        total = total + (term if inversions % 2 == 0 else term * -1)
    return total


def pack(p, k):
    """(v, p(X) / X^v) with v the valuation of p and X = 2^k, by Horner's
    rule; (0, 0) for zero."""
    if not p.coeffs:
        return 0, 0
    low, value = min(p.coeffs), 0
    for e in range(max(p.coeffs), low - 1, -1):
        value = (value << k) + p.coeffs.get(e, 0)
    return low, value


def unpack(low, value, k):
    """Inverse of pack for coefficients of absolute value below X/2: peel
    base-X digits off the bottom, mapping each digit of at least X/2 to
    digit - X with a carry of 1 (balanced digits)."""
    half, mask, coeffs = 1 << (k - 1), (1 << k) - 1, {}
    while value:
        d, value = value & mask, value >> k
        if d >= half:
            d, value = d - (1 << k), value + 1
        coeffs[low] = d
        low += 1
    return LaurentPoly(coeffs)


def packed_det(mat):
    """_det of a matrix of LaurentPoly entries: each entry packed at the
    least width k with H < 2^(k-1), H the product of the rows'
    absolute coefficient sums, and the result unpacked."""
    k = coefficient_bound(mat).bit_length() + 1
    return unpack(*_det([[pack(x, k) for x in row] for row in mat], k), k)


def random_laurent(rng):
    if rng.random() < 0.3:
        return LaurentPoly()
    return LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))})


def laurent_matrix(rows):
    return tuple(tuple(parse_poly(x) for x in row) for row in rows)


def test_det_against_leibniz_on_random_matrices():
    rng = random.Random(53)
    one = LaurentPoly({0: 1})
    for n in range(7):
        for _ in range(12 if n < 6 else 3):
            mat = tuple(tuple(random_laurent(rng) for _ in range(n)) for _ in range(n))
            assert packed_det(mat) == leibniz_det(mat, one)


@pytest.mark.parametrize("rows, expected", [
    # zero (0,0) entry: the first pivot needs a row swap
    ([["0", "t"], ["1", "t^-1"]], "-t"),
    ([["0", "0", "1"], ["0", "2", "t"], ["t", "1", "1"]], "-2*t"),
    # the (1,1) entry vanishes after the first step: a later swap
    ([["1", "1", "0"], ["1", "1", "1"], ["0", "1", "1"]], "-1"),
    ([["t", "t^2", "1", "0"], ["1", "t", "0", "1"], ["0", "1", "t", "t"],
      ["1", "0", "1", "t^-1"]], None),
    # a zero column: no pivot
    ([["1", "0", "t"], ["t", "0", "1"], ["2", "0", "t^-1"]], "0"),
    # rank-deficient: row 2 = t * row 0 + row 1
    ([["1", "t", "2"], ["t^-1", "3", "t - 1"], ["t + t^-1", "t^2 + 3", "3*t - 1"]], "0"),
])
def test_det_pivoting_cases(rows, expected):
    mat = laurent_matrix(rows)
    leibniz = leibniz_det(mat, LaurentPoly({0: 1}))
    if expected is not None:
        assert leibniz == parse_poly(expected)
    assert packed_det(mat) == leibniz


def coefficient_bound(mat):
    """H = prod over rows of max(1, sum of the entries' absolute
    coefficients): no coefficient of any minor exceeds it."""
    bound = 1
    for row in mat:
        bound *= max(1, sum(abs(c) for x in row for c in x.coeffs.values()))
    return bound


def wide_laurent(rng):
    """Zero, or up to four terms with exponents in -40..40 and
    coefficients up to +-2^70."""
    if rng.random() < 0.2:
        return LaurentPoly()
    return LaurentPoly({rng.randint(-40, 40): rng.choice((1, -1)) * rng.randint(1, 2**70)
                        for _ in range(rng.randint(1, 4))})


def wide_monomial(rng, bits=70):
    coeff = rng.choice((1, -1)) * rng.randint(1, 2**bits)
    return LaurentPoly({rng.randint(-40, 40): coeff})


def test_det_packing_against_leibniz():
    # Wide coefficients and exponent ranges, then one whole row and one
    # whole column moved to t-valuation +-40, so that the minors carry
    # powers of t that the packed integers strip.
    rng = random.Random(67)
    one = LaurentPoly({0: 1})
    for n in range(1, 6):
        for _ in range(10 if n < 5 else 4):
            mat = [[wide_laurent(rng) for _ in range(n)] for _ in range(n)]
            r, c = rng.randrange(n), rng.randrange(n)
            mat[r] = [x * LaurentPoly({rng.choice((-40, 40)): 1}) for x in mat[r]]
            shift = LaurentPoly({rng.choice((-40, 40)): 1})
            for row in mat:
                row[c] = row[c] * shift
            mat = tuple(tuple(row) for row in mat)
            assert packed_det(mat) == leibniz_det(mat, one)


def test_det_packing_at_the_coefficient_bound():
    # A monomial matrix (one nonzero monomial per row and column, diagonal
    # or row-permuted) has a one-term determinant whose coefficient is
    # +-H, the bound the digit width is chosen from. Triangular monomial
    # matrices (upper, lower, and upper with its rows reversed, which
    # needs row swaps) keep the diagonal's product as their determinant,
    # below H only by the off-diagonal coefficients of at most 4.
    rng = random.Random(71)
    one, zero = LaurentPoly({0: 1}), LaurentPoly()
    for n in range(1, 6):
        for bits in (1, 8, 31, 64, 70):
            diagonal = [wide_monomial(rng, bits) for _ in range(n)]
            perm = rng.sample(range(n), n)
            mat = tuple(tuple(diagonal[r] if c == perm[r] else zero for c in range(n))
                        for r in range(n))
            det = leibniz_det(mat, one)
            assert [abs(c) for c in det.coeffs.values()] == [coefficient_bound(mat)]
            assert packed_det(mat) == det
            upper = tuple(tuple(diagonal[r] if c == r else
                                wide_monomial(rng, 2) if c > r else zero
                                for c in range(n)) for r in range(n))
            for tri in (upper, tuple(zip(*upper)), upper[::-1]):
                assert packed_det(tri) == leibniz_det(tri, one)


def test_burau_against_block_matrix_products():
    # The column action of reduced_burau against a full product of the
    # one-letter block matrices of the docstring convention.
    rng = random.Random(59)
    for _ in range(60):
        b = random_word(rng, rng.randint(2, 6), max_len=12)
        expected = reduced_burau(identity(b.strands))
        for letter in b.letters:
            expected = mat_mul(expected, laurent_block(b.strands, letter))
        assert reduced_burau(b) == expected


# The column action on plain dicts, exponent -> coefficient: the Burau
# oracle for the packed integers of reduced_burau, sharing no code with
# them. sigma_i^sign rewrites column k = i-1 as the sum over (offset,
# shift, sign) of sign * t^shift * column[k + offset].
DICT_ACTION = {
    1: ((-1, 1, 1), (0, 1, -1), (1, 0, 1)),
    -1: ((-1, 0, 1), (0, -1, -1), (1, -1, 1)),
}


def dict_burau(b):
    n = b.strands - 1
    cols = [[{0: 1} if r == c else {} for r in range(n)] for c in range(n)]
    for letter in b.letters:
        k = abs(letter) - 1
        new = [{} for _ in range(n)]
        for offset, shift, sign in DICT_ACTION[1 if letter > 0 else -1]:
            if 0 <= k + offset < n:
                for acc, entry in zip(new, cols[k + offset]):
                    for e, c in entry.items():
                        e += shift
                        c = acc.get(e, 0) + sign * c
                        if c:
                            acc[e] = c
                        else:
                            del acc[e]
        cols[k] = new
    return tuple(tuple(LaurentPoly(cols[c][r]) for c in range(n)) for r in range(n))


def largest_coefficient(mat):
    return max(abs(c) for row in mat for x in row for c in x.coeffs.values())


def test_packed_burau_against_dict_column_action():
    rng = random.Random(89)
    words = [identity(m) for m in range(2, 7)]
    # m = 2, and all-inverse words, whose entries reach the valuation
    # offset -low exactly: one unit less and the last right shift drops
    # a digit.
    words += [random_word(rng, 2, max_len=30) for _ in range(20)]
    words += [word(m, [-rng.randint(1, m - 1) for _ in range(rng.randint(1, 40))])
              for m in range(2, 9) for _ in range(6)]
    # w w^-1 and Bigelow's kernel element: entries that cancel to 0
    halves = [random_word(rng, rng.randint(3, 8), max_len=30) for _ in range(20)]
    words += [compose(w, inverse(w)) for w in halves] + [bigelow_kernel_element()]
    words += [random_word(rng, rng.randint(2, 12), max_len=80) for _ in range(120)]
    cancelled = 0
    for b in words:
        expected = dict_burau(b)
        assert reduced_burau(b) == expected
        cancelled += b.letters != () and expected == reduced_burau(identity(b.strands))
    assert cancelled >= len(halves) + 1


def test_packed_burau_widens_the_digits_on_a_long_word():
    # The column bound passes 2^63 within a few hundred letters, and the
    # coefficients pass 2^128, so the digits are re-tightened and widened.
    rng = random.Random(97)
    b = word(3, random_letters(rng, 3, 1500))
    low, k, _ = _packed_burau(b)
    expected = dict_burau(b)
    assert reduced_burau(b) == expected
    assert low == -sum(letter < 0 for letter in b.letters)
    assert k > 2 * _START_WIDTH
    assert largest_coefficient(expected).bit_length() > 2 * _START_WIDTH


def test_packed_burau_on_four_thousand_letters():
    # The digit width follows the largest coefficient, not the column
    # bound, which would need thousands of bits here; so the time and the
    # memory stay near those of the coefficients themselves.
    rng = random.Random(101)
    b = word(3, random_letters(rng, 3, 4000))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        low, k, cols = _packed_burau(b)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = dict_burau(b)
    assert tuple(tuple(_decoded(col[r], k, low) for col in cols)
                 for r in range(len(cols))) == expected
    assert k <= largest_coefficient(expected).bit_length() + _SPARE_BITS + 16
    assert elapsed < 20 and peak < 64 << 20


@pytest.mark.parametrize("k", [8, 16, 64, 72, 136])
def test_digit_width_rule_is_the_decoder_capacity(k):
    # _fits(bound, k) admits exactly the bounds whose coefficients come
    # back from balanced base-2^k digits: 2^(k-1) - 1 round trips, at
    # any valuation and after widening; 2^(k-1) does not, and is refused.
    top = (1 << (k - 1)) - 1
    assert _fits(top, k) and not _fits(top + 1, k)
    for coeffs in ([top], [-top], [-top - 1], [top, -top, 0, top], [1, 0, -top, 5],
                   [-top, top, top]):
        for v in (0, 1, 3):
            value = sum(c << (k * (e + v)) for e, c in enumerate(coeffs))
            assert _digit_bytes(value, k)[0] == v
            digits = _coefficients(_digit_bytes(value, k)[1], k)
            assert digits[:len(coeffs)] == coeffs and not any(digits[len(coeffs):])
            for wide in (k, k + 8, 2 * k):
                assert _widen(*_digit_bytes(value, k), k, wide) == sum(
                    c << (wide * (e + v)) for e, c in enumerate(coeffs))
    value = (top + 1) << k
    assert _coefficients(_digit_bytes(value, k)[1], k) != [top + 1]


def sparse_mul(a, b):
    """The matrix product a * b, skipping the zero entries of b."""
    nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = [[0] * len(b[0]) for _ in a]
    for i, row in enumerate(a):
        for k, x in enumerate(row):
            if x:
                for j, y in nonzero[k]:
                    out[i][j] += x * y
    return out


def fraction_det(mat):
    """Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in mat]
    n, det = len(a), Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return det


def unit_at(r, t):
    """(sign, k) with r = sign * t^k, or None when r is not of that form."""
    if r == 0:
        return None
    k = 0
    num, den = abs(r.numerator), r.denominator
    while num % t == 0:
        num, k = num // t, k + 1
    while den % t == 0:
        den, k = den // t, k - 1
    return (1 if r > 0 else -1, k) if num == den == 1 else None


def assert_alexander_matches_evaluated_blocks(b):
    """det(rho(b) - I) / (1 + t + ... + t^(m-1)) at t = 2 and 3, from
    integer-evaluated block matrices and rational elimination, is the
    Alexander polynomial times one unit +-t^k at both points."""
    m = b.strands
    delta_b = alexander_polynomial(b)
    units = set()
    for t in (2, 3):
        rho = [[int(r == c) for c in range(m - 1)] for r in range(m - 1)]
        for letter in b.letters:
            block = block_matrix(m, letter, Fraction(t), Fraction(1, t), Fraction(1), Fraction(0))
            rho = sparse_mul(rho, block)
        rhs = fraction_det([[x - (r == c) for c, x in enumerate(row)]
                            for r, row in enumerate(rho)])
        rhs /= sum(t ** e for e in range(m))
        assert rhs != 0
        delta_at_t = sum(Fraction(c) * Fraction(t) ** e for e, c in delta_b.coeffs.items())
        units.add(unit_at(rhs / delta_at_t, t))
    assert len(units) == 1 and None not in units


def random_letters(rng, m, length):
    return [rng.choice((1, -1)) * rng.randint(1, m - 1) for _ in range(length)]


def test_alexander_at_twelve_strands_against_evaluated_blocks():
    rng = random.Random(61)
    assert_alexander_matches_evaluated_blocks(word(12, random_letters(rng, 12, 100)))


def minus_identity(rows):
    """rows - I, for the rows of a square matrix of LaurentPoly entries."""
    return [[x + LaurentPoly({0: -1}) if r == c else x for c, x in enumerate(row)]
            for r, row in enumerate(rows)]


def test_alexander_at_sixteen_strands_against_evaluated_blocks():
    # Long enough that the packed digits of the determinant are wider
    # than 128 bits and the Bareiss minors carry powers of t to strip.
    rng = random.Random(73)
    b = word(16, random_letters(rng, 16, 120))
    diff = minus_identity(reduced_burau(b))
    assert coefficient_bound(diff).bit_length() + 1 > 128
    start = time.perf_counter()
    assert_alexander_matches_evaluated_blocks(b)
    assert time.perf_counter() - start < 1.0


def laurent_alexander(b):
    """The Laurent pipeline as an oracle: the decoded Burau image minus I
    in LaurentPoly arithmetic, its determinant through packed_det, which
    the Leibniz tests pin, and the division by 1 + t + ... + t^(m-1)."""
    d = packed_det(minus_identity(reduced_burau(b)))
    if not d:
        return d
    return divide_exact(d.normalized_unit(),
                        LaurentPoly({e: 1 for e in range(b.strands)})).normalized_unit()


def test_packed_alexander_against_the_laurent_pipeline():
    rng = random.Random(109)
    words = [random_word(rng, m, max_len=60) for m in range(2, 13) for _ in range(5)]
    words += [identity(m) for m in (2, 3, 6)]
    words += [word(m, [-rng.randint(1, m - 1) for _ in range(40)]) for m in (2, 4, 7)]
    words += [compose(w, inverse(w)) for w in (random_word(rng, m, max_len=30)
                                               for m in (3, 5, 8))]
    words += [bigelow_kernel_element()]
    zeros = 0
    for b in words:
        expected = laurent_alexander(b)
        assert alexander_polynomial(b) == expected
        zeros += not expected
    assert zeros >= 7


def bound_bits(b):
    """bit_length(H), H the product of the column sums of the absolute
    coefficients of rho(b) - I."""
    return coefficient_bound(minus_identity(zip(*reduced_burau(b)))).bit_length()


def test_packed_alexander_width_follows_the_bound(monkeypatch):
    # The determinant runs at bit_length(H) + 1 in whole bytes, or at the
    # Burau width k when that is wider: k on a short 3-braid, wider on a
    # long 10-braid and on the first seeded 10-braid whose bit_length(H)
    # is a multiple of 8, where the + 1 takes one more byte.
    rng = random.Random(127)
    on_a_byte = next(b for b in (word(10, random_letters(rng, 10, length))
                                 for length in range(60, 200, 2))
                     if bound_bits(b) % 8 == 0 and bound_bits(b) >= _START_WIDTH)
    widths = count_calls(monkeypatch, "_det")
    for b, widened in ((word(3, [1, 2, -1, 2]), False),
                       (word(10, random_letters(random.Random(113), 10, 100)), True),
                       (on_a_byte, True)):
        widths.clear()
        assert alexander_polynomial(b) == laurent_alexander(b)
        k = _packed_burau(b)[1]
        wide = max(k, (bound_bits(b) + 8) & ~7)
        assert [w for _, w in widths] == [wide] and (wide > k) == widened


def test_alexander_residue_with_row_swaps(monkeypatch):
    # Burau images rarely need a row swap mod p, so the elimination's
    # pivoting is checked on matrices given in place of _burau_mod_p:
    # zero pivots on and below the diagonal, against rational elimination.
    rng = random.Random(131)
    swaps = 0
    for n in range(1, 6):
        for _ in range(20):
            rows = [[rng.choice((0, 0, 1, 1, rng.randrange(P))) for _ in range(n)]
                    for _ in range(n)]
            monkeypatch.setattr(invariants, "_burau_mod_p", lambda b, rows=rows: rows)
            diff = [[x - (r == c) for c, x in enumerate(row)] for r, row in enumerate(rows)]
            swaps += n > 1 and not diff[0][0] and any(row[0] for row in diff)
            assert _alexander_residue(identity(n + 1)) == fraction_det(diff).numerator % P
    assert swaps >= 5


def test_burau_determinant_convention():
    # det(rho(sigma_i)) = -t for every generator pins the convention.
    for m in range(2, 6):
        for i in range(1, m):
            assert packed_det(reduced_burau(word(m, [i]))) == LaurentPoly({1: -1})


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
        assert not alexander_polynomial(identity(m))
    assert alexander_polynomial(word(2, [1])) == 1
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
    assert alexander_polynomial(b5) == parse_poly("t^3 - 3*t^2 + 3*t - 1")
    rederive_alex_witness(b5, fired.witness)
    # zero polynomial: no obstruction
    b1_150 = parse_braid(
        "strands=3; s1^-1 s2^-1 s1 s1^-1 s2^2 s1 s2^-5 s1^-1 s2 s1^-1 s2^-1 s1 D^2")
    assert not alexander_polynomial(b1_150)
    assert obstruction(b1_150, "alex") is None
    # e = m - 1: not applicable
    assert obstruction(word(2, [1]), "alex") is None


ALEX_WITNESS = re.compile(r"det\(rho\(t\) - I\) at t = (\d+) mod (\d+) = (\d+)")


def block_residue(b, t=37):
    """det(rho(b) - I) at t modulo 2^61 - 1, from products of the
    one-letter block matrices reduced mod p and rational elimination."""
    m = b.strands
    rho = [[int(r == c) for c in range(m - 1)] for r in range(m - 1)]
    for letter in b.letters:
        block = block_matrix(m, letter, t, pow(t, -1, P), 1, 0)
        rho = [[x % P for x in row] for row in sparse_mul(rho, block)]
    det = fraction_det([[x - (r == c) for c, x in enumerate(row)] for r, row in enumerate(rho)])
    assert det.denominator == 1
    return det.numerator % P


def rederive_alex_witness(b, witness):
    """Checks that witness gives det(rho(t) - I) at t = 37 mod 2^61 - 1,
    that it is nonzero, and that it is +-37^j * Delta(37) * (1 + 37 + ...
    + 37^(m-1)) for the Alexander polynomial Delta and some |j| <= L + m."""
    match = ALEX_WITNESS.fullmatch(witness)
    assert match, witness
    t, p, residue = map(int, match.groups())
    assert (t, p) == (37, P) and residue == block_residue(b) != 0
    delta = alexander_polynomial(b)
    value = sum(c * pow(t, e, P) for e, c in delta.coeffs.items()) * sum(
        pow(t, e, P) for e in range(b.strands)) % P
    reach = len(b.letters) + b.strands
    units = {s * pow(t, j, P) % P for s in (1, -1) for j in range(-reach, reach + 1)}
    assert residue * pow(value, -1, P) % P in units


def word_with_sum(rng, m, length, e):
    """A shuffled word on m strands of about the given length with
    exponent sum e."""
    length += (length - e) % 2
    signs = [1] * ((length + e) // 2) + [-1] * ((length - e) // 2)
    rng.shuffle(signs)
    return word(m, [s * rng.randint(1, m - 1) for s in signs])


@pytest.mark.parametrize("m", range(2, 17))
def test_alex_residue_decides_as_the_exact_polynomial(m):
    # Every e < m - 1 that obstructions(b) evaluates mod p, with the
    # fired sets of the exact-Delta rule: alex iff Delta != 0.
    rng = random.Random(1000 + m)
    for e in range(-1, m - 1):
        for length in (3 * m, 6 * m):
            b = word_with_sum(rng, m, length, e)
            residue, delta = _alexander_residue(b), alexander_polynomial(b)
            assert not residue or delta
            assert [o.test for o in obstructions(b)] == (["alex"] if delta else [])
            if residue:
                rederive_alex_witness(b, obstruction(b, "alex").witness)


def count_calls(monkeypatch, name):
    """Replaces invariants.<name> by a wrapper that lists its arguments."""
    calls, real = [], getattr(invariants, name)
    monkeypatch.setattr(invariants, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_alex_falls_back_to_delta_only_on_a_zero_residue(monkeypatch):
    fixtures = [parse_braid(f["input"]) for f in cli.load_registry()
                if "not_fires=alex" in f["expectation"]]
    rng = random.Random(107)
    halves = [random_word(rng, m, max_len=20) for m in range(2, 9)]
    zero_residue = fixtures + [compose(w, inverse(w)) for w in halves]
    assert len(fixtures) == 4
    calls = count_calls(monkeypatch, "alexander_polynomial")
    for b in zero_residue:
        calls.clear()
        assert _alexander_residue(b) == 0
        assert obstructions(b) == () and calls == [(b,)]
    b5 = parse_braid("strands=3; s1^-4 s2^2 s1^-3 s2^-1 s1 D^2")
    calls.clear()
    assert [o.test for o in obstructions(b5)] == ["alex"] and calls == []


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


# -- e = 0: the Burau certificate modulo a prime, then Garside ------------

P = (1 << 61) - 1
# p - 1 = 2 * 3^2 * 5^2 * 7 * 11 * 13 * 31 * 41 * 61 * 151 * 331 * 1321
P_MINUS_1_FACTORS = {2: 1, 3: 2, 5: 2, 7: 1, 11: 1, 13: 1, 31: 1, 41: 1, 61: 1,
                     151: 1, 331: 1, 1321: 1}
BURAU_WITNESS = re.compile(
    r"reduced Burau image at t = (\d+) mod (\d+): entry \((\d+), (\d+)\) = (\d+), not ([01])")


def evaluated_burau(b, t=37):
    """reduced_burau(b) evaluated at t modulo 2^61 - 1, entry by entry."""
    return tuple(tuple(sum(c * pow(t, e, P) for e, c in entry.coeffs.items()) % P
                       for entry in row)
                 for row in reduced_burau(b))


def first_non_identity(rows):
    """(row, column, value) of the first entry, in row-major order, that
    differs from the identity's; None for the identity."""
    return next(((r, c, v) for r, row in enumerate(rows) for c, v in enumerate(row)
                 if v != int(r == c)), None)


def rederive_burau_witness(b, witness):
    """Checks that witness names the first entry, in row-major order, at
    which reduced_burau(b) at t = 37 mod 2^61 - 1 differs from I."""
    match = BURAU_WITNESS.fullmatch(witness)
    assert match, witness
    t, p, r, c, value, diagonal = map(int, match.groups())
    assert (t, p, diagonal) == (37, P, int(r == c))
    assert first_non_identity(evaluated_burau(b)) == (r, c, value)


def bigelow_kernel_element():
    """Bigelow's 122-letter B_5 commutator in the kernel of Burau
    (Geom. Topol. 3 (1999) 397-404)."""
    psi1 = parse_braid("strands=5; s3^-1 s2 s1^2 s2 s4^3 s3 s2")
    psi2 = parse_braid("strands=5; s4^-1 s3 s2 s1^-2 s2 s1^2 s2^2 s1 s4^5")
    a = conjugate(inverse(psi1), word(5, [4]))
    b = conjugate(inverse(psi2), parse_braid("strands=5; s4 s3 s2 s1^2 s2 s3 s4"))
    return compose(compose(a, b), compose(inverse(a), inverse(b)))


def test_burau_point_generates_the_units_mod_p():
    assert (_BURAU_PRIME, _BURAU_POINT) == (P, 37)
    n = 1
    for q, k in P_MINUS_1_FACTORS.items():
        assert all(q % d for d in range(2, math.isqrt(q) + 1))  # q is prime
        n *= q ** k
    assert n == P - 1 and len(P_MINUS_1_FACTORS) == 12
    for q in P_MINUS_1_FACTORS:
        assert pow(37, (P - 1) // q, P) != 1
    assert pow(2, 61, P) == 1  # why t = 2 would not do


def test_burau_witness_rejects_a_power_that_t_equal_2_misses():
    b = word(3, [1] * 122 + [-2] * 122)
    assert not is_trivial(b)
    assert first_non_identity(evaluated_burau(b, t=2)) is None
    v = quasipositivity_verdict(b)
    assert v.status == "not_quasipositive"
    (o,) = v.obstructions
    assert o.test == "exponent_zero"
    rederive_burau_witness(b, o.witness)


def test_identity_burau_image_falls_back_to_garside():
    b = bigelow_kernel_element()
    assert len(b.letters) == 122 and exponent_sum(b) == 0
    assert reduced_burau(b) == reduced_burau(identity(5))
    assert _burau_witness(b) is None
    v = quasipositivity_verdict(b)
    assert v.status == "not_quasipositive"
    assert [(o.test, o.witness) for o in v.obstructions] == [
        ("exponent_zero", "nontrivial Garside normal form")]


def test_exponent_zero_verdict_on_every_short_three_braid():
    # Every e = 0 word of length <= 8 over s1^+-1, s2^+-1: 19,305 words.
    words = [word(3, letters) for length in range(0, 9, 2)
             for letters in itertools.product((1, -1, 2, -2), repeat=length)
             if sum(1 if x > 0 else -1 for x in letters) == 0]
    assert len(words) == 19305
    trivial = burau_witnesses = 0
    for b in words:
        v, t = quasipositivity_verdict(b), is_trivial(b)
        trivial += t
        assert v.status == ("quasipositive_certified" if t else "not_quasipositive")
        if v.obstructions and v.obstructions[0].witness.startswith("reduced Burau"):
            burau_witnesses += 1
            rederive_burau_witness(b, v.obstructions[0].witness)
    # Burau is faithful on B_3 and no entry collides mod p here, so every
    # nontrivial word is rejected before Garside.
    assert burau_witnesses == len(words) - trivial


def test_burau_mod_p_against_evaluated_reduced_burau():
    rng = random.Random(53)
    off_diagonal = 0
    for _ in range(120):
        m = rng.randint(2, 8)
        b = random_word(rng, m, max_len=40)
        image = _burau_mod_p(b)
        assert image == evaluated_burau(b)
        entry = _burau_witness(b)
        assert entry == first_non_identity(image)
        off_diagonal += entry is not None and entry[0] != entry[1]
        # the same word pushed to e = 0, through the verdict's witness
        e = exponent_sum(b)
        b0 = compose(b, word(m, [-1 if e > 0 else 1] * abs(e)))
        v = quasipositivity_verdict(b0)
        if v.obstructions and v.obstructions[0].witness.startswith("reduced Burau"):
            rederive_burau_witness(b0, v.obstructions[0].witness)
    assert off_diagonal >= 5  # a transposed entry would not go unseen


def test_exponent_sum_reported(capsys):
    text = "strands=3; s2^-7 s1 s2 D^2"
    v = quasipositivity_verdict(parse_braid(text))
    assert v.exponent_sum == 1 and v.strands == 3
    payload = v.payload()
    assert payload["status"] == "not_quasipositive"
    assert payload["obstructions"][0]["test"] == "alex"
    # the payload is what obstruct --json prints
    assert cli.main(["obstruct", "--json", text]) == 0
    assert json.loads(capsys.readouterr().out) == payload


def test_perfect_square_is_exact_at_any_size():
    assert _is_perfect_square((10**200 + 7) ** 2)
    assert not _is_perfect_square((10**200 + 7) ** 2 + 1)
    assert not _is_perfect_square(10**401)  # beyond float range
    assert _is_perfect_square(0) and _is_perfect_square(1)
    assert not _is_perfect_square(-4)


def test_square_obstruction_on_an_84_digit_determinant():
    # (s1 s2^-1)^200 s1 s2 has e = m - 1 and an 84-digit determinant,
    # far beyond what a float square-root guess can correct step by step.
    # Its degree-396 Alexander polynomial is (t - 1)^4 times a palindromic
    # rest whose half-degree polynomial h (degree 196) is squarefree with
    # 131 roots in (-2, 2), so double_alex fires too.
    b = word(3, [1, -2] * 200 + [1, 2])
    det = determinant_of_closure(b)
    assert len(str(det)) == 84
    start = time.perf_counter()
    fired = obstructions(b)
    assert time.perf_counter() - start < 1.0
    assert [o.test for o in fired] == ["double_alex", "square"]
    assert fired[0].witness == format_poly(alexander_polynomial(b))
    assert fired[1].exponent_sum == 2 and fired[1].witness == str(det)


def test_division_by_the_strand_polynomial_on_the_digits(monkeypatch, capsys):
    # _det stands in for the elimination here. On 3 strands, t^3 - 1 and
    # 1 - t^3 are exact multiples of 1 + t + t^2 and give t - 1. 1 + t has
    # degree below m - 1 = 2, and 1 + t + t^2 + t^3 leaves the remainder 1:
    # both break the Burau convention and are ConventionErrors, exit 3.
    b = parse_braid("strands=3; s1 s2")
    for coeffs, expected in (([-1, 0, 0, 1], "t - 1"), ([1, 0, 0, -1], "t - 1"),
                             ([1, 1], None), ([1, 1, 1, 1], None)):
        monkeypatch.setattr(invariants, "_det", lambda a, k: (
            0, sum(c << k * e for e, c in enumerate(coeffs))))
        if expected:
            assert format_poly(alexander_polynomial(b)) == expected
            continue
        with pytest.raises(ConventionError, match="does not divide"):
            alexander_polynomial(b)
        assert cli.main(["invariants", "strands=3; s1 s2"]) == 3
        assert "convention violation" in capsys.readouterr().err


def test_determinant_is_exact():
    # negative exponents still give an integer at t = -1
    assert _determinant(LaurentPoly({-1: 1})) == 1
    assert _determinant(parse_poly("t^2 - t + 1")) == 3
