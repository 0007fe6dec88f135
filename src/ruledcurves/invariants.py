"""
Reduced Burau representation, Alexander polynomial and determinant of a
braid closure, and the quasipositivity obstruction tests.

The obstruction tests are sound but incomplete: a braid none of them
rejects may still fail to be quasipositive. The only positive
certificate provided is triviality at exponent sum zero.
"""

from __future__ import annotations

import math
import struct
from typing import NamedTuple

from .braid import BraidWord, exponent_sum, is_trivial
from .laurent import (
    LaurentPoly,
    divide_exact,  # noqa: F401 -- perfbench/tracing.py wraps it in this namespace
    format_poly,
    has_simple_unit_circle_root,
)

class ConventionError(RuntimeError):
    """An invariant computation hit an identity that the chosen Burau
    convention guarantees; signals a bug, not bad input."""


# The digit width, in bits, that _packed_burau starts from, and the bits
# it leaves free above the column bounds whenever it widens the digits.
_START_WIDTH = 64
_SPARE_BITS = 64


def _fits(bound: int, k: int) -> bool:
    """Whether every integer of absolute value at most bound is a
    balanced base-2^k digit, that is bound < 2^(k-1)."""
    return bound.bit_length() < k


def _halves(count: int, width: int, stride: int) -> int:
    """sum over e < count of 2^(8 width - 1) * 2^(8 stride e): the half
    of a width-byte digit in each of count digits of stride bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80" + bytes(stride - width)) * count,
                          "little")


def _digit_bytes(value: int, k: int) -> tuple[int, bytes]:
    """(v, raw) for value = X^v * sum_e c_e X^e with X = 2^k, k a multiple
    of 8, every |c_e| < X/2 and c_0 != 0 (v = 0 for zero). raw holds the
    little-endian bytes of sum_e (c_e + X/2) X^e, k/8 bytes a digit;
    every shifted digit lies in 0..X-1, so no digit carries into the
    next. c_0 != 0 with |c_0| < X/2 leaves fewer than k trailing zero
    bits below it, and |value / X^v| > X^top / 2 for the top digit, so v
    and the digit count come from the bit counts."""
    width = k >> 3
    v = ((value & -value).bit_length() - 1) // k if value else 0
    value >>= k * v
    count = value.bit_length() // k + 1
    return v, (value + _halves(count, width, width)).to_bytes(count * width, "little")


def _coefficients(raw: bytes, k: int) -> list[int]:
    """The balanced digits c_e of _digit_bytes, lowest first."""
    width, half, from_bytes = k >> 3, 1 << (k - 1), int.from_bytes
    if width == 8:
        return [d - half for d in struct.unpack(f"<{len(raw) >> 3}Q", raw)]
    return [from_bytes(raw[i:i + width], "little") - half
            for i in range(0, len(raw), width)]


def _widen(v: int, raw: bytes, k: int, wide: int) -> int:
    """The integer that _digit_bytes took to (v, raw) at width k, packed
    again at width wide >= k: each digit's bytes move into a digit of
    wide/8 bytes, by one strided copy per byte of the old width."""
    width, stride = k >> 3, wide >> 3
    count = len(raw) // width
    out = bytearray(count * stride)
    for j in range(width):
        out[j::stride] = raw[j::width]
    return (int.from_bytes(out, "little") - _halves(count, width, stride)) << (wide * v)


def _decoded(value: int, k: int, low: int) -> LaurentPoly:
    """The Laurent polynomial whose balanced base-2^k digits value holds,
    the lowest at exponent low."""
    v, raw = _digit_bytes(value, k)
    return LaurentPoly(dict(enumerate(_coefficients(raw, k), low + v)))


def _packed_burau(b: BraidWord) -> tuple[int, int, list[list[int]]]:
    """(low, k, columns) with columns[c][r] = X^-low * p(X), X = 2^k, for
    the entry p at row r and column c of reduced_burau(b), and -low the
    number of inverse letters of b (Kronecker substitution).

    Acting on the right, sigma_i sets column i-1 to t*(x - y) + z and
    sigma_i^-1 to x + t^-1*(z - y), with x, y, z the old columns i-2,
    i-1, i (zero outside 0..m-2). Multiplying by t is a left shift by k
    bits, so these are ((x - y) << k) + z and x + ((z - y) >> k). The
    right shift is exact: after j inverse letters every entry has
    exponents >= -j, so while one is still to come (j < -low) t^-low
    times each entry, and so z - y, is a polynomial divisible by t, and
    its integer is divisible by X.

    Width. bounds[c] bounds the absolute coefficients of column c, and a
    letter on column c sets bounds[c] to bounds[c-1] + bounds[c] +
    bounds[c+1]. While every bound is below X/2 (_fits), every entry's
    base-X digits, taken balanced, are its coefficients. That bound
    grows exponentially in the length, far faster than the coefficients
    (after 200 random letters on 3 strands: 113-117 bits against 19-31).
    So when a letter would take its column's bound to X/2, every entry
    is decoded exactly (the old bounds still hold), the bounds are reset
    to the columns' true largest coefficients, and k grows, in whole
    bytes, to leave _SPARE_BITS free above the largest bound.

    Cost. An entry has at most L + 1 digits for L letters, so a letter
    costs O(m) additions and shifts of O(L * k)-bit integers, with k
    within _SPARE_BITS + 9 bits of the largest coefficient met so far,
    or _START_WIDTH. The largest bound at most triples per letter, so
    at least (_SPARE_BITS - 1) / log2(3) letters pass between two
    re-tightenings, each of which decodes the (m-1)^2 entries in
    O(m^2 * L) digit steps."""
    n, k = b.strands - 1, _START_WIDTH
    low = -sum(letter < 0 for letter in b.letters)
    one, zero = 1 << (k * -low), [0] * n
    # cols[c] and bounds[c] are column c-1; the zero columns 0 and n+1
    # stand for the neighbours outside 0..m-2.
    cols = [zero, *([one if r == c else 0 for r in range(n)] for c in range(n)), zero]
    bounds = [0, *[1] * n, 0]
    for letter in b.letters:
        i = abs(letter)
        bound = bounds[i - 1] + bounds[i] + bounds[i + 1]
        if not _fits(bound, k):
            digits = [[_digit_bytes(x, k) for x in col] for col in cols[1:-1]]
            for c, col in enumerate(digits, 1):
                coeffs = [d for _, raw in col for d in _coefficients(raw, k)]
                bounds[c] = max(max(coeffs), -min(coeffs))
            bound = bounds[i - 1] + bounds[i] + bounds[i + 1]
            wide = max(k, (max(bound, *bounds).bit_length() + _SPARE_BITS + 7) & ~7)
            cols[1:-1] = [[_widen(v, raw, k, wide) for v, raw in col] for col in digits]
            k = wide
        bounds[i] = bound
        if letter > 0:
            cols[i] = [((x - y) << k) + z for x, y, z in zip(cols[i - 1], cols[i], cols[i + 1])]
        else:
            cols[i] = [x + ((z - y) >> k) for x, y, z in zip(cols[i - 1], cols[i], cols[i + 1])]
    return low, k, cols[1:-1]


def reduced_burau(b: BraidWord) -> tuple[tuple[LaurentPoly, ...], ...]:
    """Reduced Burau image of b in B_m, an (m-1)x(m-1) matrix.

    Block convention: sigma_i is the identity except for column i-1
    (0-based k), which holds t, -t, 1 at rows k-1, k, k+1 (rows outside
    0..m-2 dropped), i.e. the block [[1,t,0],[0,-t,0],[0,1,1]] at rows
    and columns i-1..i+1; sigma_i^-1 holds 1, -t^-1, t^-1 there. Every
    generator has determinant -t. The product is built letter by letter
    as the generator's action on the right, which rewrites one column,
    on Kronecker-packed integers (_packed_burau); each entry is decoded
    once at the end, in O(L) digit steps for L letters."""
    low, k, cols = _packed_burau(b)
    return tuple(zip(*([_decoded(x, k, low) for x in col] for col in cols)))


# The point at which _burau_mod_p evaluates t. 2^61 - 1 is prime, and 37
# generates its multiplicative group, so t^s = 1 only when p - 1 divides
# s. At t = 2, of order 61, the nontrivial sigma_1^122 sigma_2^-122 in
# B_3 maps to I.
_BURAU_PRIME = (1 << 61) - 1
_BURAU_POINT = 37
_BURAU_POINT_INVERSE = pow(_BURAU_POINT, -1, _BURAU_PRIME)


def _burau_mod_p(b: BraidWord) -> tuple[tuple[int, ...], ...]:
    """reduced_burau(b) with t = _BURAU_POINT, reduced modulo
    _BURAU_PRIME, entry by entry, in the same layout.

    The same column action as _packed_burau, with t and t^-1 replaced by
    their residues: O(m) small-integer operations per letter and no
    polynomial arithmetic. Evaluation at an invertible residue is a ring
    homomorphism from Z[t, t^-1] to Z/_BURAU_PRIME, so this is the image
    of b in GL_{m-1}(Z/_BURAU_PRIME)."""
    n, p, t, t_inv = b.strands - 1, _BURAU_PRIME, _BURAU_POINT, _BURAU_POINT_INVERSE
    zero = [0] * n
    # cols[i] is column i-1; the zero columns 0 and n+1 stand for the
    # neighbours outside 0..m-2.
    cols = [zero, *([int(r == c) for r in range(n)] for c in range(n)), zero]
    for letter in b.letters:
        i = abs(letter)
        if letter > 0:
            cols[i] = [(t * (x - y) + z) % p for x, y, z in zip(cols[i - 1], cols[i], cols[i + 1])]
        else:
            cols[i] = [(x + t_inv * (z - y)) % p
                       for x, y, z in zip(cols[i - 1], cols[i], cols[i + 1])]
    return tuple(zip(*cols[1:-1]))


def _burau_witness(b: BraidWord) -> tuple[int, int, int] | None:
    """The first entry (row, column, value), in row-major order, at which
    _burau_mod_p(b) differs from the identity; None when it is I. Such an
    entry proves b nontrivial, since _burau_mod_p is a homomorphism."""
    for r, row in enumerate(_burau_mod_p(b)):
        for c, value in enumerate(row):
            if value != int(r == c):
                return r, c, value
    return None


def _alexander_residue(b: BraidWord) -> int:
    """det(_burau_mod_p(b) - I), the image of det(rho(b) - I) at t =
    _BURAU_POINT in Z/_BURAU_PRIME, by Gaussian elimination in O(m^3)."""
    p = _BURAU_PRIME
    a = [[(x - (r == c)) % p for c, x in enumerate(row)] for r, row in enumerate(_burau_mod_p(b))]
    n, det = len(a), 1
    for s in range(n):
        q = next((i for i in range(s, n) if a[i][s]), None)
        if q is None:
            return 0
        if q != s:
            a[s], a[q], det = a[q], a[s], -det
        row = a[s]
        det = det * row[s] % p
        inverse = pow(row[s], -1, p)
        for i in range(s + 1, n):
            if f := a[i][s] * inverse % p:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], row)]
    return det


def _det(a: list[list[tuple[int, int]]], k: int) -> tuple[int, int]:
    """(v, q(X)) for the determinant t^v * q(t) of the square matrix a,
    X = 2^k, by fraction-free Bareiss elimination (Bareiss 1968) on
    Kronecker-packed Python integers (Harvey, J. Symbolic Comput. 44
    (2009) 1502-1510); a is overwritten.

    Representation. An entry t^v * p(t), with p in Z[t] and p(0) != 0,
    is the pair (v, p(X)); zero is (v, 0) for any v. With |p|_1 the sum
    of p's absolute coefficients, k must make H < X/2 for H the product
    over rows (or columns) of max(1, sum_j |a_ij|_1). A product adds
    valuations and multiplies the integers; a difference shifts the term
    of higher valuation left by k bits per unit of gap; the division by
    the previous pivot (1 at first) is exact integer division. Each new
    nonzero entry moves its trailing zero digits (factors of t) into its
    valuation.

    Exactness. After step s every remaining entry is an (s+2)-minor of
    the row-permuted matrix (Sylvester's identity), so each division is
    exact in Z[t, t^-1]. The divisor t^w q was stripped, so q(0) != 0,
    and the numerator is t^v p with p in Z[t]; hence p = q r with r in
    Z[t], and since evaluation at X is a ring homomorphism, p(X) // q(X)
    is exact and equals r(X). Every coefficient of a minor is at most its
    |.|_1, which the Leibniz expansion bounds by the product of its rows'
    (or columns') sums, and so by H < X/2. Hence for a minor t^v r: r = 0
    iff r(X) = 0; t divides r iff X divides r(X), since the lowest
    nonzero coefficient c of r has 0 < |c| < X/2 and puts at most k - 2
    trailing zero bits below its digit; and the balanced base-X digits
    of r(X) are the coefficients of r. Only minors are zero-tested,
    stripped or decoded; no numerator is inspected before its division.

    Cost. O(n^3) products (Karatsuba in CPython) and exact divisions
    (schoolbook) of about (d + 1) * k bits, d the widest minor's span."""
    n, negate, prev_low, prev = len(a), False, 0, 1
    for s in range(n):
        p = next((i for i in range(s, n) if a[i][s][1]), None)
        if p is None:
            return 0, 0
        if p != s:
            a[s], a[p], negate = a[p], a[s], not negate
        row = a[s]
        pivot_low, pivot = row[s]
        for i in range(s + 1, n):
            ai = a[i]
            lead_low, lead = ai[s]
            for j in range(s + 1, n):
                x_low, x = ai[j]
                y_low, y = row[j]
                x, x_low = x * pivot, x_low + pivot_low
                y, y_low = y * lead, y_low + lead_low
                if not y:
                    low, num = x_low, x
                elif not x:
                    low, num = y_low, -y
                elif x_low <= y_low:
                    low, num = x_low, x - (y << k * (y_low - x_low))
                else:
                    low, num = y_low, (x << k * (x_low - y_low)) - y
                if num:
                    num, low = num // prev, low - prev_low
                    zeros = ((num & -num).bit_length() - 1) // k
                    num, low = num >> k * zeros, low + zeros
                ai[j] = low, num
        prev_low, prev = pivot_low, pivot
    return prev_low, -prev if negate else prev


def alexander_polynomial(b: BraidWord) -> LaurentPoly:
    """Alexander polynomial of the closure of b, unit-normalised; 0 when
    det(rho(b) - I) vanishes. The division by 1 + t + ... + t^(m-1) must
    be exact, otherwise the representation convention is broken.

    rho(b) - I goes to _det packed and transposed, I being X^-low on the
    diagonal (a digit >= -X/2 still decodes). Each entry is decoded once,
    for the column sums giving H; _det runs at max(k, bit_length(H) + 1 in
    whole bytes), via _widen. The determinant's digits det_0..det_D, by the
    same codec, are divided there: (1 - t) det = Delta (1 - t^m) gives
    Delta_j = det_j - det_(j-1) + Delta_(j-m), exact iff D >= m - 1 and the
    m terms after Delta_(D-m+1) vanish. det_0 != 0, so only the sign is set."""
    m = b.strands
    low, k, cols = _packed_burau(b)
    one = 1 << k * -low
    diff = [[x - one if r == c else x for r, x in enumerate(col)] for c, col in enumerate(cols)]
    digits = [[_digit_bytes(x, k) for x in col] for col in diff]
    bound = math.prod(max(1, sum(sum(map(abs, _coefficients(raw, k))) for _, raw in col))
                      for col in digits)
    wide = max(k, (bound.bit_length() + 8) & ~7)
    if wide == k:
        a = [[(low + v, x >> k * v) for x, (v, _) in zip(xs, ds)] for xs, ds in zip(diff, digits)]
    else:
        a = [[(low + v, _widen(0, raw, k, wide)) for v, raw in ds] for ds in digits]
    d = _det(a, wide)[1]
    if not d:
        return LaurentPoly()
    det = _coefficients(_digit_bytes(d, wide)[1], wide)
    delta = [x - y for x, y in zip(det + [0], [0] + det)]
    for j in range(m, len(delta)):
        delta[j] += delta[j - m]
    if any(delta[-m:]):
        raise ConventionError(
            f"1 + t + ... + t^{m - 1} does not divide det(rho(b) - I) of degree {len(det) - 1}")
    return LaurentPoly({e: c if delta[-m - 1] > 0 else -c for e, c in enumerate(delta[:-m])})


def _determinant(p: LaurentPoly) -> int:
    """|p(-1)|, the alternating sum of p's coefficients by exponent parity:
    the determinant of the closure when p is its Alexander polynomial."""
    return abs(sum(-c if e & 1 else c for e, c in p.coeffs.items()))


def determinant_of_closure(b: BraidWord) -> int:
    """|Delta(-1)| for the closure's Alexander polynomial Delta."""
    return _determinant(alexander_polynomial(b))


def _is_perfect_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


class Obstruction(NamedTuple):
    """A fired quasipositivity obstruction, with a reproducible witness. A
    named tuple, equal to the plain 4-tuple of its fields."""

    test: str
    strands: int
    exponent_sum: int
    witness: str


def obstructions(b: BraidWord) -> tuple[Obstruction, ...]:
    """The obstruction tests that fire on b, in the order alex,
    double_alex, square, each applicable at one exponent sum:
    - alex, e(b) < m-1: the Alexander polynomial is nonzero
      (quasipositive braids with small exponent sum have vanishing
      Alexander polynomial);
    - double_alex, e(b) = m-1: the Alexander polynomial has a simple root
      on the unit circle (for quasipositive braids at this exponent sum
      every unit-circle root has order at least two);
    - square, e(b) = m-1: |Delta(-1)| is not a perfect square.
    alex first tries det(rho(t) - I) = +-t^j Delta (1 + ... + t^(m-1)) at a
    point mod a prime (_alexander_residue); a nonzero residue proves Delta
    != 0 and is the witness. Else, and at e(b) = m-1, Delta is computed once."""
    return _obstructions(b, b.strands, exponent_sum(b))


def _obstructions(b: BraidWord, m: int, e: int) -> tuple[Obstruction, ...]:
    """obstructions(b), given its strand count m and exponent sum e."""
    if e > m - 1:
        return ()
    if e < m - 1:
        residue = _alexander_residue(b)
        if residue:
            return (Obstruction("alex", m, e, f"det(rho(t) - I) at t = {_BURAU_POINT}"
                                              f" mod {_BURAU_PRIME} = {residue}"),)
        p = alexander_polynomial(b)
        return (Obstruction("alex", m, e, format_poly(p)),) if p else ()
    p = alexander_polynomial(b)
    fired = []
    if p and has_simple_unit_circle_root(p):
        fired.append(Obstruction("double_alex", m, e, format_poly(p)))
    det = _determinant(p)
    if not _is_perfect_square(det):
        fired.append(Obstruction("square", m, e, str(det)))
    return tuple(fired)


class QuasipositivityVerdict(NamedTuple):
    """Outcome of the obstruction suite on one braid word; a named tuple,
    equal to the plain 5-tuple of its fields.

    status is one of "not_quasipositive", "quasipositive_certified",
    "unknown". Not-quasipositive verdicts carry every obstruction that
    fired; the certified verdict only arises from triviality at e = 0.
    """

    status: str
    strands: int
    exponent_sum: int
    obstructions: tuple[Obstruction, ...] = ()
    note: str = ""

    def payload(self) -> dict:
        """The verdict as ``obstruct --json`` prints it: a dict of its
        fields, each obstruction a dict too."""
        return dict(self._asdict(), obstructions=[o._asdict() for o in self.obstructions])


def quasipositivity_verdict(b: BraidWord) -> QuasipositivityVerdict:
    """The verdict of the obstruction suite on b, with e = e(b) its
    exponent sum and m its strand count.

    - e < 0: not quasipositive (negative_exponent), since a product of
      conjugates of positive generators has e >= 0.
    - e = 0: a quasipositive braid is then the empty product, so b is
      quasipositive exactly when it is trivial. Two steps decide it:
      1. The reduced Burau image modulo a prime (_burau_witness), in
         O(m * L) small-integer operations for L letters. An entry that
         differs from I proves b nontrivial, because evaluation at t is
         a ring homomorphism. The verdict is exponent_zero, and its
         witness names the prime, t and the entry, 0-based in
         reduced_burau(b).
      2. Only an identity image goes to the Garside normal form
         (is_trivial), O(k^2) pair steps for k factors. That step is
         needed: Burau is not faithful for m >= 5, and distinct Laurent
         entries can agree modulo the prime. It certifies a trivial b or
         gives exponent_zero with the witness "nontrivial Garside normal
         form".
    - e > 0: not quasipositive when an Alexander test fires
      (obstructions), unknown otherwise."""
    e = exponent_sum(b)
    m = b.strands
    if e == 0:
        entry = _burau_witness(b)
        if entry is None and is_trivial(b):
            return QuasipositivityVerdict(
                "quasipositive_certified", m, e, note="trivial braid with e = 0")
        if entry is None:
            witness = "nontrivial Garside normal form"
        else:
            r, c, value = entry
            witness = (f"reduced Burau image at t = {_BURAU_POINT} mod {_BURAU_PRIME}:"
                       f" entry ({r}, {c}) = {value}, not {int(r == c)}")
        return QuasipositivityVerdict(
            "not_quasipositive", m, e, (Obstruction("exponent_zero", m, e, witness),),
            note="a quasipositive braid with e = 0 is trivial")
    if e < 0:
        return QuasipositivityVerdict(
            "not_quasipositive", m, e,
            (Obstruction("negative_exponent", m, e, str(e)),),
            note="quasipositive braids have e >= 0")
    fired = _obstructions(b, m, e)
    if fired:
        return QuasipositivityVerdict("not_quasipositive", m, e, fired)
    note = "" if e != 1 else "e = 1 noted; obstruction suite is sound but incomplete"
    return QuasipositivityVerdict("unknown", m, e, note=note)
