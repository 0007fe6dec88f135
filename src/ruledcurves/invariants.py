"""
Reduced Burau representation, Alexander polynomial and determinant of a
braid closure, and the quasipositivity obstruction tests.

The obstruction tests are sound but incomplete: a braid none of them
rejects may still fail to be quasipositive. The only positive
certificate provided is triviality at exponent sum zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .braid import BraidWord, exponent_sum, is_trivial
from .laurent import (
    LaurentError,
    LaurentPoly,
    divide_exact,
    format_poly,
    has_simple_unit_circle_root,
)

Matrix = tuple[tuple[LaurentPoly, ...], ...]


class ConventionError(RuntimeError):
    """An invariant computation hit an identity that the chosen Burau
    convention guarantees; signals a bug, not bad input."""


def _identity_matrix(n: int) -> Matrix:
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    zero = LaurentPoly.zero()
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for k in range(n):
                if a[i][k].coeffs and b[k][j].coeffs:
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


@lru_cache(maxsize=None)
def _generator_matrix(m: int, i: int, sign: int) -> Matrix:
    """Reduced Burau image of sigma_i^sign in B_m, an (m-1)x(m-1) matrix.

    Block convention (2 <= i <= m-2 gets the 3x3 block [[1,t,0],[0,-t,0],
    [0,1,1]] at rows/columns i-1..i+1; the first and last generators get
    the corresponding 2x2 corners). Every generator has determinant -t.
    """
    n = m - 1
    t = LaurentPoly.t()
    one = LaurentPoly.one()
    minus_t = LaurentPoly.term(-1, 1)
    rows = [[LaurentPoly.one() if r == c else LaurentPoly.zero() for c in range(n)]
            for r in range(n)]
    k = i - 1  # 0-based row of the -t diagonal entry
    rows[k][k] = minus_t
    if k - 1 >= 0:
        rows[k - 1][k] = t
    if k + 1 < n:
        rows[k + 1][k] = one
    mat = tuple(tuple(row) for row in rows)
    if sign > 0:
        return mat
    # Inverse block: the diagonal entry becomes -t^-1, neighbours adjust.
    inv_rows = [[LaurentPoly.one() if r == c else LaurentPoly.zero() for c in range(n)]
                for r in range(n)]
    inv_rows[k][k] = LaurentPoly.term(-1, -1)
    if k - 1 >= 0:
        inv_rows[k - 1][k] = LaurentPoly.one()
    if k + 1 < n:
        inv_rows[k + 1][k] = LaurentPoly.term(1, -1)
    return tuple(tuple(row) for row in inv_rows)


def reduced_burau(b: BraidWord) -> Matrix:
    mat = _identity_matrix(b.strands - 1)
    for letter in b.letters:
        mat = mat_mul(mat, _generator_matrix(b.strands, abs(letter), 1 if letter > 0 else -1))
    return mat


def _det(mat: Matrix) -> LaurentPoly:
    """Exact determinant by Laplace expansion memoised over column subsets."""
    n = len(mat)
    if n == 0:
        return LaurentPoly.one()
    memo: dict[tuple[int, ...], LaurentPoly] = {(): LaurentPoly.one()}

    def minor(cols: tuple[int, ...]) -> LaurentPoly:
        if cols in memo:
            return memo[cols]
        row = n - len(cols)
        acc = LaurentPoly.zero()
        for pos, c in enumerate(cols):
            entry = mat[row][c]
            if entry.coeffs:
                sub = minor(cols[:pos] + cols[pos + 1:])
                term = entry * sub
                acc = acc + (term if pos % 2 == 0 else -term)
        memo[cols] = acc
        return acc

    return minor(tuple(range(n)))


def alexander_polynomial(b: BraidWord) -> LaurentPoly:
    """Alexander polynomial of the closure of b, unit-normalised; 0 when
    det(rho(b) - I) vanishes. The division by 1 + t + ... + t^(m-1) must
    be exact, otherwise the representation convention is broken."""
    m = b.strands
    mat = reduced_burau(b)
    diff = tuple(
        tuple(mat[i][j] - (LaurentPoly.one() if i == j else LaurentPoly.zero())
              for j in range(m - 1))
        for i in range(m - 1)
    )
    d = _det(diff)
    if d.is_zero():
        return LaurentPoly.zero()
    divisor = LaurentPoly({e: 1 for e in range(m)})
    try:
        quotient = divide_exact(d.normalized_unit(), divisor)
    except LaurentError as exc:
        raise ConventionError(
            f"Alexander normalisation divisor does not divide det(rho(b)-I): {exc}"
        ) from exc
    return quotient.normalized_unit()


def _determinant(p: LaurentPoly) -> int:
    """|p(-1)|: the determinant of the closure when p is its Alexander
    polynomial."""
    value = p.eval_at(-1)
    if value.denominator != 1:
        raise ConventionError(f"Delta(-1) = {value} is not an integer")
    return abs(int(value))


def determinant_of_closure(b: BraidWord) -> int:
    """|Delta(-1)| for the closure's Alexander polynomial Delta."""
    return _determinant(alexander_polynomial(b))


def _is_perfect_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


@dataclass(frozen=True)
class Obstruction:
    """A fired quasipositivity obstruction, with a reproducible witness."""

    test: str
    strands: int
    exponent_sum: int
    witness: str

    def as_dict(self) -> dict:
        return {
            "test": self.test,
            "strands": self.strands,
            "exponent_sum": self.exponent_sum,
            "witness": self.witness,
        }


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
    The Alexander polynomial is computed at most once."""
    m, e = b.strands, exponent_sum(b)
    if e > m - 1:
        return ()
    p = alexander_polynomial(b)
    if e < m - 1:
        return () if p.is_zero() else (Obstruction("alex", m, e, format_poly(p)),)
    fired = []
    if not p.is_zero() and has_simple_unit_circle_root(p):
        fired.append(Obstruction("double_alex", m, e, format_poly(p)))
    det = _determinant(p)
    if not _is_perfect_square(det):
        fired.append(Obstruction("square", m, e, str(det)))
    return tuple(fired)


@dataclass(frozen=True)
class QuasipositivityVerdict:
    """Outcome of the obstruction suite on one braid word.

    status is one of "not_quasipositive", "quasipositive_certified",
    "unknown". Not-quasipositive verdicts carry every obstruction that
    fired; the certified verdict only arises from triviality at e = 0.
    """

    status: str
    strands: int
    exponent_sum: int
    obstructions: tuple[Obstruction, ...] = ()
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "strands": self.strands,
            "exponent_sum": self.exponent_sum,
            "obstructions": [o.as_dict() for o in self.obstructions],
            "note": self.note,
        }


def quasipositivity_verdict(b: BraidWord) -> QuasipositivityVerdict:
    e = exponent_sum(b)
    m = b.strands
    if e == 0:
        if is_trivial(b):
            return QuasipositivityVerdict(
                "quasipositive_certified", m, e, note="trivial braid with e = 0")
        return QuasipositivityVerdict(
            "not_quasipositive", m, e,
            (Obstruction("exponent_zero", m, e,
                         "nontrivial Garside normal form"),),
            note="a quasipositive braid with e = 0 is trivial")
    if e < 0:
        return QuasipositivityVerdict(
            "not_quasipositive", m, e,
            (Obstruction("negative_exponent", m, e, str(e)),),
            note="quasipositive braids have e >= 0")
    fired = obstructions(b)
    if fired:
        return QuasipositivityVerdict("not_quasipositive", m, e, fired)
    note = "" if e != 1 else "e = 1 noted; obstruction suite is sound but incomplete"
    return QuasipositivityVerdict("unknown", m, e, note=note)


def burau_determinant_check(m: int) -> bool:
    """det(rho(sigma_i)) = -t for every generator; pins the convention."""
    minus_t = LaurentPoly.term(-1, 1)
    for i in range(1, m):
        if _det(_generator_matrix(m, i, 1)) != minus_t:
            return False
    return True


__all__ = [
    "ConventionError",
    "Obstruction",
    "QuasipositivityVerdict",
    "alexander_polynomial",
    "burau_determinant_check",
    "mat_mul",
    "determinant_of_closure",
    "obstructions",
    "quasipositivity_verdict",
    "reduced_burau",
]
