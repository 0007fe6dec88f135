"""Independent output checks that share no arithmetic with the program.

The Alexander check re-derives the reduced Burau representation from
its documented block convention at integer points t = 2, 3, 5, 7, using
only Python integers and ``Fraction``. It does not import
``ruledcurves.laurent``.
"""

from __future__ import annotations

import math
from fractions import Fraction

POINTS = (2, 3, 5, 7)


def _generator_column(m: int, i: int, t: int) -> list[int]:
    """Column i-1 of the Burau image of sigma_i, the only column that
    differs from the identity: -t on the diagonal, t above, 1 below."""
    n, k = m - 1, i - 1
    col = [0] * n
    col[k] = -t
    if k >= 1:
        col[k - 1] = t
    if k + 1 < n:
        col[k + 1] = 1
    return col


def _scaled_inverse_column(m: int, i: int, t: int) -> list[int]:
    """Column i-1 of t * sigma_i^-1, solved from sigma_i x = t e_k.

    sigma_i is the identity outside column k, so row k reads
    col[k] x_k = t and every other row r reads x_r + col[r] x_k = 0."""
    col = _generator_column(m, i, t)
    k = i - 1
    x_k = Fraction(t, col[k])
    x = [-c * x_k for c in col]
    x[k] = x_k
    if any(v.denominator != 1 for v in x):
        raise ArithmeticError("t * sigma_i^-1 is not integral")
    return [int(v) for v in x]


def burau_scaled(m: int, letters, t: int) -> tuple[list[list[int]], int]:
    """(M, k) with rho(b)(t) = M / t^k and M an integer matrix."""
    n = m - 1
    mat = [[int(r == c) for c in range(n)] for r in range(n)]
    cols = {}
    k = 0
    for letter in letters:
        i = abs(letter)
        key = (i, letter > 0)
        if key not in cols:
            cols[key] = (_generator_column(m, i, t) if letter > 0
                         else _scaled_inverse_column(m, i, t))
        g = cols[key]
        j = i - 1
        rows = range(max(0, j - 1), min(n, j + 2))
        new_col = [sum(row[r] * g[r] for r in rows) for row in mat]
        if letter < 0:
            # every other column of t * sigma_i^-1 is t times the identity
            mat = [[v * t for v in row] for row in mat]
            k += 1
        for row, v in zip(mat, new_col):
            row[j] = v
    return mat, k


def det_fraction(mat: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [list(map(Fraction, row)) for row in mat]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] * inv
            if f:
                for cc in range(c, n):
                    a[r][cc] -= f * a[c][cc]
    return det


def _unit_exponent(value: Fraction, t: int) -> int | None:
    """j with |value| == t^j, or None."""
    num, den = abs(value.numerator), value.denominator
    if den == 1:
        j = round(math.log(num, t)) if num > 0 else 0
        return j if t ** j == num else None
    if num == 1:
        j = round(math.log(den, t))
        return -j if t ** j == den else None
    return None


def check_alexander(m: int, letters, coeffs: dict[int, int]) -> str | None:
    """None when det(rho(b) - I) = +-t^j (1 + ... + t^(m-1)) Delta(t) at
    every point with one sign and one j; otherwise the reason. A point
    where Delta has a root carries no unit and is skipped."""
    units = set()
    for t in POINTS:
        mat, k = burau_scaled(m, letters, t)
        scale = t ** k
        shifted = [[Fraction(v - (scale if r == c else 0), scale) for c, v in enumerate(row)]
                   for r, row in enumerate(mat)]
        det = det_fraction(shifted)
        delta = sum(Fraction(c) * Fraction(t) ** e for e, c in coeffs.items())
        expected = delta * sum(t ** e for e in range(m))
        if expected == 0 or det == 0:
            if expected != det:
                return f"t={t}: det(rho-I)={det} but (1+..+t^{m - 1})*Delta={expected}"
            continue
        ratio = det / expected
        j = _unit_exponent(ratio, t)
        if j is None:
            return f"t={t}: det(rho-I)/((1+..+t^{m - 1})*Delta) = {ratio} is not +-t^j"
        units.add((ratio > 0, j))
    if len(units) > 1:
        return f"unit factor differs between points: {sorted(units)}"
    if not units and coeffs:
        return f"Delta vanishes at every point {POINTS}; nothing was checked"
    return None


def check_normalised(coeffs: dict[int, int]) -> str | None:
    """The Alexander polynomial is returned with lowest exponent 0 and a
    positive leading coefficient (0 stays 0)."""
    if coeffs and (min(coeffs) != 0 or coeffs[max(coeffs)] < 0):
        return "Alexander polynomial is not unit-normalised"
    return None


def is_perfect_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def determinant(coeffs: dict[int, int]) -> int:
    """|Delta(-1)| from the coefficients of Delta."""
    return abs(sum(c if e % 2 == 0 else -c for e, c in coeffs.items()))
