"""
Exact integer Laurent polynomials in one variable t.

A polynomial is stored as a sparse mapping exponent -> coefficient with no
zero coefficients; the zero polynomial is the empty mapping. Coefficients
are Python ints, so nothing ever overflows. The textual form is the one
used throughout the CLI and fixture files, e.g.

    t^5 - 2*t^4 + 2*t^3 - 2*t^2 + 2*t - 1

with possibly negative exponents (t^-2). The parser additionally accepts
products of parenthesised factors with integer powers, e.g.
(t-1)^3*(t^2+1), which keeps fixture files close to factored values.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np


class LaurentError(ValueError):
    pass


class LaurentPoly:
    """An integer Laurent polynomial, immutable after construction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        clean = {e: c for e, c in (coeffs or {}).items() if c != 0}
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> LaurentPoly:
        return LaurentPoly({})

    @staticmethod
    def one() -> LaurentPoly:
        return LaurentPoly({0: 1})

    @staticmethod
    def term(coeff: int, exp: int = 0) -> LaurentPoly:
        return LaurentPoly({exp: coeff})

    @staticmethod
    def t() -> LaurentPoly:
        return LaurentPoly({1: 1})

    # -- basics -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.term(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.coeffs.items())))

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self)!r})"

    def lowest_exp(self) -> int:
        """Valuation; raises on the zero polynomial."""
        if not self.coeffs:
            raise LaurentError("zero polynomial has no lowest exponent")
        return min(self.coeffs)

    def highest_exp(self) -> int:
        if not self.coeffs:
            raise LaurentError("zero polynomial has no highest exponent")
        return max(self.coeffs)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self.coeffs.items()})
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                k = e1 + e2
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> LaurentPoly:
        if k < 0:
            raise LaurentError("negative powers of polynomials are not defined")
        acc = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by t^k."""
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    # -- evaluation and normalisation ----------------------------------

    def eval_at(self, x: int) -> Fraction:
        """Exact evaluation at a nonzero integer; a Fraction in general
        (an integer whenever there are no negative exponents)."""
        if x == 0:
            raise LaurentError("evaluation point must be nonzero")
        total = Fraction(0)
        for e, c in self.coeffs.items():
            total += Fraction(c) * (Fraction(x) ** e)
        return total

    def normalized_unit(self) -> LaurentPoly:
        """Multiply by a unit ±t^k so that the lowest exponent is 0 and the
        coefficient of the highest exponent is positive; 0 maps to 0."""
        if not self.coeffs:
            return self
        shifted = self.shift(-self.lowest_exp())
        if shifted.coeffs[shifted.highest_exp()] < 0:
            shifted = -shifted
        return shifted

    def derivative(self) -> LaurentPoly:
        return LaurentPoly({e - 1: e * c for e, c in self.coeffs.items() if e != 0})

    def dense_int_coeffs(self) -> list[int]:
        """Coefficients of the unit-normalised polynomial from degree 0 up."""
        p = self.normalized_unit()
        if not p.coeffs:
            return []
        return [p.coeffs.get(e, 0) for e in range(0, p.highest_exp() + 1)]


def divide_exact(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Return r with r*q == p, or raise LaurentError if no Laurent
    polynomial with integer coefficients does the job."""
    if q.is_zero():
        raise LaurentError("division by zero polynomial")
    if p.is_zero():
        return LaurentPoly.zero()
    shift = p.lowest_exp() - q.lowest_exp()
    num = p.shift(-p.lowest_exp())
    den = q.shift(-q.lowest_exp())
    # Ordinary long division over the integers.
    rem = dict(num.coeffs)
    out: dict[int, int] = {}
    dd = den.highest_exp()
    lc = den.coeffs[dd]
    while rem:
        top = max(rem)
        if top < dd:
            raise LaurentError("inexact polynomial division")
        c, r = divmod(rem[top], lc)
        if r != 0:
            raise LaurentError("inexact polynomial division")
        out[top - dd] = c
        for e, dc in den.coeffs.items():
            k = e + top - dd
            v = rem.get(k, 0) - c * dc
            if v == 0:
                rem.pop(k, None)
            else:
                rem[k] = v
    return LaurentPoly(out).shift(shift)


def _primitive(p: LaurentPoly) -> LaurentPoly:
    """Unit-normalise, strip integer content, make the leading coefficient
    positive. The result generates the same ideal over the rationals."""
    p = p.normalized_unit()
    if p.is_zero():
        return p
    g = math.gcd(*p.coeffs.values())
    return LaurentPoly({e: c // g for e, c in p.coeffs.items()})


def gcd_primitive(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Gcd over the rationals, returned as a primitive integer polynomial
    with positive leading coefficient. Computed by the primitive
    pseudo-remainder sequence, stripping content at each step."""
    if p.is_zero() and q.is_zero():
        raise LaurentError("gcd of two zero polynomials")
    a, b = _primitive(p), _primitive(q)
    if a.is_zero():
        return b
    while not b.is_zero():
        # Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a  mod  b.
        da, db = a.highest_exp(), b.highest_exp()
        if da < db:
            a, b = b, a
            da, db = db, da
        lc = b.coeffs[db]
        rem = a * (lc ** (da - db + 1))
        while not rem.is_zero() and rem.highest_exp() >= db:
            top = rem.highest_exp()
            factor = rem.coeffs[top] // lc
            rem = rem - b.shift(top - db) * factor
        a, b = b, _primitive(rem)
    return _primitive(a)


def multiplicity_one_part(p: LaurentPoly) -> LaurentPoly:
    """The product of the linear factors of p of multiplicity exactly one:
    s1 = (p/g) / gcd(p/g, g) with g = gcd(p, p')."""
    if p.is_zero():
        raise LaurentError("multiplicity-one part of the zero polynomial")
    p = _primitive(p)
    g = gcd_primitive(p, p.derivative())
    h = _primitive(divide_exact(p, g))
    return _primitive(divide_exact(h, gcd_primitive(h, g)))


def has_simple_unit_circle_root(p: LaurentPoly, tol: float = 1e-8) -> bool:
    """Whether p has a simple complex root on the unit circle (within tol
    of |z| = 1). Roots are taken from the companion matrix of the
    multiplicity-one part."""
    s1 = multiplicity_one_part(p)
    coeffs = s1.dense_int_coeffs()
    if len(coeffs) <= 1:
        return False
    roots = np.roots(list(reversed([float(c) for c in coeffs])))
    return bool(np.any(np.abs(np.abs(roots) - 1.0) < tol))


# -- text form ---------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<lpar>\()|(?P<rpar>\))|(?P<pow>\^-?\d+)|(?P<mul>\*)"
    r"|(?P<sign>[+-])|(?P<int>\d+)|(?P<t>t))"
)


def format_poly(p: LaurentPoly) -> str:
    """Canonical flat text: monomials in decreasing exponent order."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for e in sorted(p.coeffs, reverse=True):
        c = p.coeffs[e]
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "t" if e == 1 else f"t^{e}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


class _Parser:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, str]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise LaurentError(f"bad polynomial syntax near {text[pos:pos+10]!r}")
                break
            pos = m.end()
            for kind, val in m.groupdict().items():
                if val is not None:
                    self.tokens.append((kind, val))
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse_expr(self) -> LaurentPoly:
        sign = 1
        if self.peek() == "sign":
            sign = -1 if self.take()[1] == "-" else 1
        acc = self.parse_term() * sign
        while self.peek() == "sign":
            sign = -1 if self.take()[1] == "-" else 1
            acc = acc + self.parse_term() * sign
        return acc

    def parse_term(self) -> LaurentPoly:
        acc = self.parse_factor()
        while True:
            if self.peek() == "mul":
                self.take()
                acc = acc * self.parse_factor()
            elif self.peek() == "lpar":
                acc = acc * self.parse_factor()
            else:
                return acc

    def parse_factor(self) -> LaurentPoly:
        kind = self.peek()
        if kind == "lpar":
            self.take()
            inner = self.parse_expr()
            if self.peek() != "rpar":
                raise LaurentError("unbalanced parentheses in polynomial")
            self.take()
            if self.peek() == "pow":
                inner = inner ** int(self.take()[1][1:])
            return inner
        if kind == "int":
            return LaurentPoly.term(int(self.take()[1]))
        if kind == "t":
            self.take()
            exp = 1
            if self.peek() == "pow":
                exp = int(self.take()[1][1:])
            return LaurentPoly.term(1, exp)
        raise LaurentError("expected a monomial or parenthesised factor")


def parse_poly(text: str) -> LaurentPoly:
    """Parse the flat monomial form or a product of parenthesised factors."""
    parser = _Parser(text)
    p = parser.parse_expr()
    if parser.peek() is not None:
        raise LaurentError(f"trailing input in polynomial: {text!r}")
    return p
