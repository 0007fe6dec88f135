"""
Exact integer Laurent polynomials in one variable t.

A LaurentPoly is a sparse mapping exponent -> coefficient with no zero
coefficients; the zero polynomial is the empty mapping. It is the form of
the text boundary: the parser builds it, the fixtures compare it. The
arithmetic (exact division, gcd, the unit-circle test) runs on dense
lists: a valuation v plus the coefficients from degree 0 up. Coefficients
are Python ints, so nothing ever overflows. The textual form is the one
used throughout the CLI and fixture files, e.g.

    t^5 - 2*t^4 + 2*t^3 - 2*t^2 + 2*t - 1

with possibly negative exponents (t^-2). The parser additionally accepts
products of parenthesised factors with integer powers, e.g.
(t-1)^3*(t^2+1), which keeps fixture files close to factored values. A
product or power whose degree span would pass MAX_POLY_SPAN is refused
before it is expanded, so a short text cannot ask for unbounded work, and
parentheses nested deeper than braid.MAX_DEPTH are refused as well.
Integers and exponents are written in ASCII decimal digits.
"""

from __future__ import annotations

import math
import re

from .braid import MAX_DEPTH, parse_int


class LaurentError(ValueError):
    pass


# Widest degree span (highest minus lowest exponent) the parser expands a
# product or power to; (t+1)^1024 expands in about 0.15 s.
MAX_POLY_SPAN = 1024


class LaurentPoly:
    """An integer Laurent polynomial, immutable after construction; it is
    true when nonzero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        clean = {e: c for e, c in (coeffs or {}).items() if c != 0}
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # a constant equals its integer (__eq__), so it hashes like one
        if self.coeffs.keys() <= {0}:
            return hash(self.coeffs.get(0, 0))
        return hash(tuple(sorted(self.coeffs.items())))

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self)!r})"

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

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
        acc = LaurentPoly({0: 1})
        base = self
        while k:
            if k & 1:
                acc = acc * base
            k >>= 1
            if k:
                base = base * base
        return acc

    def normalized_unit(self) -> LaurentPoly:
        """Multiply by a unit ±t^k so that the lowest exponent is 0 and the
        coefficient of the highest exponent is positive; 0 maps to 0."""
        if not self.coeffs:
            return self
        low, sign = min(self.coeffs), -1 if self.coeffs[max(self.coeffs)] < 0 else 1
        return LaurentPoly({e - low: sign * c for e, c in self.coeffs.items()})


# -- dense integer polynomials ------------------------------------------
# Coefficient lists from degree 0 up with a nonzero last entry; [] is the
# zero polynomial. A Laurent polynomial is t^v times such a list.


def _dense(p: LaurentPoly) -> tuple[int, list[int]]:
    """(v, a) with p = t^v * sum_i a[i] t^i and a[0] != 0; (0, []) for 0."""
    if not p.coeffs:
        return 0, []
    low = min(p.coeffs)
    return low, [p.coeffs.get(e, 0) for e in range(low, max(p.coeffs) + 1)]


def _dense_divide(a: list[int], b: list[int]) -> list[int] | None:
    """q with q * b == a over the integers, by long division from the top,
    or None when there is none; b is nonzero."""
    db, lc = len(b) - 1, b[-1]
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[i + db], lc)
        if rem:
            return None
        q[i] = c
        if c:
            for j in range(db):
                r[i + j] -= c * b[j]
    return None if any(r[:db]) else q


def divide_exact(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Return r with r*q == p, or raise LaurentError if no Laurent
    polynomial with integer coefficients does the job. With p = t^v a and
    q = t^w b, a(0) and b(0) nonzero, r = t^(v-w) a/b, and a/b is a
    polynomial whenever it is a Laurent polynomial."""
    if not q:
        raise LaurentError("division by zero polynomial")
    (v, a), (w, b) = _dense(p), _dense(q)
    quotient = _dense_divide(a, b)
    if quotient is None:
        raise LaurentError("inexact polynomial division")
    return LaurentPoly(dict(enumerate(quotient, v - w)))


def _dense_primitive(a: list[int]) -> list[int]:
    """a divided by the positive gcd of its coefficients (signs kept)."""
    g = math.gcd(*a)
    return a if g == 1 else [c // g for c in a]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of a mod b, for deg a >= deg b: each step
    scales by |lc(b)| and cancels the top coefficient, so signs survive."""
    lc = b[-1]
    if lc < 0:
        lc, b = -lc, [-c for c in b]
    db = len(b) - 1
    r = list(a)
    while len(r) > db:
        top = r.pop()
        if top:
            shift = len(r) - db
            r = [c * lc for c in r]
            for i in range(db):
                r[shift + i] -= top * b[i]
    while r and r[-1] == 0:
        r.pop()
    return r


def _remainder_chain(a: list[int], b: list[int]) -> list[list[int]]:
    """a, b and the primitive parts of the negated pseudo-remainders that
    follow, for deg a >= deg b and b nonzero: the Sturm chain of a when b
    is a'. It ends at a constant, whose remainders are all zero, or before
    a zero remainder; either way its last entry is gcd(a, b) up to a
    constant factor."""
    chain = [a, b]
    while len(chain[-1]) > 1 and (r := _pseudo_remainder(chain[-2], chain[-1])):
        chain.append([-c for c in _dense_primitive(r)])
    return chain


def gcd_primitive(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Gcd over the rationals, returned as a primitive integer polynomial
    with positive leading coefficient: the primitive part of the last
    entry of the remainder chain."""
    if not p and not q:
        raise LaurentError("gcd of two zero polynomials")
    a, b = sorted((_dense(p)[1], _dense(q)[1]), key=len, reverse=True)
    g = _dense_primitive(_remainder_chain(a, b)[-1] if b else a)
    return LaurentPoly({e: -c if g[-1] < 0 else c for e, c in enumerate(g)})


# -- exact unit-circle test ----------------------------------------------


def _half_degree(q: list[int]) -> list[int]:
    """h with q(t) = t^k h(t + 1/t), for a palindromic q of degree 2k:
    q / t^k = c_k + sum_j c_(k+j) V_j(x), where V_j(t + 1/t) = t^j + t^-j
    follows V_0 = 2, V_1 = x, V_(j+1) = x V_j - V_(j-1)."""
    k = (len(q) - 1) // 2
    h = [0] * (k + 1)
    h[0] = q[k]
    prev, cur = [2], [0, 1]
    for j in range(1, k + 1):
        c = q[k + j]
        for i, v in enumerate(cur):
            h[i] += c * v
        nxt = [0] + cur
        for i, v in enumerate(prev):
            nxt[i] -= v
        prev, cur = cur, nxt
    return h


def _sign_at(a: list[int], x: int) -> int:
    v = 0
    for c in reversed(a):
        v = v * x + c
    return (v > 0) - (v < 0)


def _sturm_count(h: list[int], lo: int, hi: int) -> tuple[int, list[int]]:
    """Distinct real roots of h in (lo, hi), neither end a root, and
    gcd(h, h') up to a constant: the last entry of the Sturm chain."""
    chain = _remainder_chain(h, [i * c for i, c in enumerate(h)][1:])
    count = 0
    for x, sign in ((lo, 1), (hi, -1)):
        signs = [s for s in (_sign_at(a, x) for a in chain) if s]
        count += sign * sum(s != t for s, t in zip(signs, signs[1:]))
    return count, chain[-1]


def has_simple_unit_circle_root(p: LaurentPoly) -> bool:
    """Whether p has a simple complex root on the unit circle, decided in
    integer arithmetic:
    - t = 1 and t = -1 are divided out; a simple one answers True;
    - a rest q that is not palindromic is replaced by gcd(q, q*), q* the
      reversal, which keeps every unit-circle root with its multiplicity;
    - q(t) = t^k h(t + 1/t) maps a unit-circle root z != ±1 of
      multiplicity r to the real root z + 1/z of h in (-2, 2), again of
      multiplicity r;
    - one Sturm chain of h counts its distinct roots in (-2, 2) and ends
      in gcd(h, h'), whose roots are the repeated ones; a simple root
      exists iff h has more distinct roots there than gcd(h, h') has."""
    if not p:
        raise LaurentError("unit-circle roots of the zero polynomial")
    q = _dense(p)[1]
    for r in (1, -1):
        mult = 0
        while len(q) > 1 and (rest := _dense_divide(q, [-r, 1])) is not None:
            q, mult = rest, mult + 1
        if mult == 1:
            return True
    if q != q[::-1]:
        q = _remainder_chain(q, q[::-1])[-1]
    if len(q) == 1:
        return False
    distinct, g = _sturm_count(_dense_primitive(_half_degree(q)), -2, 2)
    repeated = _sturm_count(g, -2, 2)[0] if len(g) > 1 else 0
    return distinct > repeated


# -- text form ---------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<lpar>\()|(?P<rpar>\))|(?P<pow>\^-?[0-9]+)|(?P<mul>\*)"
    r"|(?P<sign>[+-])|(?P<int>[0-9]+)|(?P<t>t))"
)


def format_poly(p: LaurentPoly) -> str:
    """Canonical flat text: monomials in decreasing exponent order."""
    if not p:
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


def _span(p: LaurentPoly) -> int:
    return max(p.coeffs) - min(p.coeffs) if p.coeffs else 0


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
        self.i = self.depth = 0

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
            elif self.peek() != "lpar":
                return acc
            factor = self.parse_factor()
            if _span(acc) + _span(factor) > MAX_POLY_SPAN:
                raise LaurentError(f"product wider than {MAX_POLY_SPAN} degrees")
            acc = acc * factor

    def parse_factor(self) -> LaurentPoly:
        kind = self.peek()
        if kind == "lpar":
            self.take()
            self.depth += 1
            if self.depth > MAX_DEPTH:  # the parser recurses once per level
                raise LaurentError(f"parentheses nested deeper than {MAX_DEPTH}")
            inner = self.parse_expr()
            if self.peek() != "rpar":
                raise LaurentError("unbalanced parentheses in polynomial")
            self.take()
            self.depth -= 1
            if self.peek() == "pow":
                k = parse_int(self.take()[1][1:], LaurentError)
                if k * max(_span(inner), 1) > MAX_POLY_SPAN:
                    raise LaurentError(f"power wider than {MAX_POLY_SPAN} degrees")
                inner = inner ** k
            return inner
        if kind == "int":
            return LaurentPoly({0: parse_int(self.take()[1], LaurentError)})
        if kind == "t":
            self.take()
            exp = 1
            if self.peek() == "pow":
                exp = parse_int(self.take()[1][1:], LaurentError)
            return LaurentPoly({exp: 1})
        raise LaurentError("expected a monomial or parenthesised factor")


def parse_poly(text: str) -> LaurentPoly:
    """Parse the flat monomial form or a product of parenthesised factors."""
    parser = _Parser(text)
    p = parser.parse_expr()
    if parser.peek() is not None:
        raise LaurentError(f"trailing input in polynomial: {text!r}")
    return p
