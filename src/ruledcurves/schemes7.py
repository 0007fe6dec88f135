"""
The realizable real schemes of nonsingular degree-7 curves in the
projective plane, by category, and the complex schemes of symmetric
M-curves.

Real schemes are nesting trees: ``<J + 4 + 1<8>>`` is the odd component
J, four empty ovals, and an oval with eight empty ovals inside. Complex
schemes of type I add a p/m sign per oval and a trailing ``:I`` tag;
type II schemes carry no signs and a trailing ``:II`` tag. Both are read
by one function, ``_read_ovals``, over the lexemes of one regex: spaces
and tabs may stand between tokens, and a refusal names its offset.

A category is one row of ``_TABLE``: its bases, its named laws and the
nests it cites. The laws are Harnack's and Bezout's bounds for every
curve; Klein's parity and the Rokhlin-Mishachev complex orientation
formula for dividing curves; for non-dividing curves, that M-curves and
nests of depth 3 are dividing (Klein, Rokhlin). The source's nests that
these laws do not derive, its finer exclusions and the symmetric
prohibitions of its main theorems, are cited once each, in the row of
the theorem that proves them. ``exclusion`` names the law or the row.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import NamedTuple

from .braid import MAX_DEPTH, MAX_WORD_LENGTH, parse_int

Forest = tuple  # recursively: tuple of ovals, each oval a Forest of children

class SchemeError(ValueError):
    pass


class RealSchemeCode(NamedTuple):
    """A named tuple, equal to the plain 1-tuple (ovals,)."""

    ovals: Forest


class ComplexSchemeCode(NamedTuple):
    """A named tuple, equal to the plain pair (ovals, type_tag)."""

    # type I: ovals with signs, (sign, children) at every level;
    # type II: the real forest, which carries no orientation
    ovals: tuple
    type_tag: str  # "I" or "II"

    def real_code(self) -> RealSchemeCode:
        if self.type_tag == "II":
            return RealSchemeCode(self.ovals)

        def strip(forest):
            return _canon(strip(children) for _sign, children in forest)
        return RealSchemeCode(strip(self.ovals))


def _canon(nodes) -> tuple:
    """Canonical order of a forest whose nodes are already canonical."""
    return tuple(sorted(nodes, reverse=True))


# -- text form ----------------------------------------------------------

# A lexeme is a gap of spaces and tabs and then an oval count with its
# p/m sign, or any one character, or nothing at the end of the text.
_OVAL_LEXEME = re.compile(r"[ \t]*(([0-9]+)([pm]?)|.?)", re.S)


def _read_ovals(text: str, signed: bool) -> tuple:
    """The ovals of ``<J + item + ...>``, where an item is a count in ASCII
    decimal digits, a p/m sign when the scheme is signed, and an optional
    nested ``<item + ...>`` group; read by one lexeme regex, recursing once
    per group. A scheme of more than MAX_WORD_LENGTH ovals, nested copies
    included, or with ovals nested deeper than MAX_DEPTH (J not counted;
    degree 7 allows 3), is refused before it is built. A refusal names
    its offset in text."""
    lexemes = _OVAL_LEXEME.finditer(text)
    size = 0  # ovals built so far

    def error(msg: str, offset: int):
        raise SchemeError(f"{msg} at offset {offset} in {text!r}")

    def group(depth: int, after_item: bool):
        """The '+'-separated items up to the closing '>', each an oval at
        the given depth, in canonical order, and the offset after the '>'."""
        nonlocal size
        ovals, m = [], next(lexemes)
        while m[1] != ">":
            if after_item:
                if m[1] != "+":
                    error("expected '+'", m.start(1))
                m = next(lexemes)
            after_item = True
            if m[2] is None:
                error("expected an oval count", m.start(1))
            count, sign = parse_int(m[2], SchemeError), m[3]
            if signed != bool(sign):
                error("complex schemes need a p/m sign on every oval" if signed
                      else "unexpected sign in a real scheme", m.end())
            before, children, m = size, (), next(lexemes)
            end = m.start(1)
            if m[1] == "<":
                if depth == MAX_DEPTH:  # the reader recurses once per level
                    error(f"ovals nested deeper than {MAX_DEPTH}", m.end())
                children, end = group(depth + 1, after_item=False)
                m = next(lexemes)
            size = before + count * (1 + size - before)
            if size > MAX_WORD_LENGTH:
                error(f"scheme of more than {MAX_WORD_LENGTH} ovals", end)
            ovals += [(1 if sign == "p" else -1, children) if signed else children] * count
        return _canon(ovals), m.end()

    for want in "<J":
        if (m := next(lexemes))[1] != want:
            error(f"expected {want!r}", m.start(1))
    ovals, _ = group(1, after_item=True)  # J is the first item
    if (m := next(lexemes))[1]:
        error("trailing input", m.start(1))
    return ovals


def parse_real_scheme(text: str) -> RealSchemeCode:
    return RealSchemeCode(_read_ovals(text.strip(), signed=False))


def parse_complex_scheme(text: str) -> ComplexSchemeCode:
    body, _, tag = text.strip().rpartition(":")
    if tag not in ("I", "II"):
        raise SchemeError(f"complex scheme needs a :I or :II tag: {text!r}")
    return ComplexSchemeCode(_read_ovals(body.strip(), signed=(tag == "I")), tag)


def render_real_scheme(code: RealSchemeCode) -> str:
    def render_forest(forest) -> list[str]:
        empty = forest.count(())
        return [str(empty)] * bool(empty) + [f"1<{' + '.join(render_forest(oval))}>"
                                             for oval in sorted(filter(None, forest), reverse=True)]

    inner = render_forest(code.ovals)
    return "<J>" if not inner else f"<J + {' + '.join(inner)}>"


def render_complex_scheme(code: ComplexSchemeCode) -> str:
    if code.type_tag == "II":
        return f"{render_real_scheme(code.real_code())}:II"

    def render_forest(forest) -> list[str]:
        parts = []
        for (sign, children), count in sorted(
                Counter(forest).items(), key=lambda kv: (bool(kv[0][1]), -kv[0][0], kv[0][1])):
            suffix = "p" if sign > 0 else "m"
            parts += ([f"1{suffix}<{' + '.join(render_forest(children))}>"] * count
                      if children else [f"{count}{suffix}"])
        return parts

    inner = render_forest(code.ovals)
    body = "<J>" if not inner else f"<J + {' + '.join(inner)}>"
    return f"{body}:{code.type_tag}"


# -- classification ------------------------------------------------------

HARNACK = 15  # ovals besides J: at most the genus (7-1)(7-2)/2
K = 3  # the degree is 2k + 1


def _nest(outer: int, inner: int) -> Forest:
    return (((),) * inner,) + ((),) * outer


_DEEP_NESTS = ((_nest(0, 1),), (_nest(0, 1), ()))  # <J + 1<1<1>>>, <J + 1 + 1<1<1>>>

# main theorem 2: the complex schemes of nonsingular symmetric M-curves
_SYMMETRIC_M_COMPLEX_SCHEMES = (
    "<J + 9p + 6m>:I", "<J + 4p + 6m + 1m<3p + 1m>>:I", "<J + 2m + 1m<7p + 5m>>:I",
    "<J + 7p + 6m + 1m<1p>>:I", "<J + 5p + 4m + 1m<3p + 2m>>:I", "<J + 1p + 1m<7p + 6m>>:I",
    "<J + 5p + 7m + 1m<2p>>:I", "<J + 1p + 3m + 1m<6p + 4m>>:I",
    "<J + 6p + 5m + 1p<1p + 2m>>:I", "<J + 2p + 1m + 1p<5p + 6m>>:I")


class _Scheme(NamedTuple):
    forest: Forest
    ovals: int
    depth: int  # ovals on the longest root path
    line: int  # ovals on the union of two root paths


def _measure(forest) -> tuple[int, int, int]:
    """(ovals, depth, line) of a forest; equal siblings are measured once."""
    ovals, depths, line = 0, [0, 0], 0
    for child in set(forest):
        n, depth, inner_line = _measure(child) if child else (0, 0, 0)
        copies = forest.count(child)
        ovals += copies * (1 + n)
        depths = sorted(depths + [1 + depth] * min(copies, 2))[-2:]
        line = max(line, 1 + inner_line)
    return ovals, depths[1], max(line, sum(depths))


def _orientation_sums(forest, above: int = 0) -> set[int]:
    """Every value of L+ - L- + 2(P+ - P-) over the signings of a forest in
    ovals whose signs sum to `above`. An oval of sign s adds s(1 - 2 above):
    s, and 2 per enclosing oval of the other sign (a positive pair), -2 per
    enclosing oval of its own sign."""
    sums = {0}
    for children in set(forest):
        tree = {s * (1 - 2 * above) + inner for s in (1, -1)
                for inner in (_orientation_sums(children, above + s) if children else (0,))}
        for _ in range(forest.count(children)):
            sums = {x + y for x in sums for y in tree}
    return sums


# category -> (bases, laws (name, holds(scheme)), cited nests (a, b) =
# <J + a + 1<b>>). A category applies its bases' rows, each once and root
# first, then its own; each nest is cited by one row.
_TABLE = {
    # The source's degree-7 list omits <J + 1<14>>, which passes every law.
    "any": ((), (
        ("Harnack", lambda s: s.ovals <= HARNACK),
        # a line through two innermost ovals crosses J and the ovals around them
        ("Bezout", lambda s: 2 * s.line + 1 <= 2 * K + 1),
    ), ((0, 14),)),
    # The source's dividing list omits <J + 1<6>> and <J + 1<8>>, which pass
    # every law, and prints <J + 1 + 1<1<1>>>, which Bezout excludes (a line
    # through its innermost and extra ovals meets the curve 9 > 7 times);
    # the laws admit the hyperbolic <J + 1<1<1>>> in its place.
    "dividing": (("any",), (
        # Klein: a dividing curve of genus g has g + 1 - 2j components
        ("type-I parity", lambda s: (HARNACK - s.ovals) % 2 == 0),
        # Rokhlin-Mishachev, for some orientation of the curve
        ("complex orientation", lambda s: s.ovals - K * (K + 1) in _orientation_sums(s.forest)),
    ), ((0, 6), (0, 8))),
    "non-dividing": (("any",), (
        # Klein: M-curves are dividing; Rokhlin: so are nests of depth k
        ("type II", lambda s: s.ovals < HARNACK and s.depth < K),
    ), ()),
    # main theorem 1: seven nests no symmetric curve has
    "symmetric": (("any",), (), ((8, 6), (7, 7), (6, 8), (5, 9), (7, 6), (6, 7), (4, 9))),
    # theorem 3: three more for dividing pseudoholomorphic curves
    "symmetric-dividing-pseudoholomorphic": (("dividing", "symmetric"), (),
                                             ((2, 10), (6, 6), (4, 4))),
    # theorem 4: two more for dividing algebraic curves
    "symmetric-dividing-algebraic": (("symmetric-dividing-pseudoholomorphic",), (),
                                     ((8, 4), (4, 8))),
    "symmetric-non-dividing": (("non-dividing", "symmetric"), (), ()),
}

CATEGORIES = tuple(_TABLE)


def _rows(category: str) -> list[str]:
    """The rows a category applies: its bases' rows, each once, then its own."""
    rows = []
    for base in _TABLE[category][0]:
        rows += [row for row in _rows(base) if row not in rows]
    return rows + [category]


def _rules(category: str) -> tuple[list, dict]:
    """The laws of a category, root row first, and its cited nests."""
    if category not in _TABLE:
        raise SchemeError(f"unknown category {category!r}; one of {', '.join(CATEGORIES)}")
    rows = _rows(category)
    return ([law for row in rows for law in _TABLE[row][1]],
            {_nest(a, b): f"cited: {row}" for row in rows for a, b in _TABLE[row][2]})


def _exclusion(code: RealSchemeCode, laws: list, cited: dict) -> str | None:
    forest = code.ovals
    nonempty = len(forest) - forest.count(())
    if forest not in _DEEP_NESTS and (nonempty > 1 or nonempty and any(max(forest))):
        raise SchemeError(f"scheme {render_real_scheme(code)} is outside the degree-7 grammar")
    scheme = _Scheme(forest, *_measure(forest))
    return next((name for name, holds in laws if not holds(scheme)), cited.get(forest))


def exclusion(code: RealSchemeCode, category: str) -> str | None:
    """The first law of the category that the scheme fails, or else the
    row that cites it; None when it is realizable. Schemes other than
    <J + a>, <J + a + 1<b>> and _DEEP_NESTS raise SchemeError."""
    return _exclusion(code, *_rules(category))


def realizable(code: RealSchemeCode, category: str) -> bool:
    return exclusion(code, category) is None


def enumerate_schemes(category: str) -> list[RealSchemeCode]:
    """All realizable codes of the category: plain schemes by ascending
    oval count, then nests by (outer, inner), then the deep nests."""
    laws, cited = _rules(category)
    candidates = [RealSchemeCode(((),) * a) for a in range(HARNACK + 1)]
    candidates += [RealSchemeCode(_nest(a, b))
                   for a in range(HARNACK) for b in range(1, HARNACK - a)]
    candidates += map(RealSchemeCode, _DEEP_NESTS)
    return [code for code in candidates if _exclusion(code, laws, cited) is None]


def symmetric_m_complex_schemes() -> list[ComplexSchemeCode]:
    """The complex schemes of nonsingular symmetric M-curves of degree 7."""
    return list(map(parse_complex_scheme, _SYMMETRIC_M_COMPLEX_SCHEMES))
