"""
Queryable database of the realizable real schemes of nonsingular
degree-7 curves in the projective plane, by category, plus the
complex-scheme list for symmetric M-curves, and the complex-orientation
identity as a standalone check.

Real schemes are nesting trees: ``<J + 4 + 1<8>>`` is the odd component
J, four empty ovals, and an oval with eight empty ovals inside. Complex
schemes of type I add a p/m sign per oval and a trailing ``:I`` tag;
type II schemes carry no signs and a trailing ``:II`` tag. The
classification tables live in data/schemes7.json, one block per
statement, so the numbers can be audited without reading code.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .braid import MAX_WORD_LENGTH

Forest = tuple  # recursively: tuple of ovals, each oval a Forest of children

CATEGORIES = (
    "any",
    "dividing",
    "non-dividing",
    "symmetric",
    "symmetric-dividing-pseudoholomorphic",
    "symmetric-dividing-algebraic",
    "symmetric-non-dividing",
)


class SchemeError(ValueError):
    pass


@dataclass(frozen=True)
class RealSchemeCode:
    ovals: Forest


@dataclass(frozen=True)
class ComplexSchemeCode:
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

_ITEM = re.compile(r"(\d+)([pm]?)")


class _SchemeParser:
    """``<J + item + ...>``, where an item is a count, a p/m sign when the
    scheme is signed, and an optional nested ``<item + ...>`` group. A
    scheme of more than MAX_WORD_LENGTH ovals, nested copies included,
    is refused before it is built."""

    def __init__(self, text: str, signed: bool):
        self.text = text
        self.pos = 0
        self.signed = signed
        self.size = 0  # ovals built so far

    def error(self, msg: str):
        raise SchemeError(f"{msg} at offset {self.pos} in {self.text!r}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def accept(self, ch: str) -> bool:
        self.skip_ws()
        if self.text.startswith(ch, self.pos):
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.accept(ch):
            self.error(f"expected {ch!r}")

    def parse(self) -> tuple:
        self.expect("<")
        self.expect("J")
        ovals = self.group(after_item=True)  # J is the first item
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return ovals

    def group(self, after_item: bool) -> tuple:
        """The '+'-separated items up to the closing '>', in canonical order."""
        ovals = []
        while not self.accept(">"):
            if after_item:
                self.expect("+")
            after_item = True
            ovals.extend(self.item())
        return _canon(ovals)

    def item(self) -> list:
        self.skip_ws()
        m = _ITEM.match(self.text, self.pos)
        if not m:
            self.error("expected an oval count")
        self.pos = m.end()
        count, sign = int(m.group(1)), m.group(2)
        if self.signed and not sign:
            self.error("complex schemes need a p/m sign on every oval")
        if not self.signed and sign:
            self.error("unexpected sign in a real scheme")
        before = self.size
        children = self.group(after_item=False) if self.accept("<") else ()
        self.size = before + count * (1 + self.size - before)
        if self.size > MAX_WORD_LENGTH:
            self.error(f"scheme of more than {MAX_WORD_LENGTH} ovals")
        node = (1 if sign == "p" else -1, children) if self.signed else children
        return [node] * count


def parse_real_scheme(text: str) -> RealSchemeCode:
    return RealSchemeCode(_SchemeParser(text.strip(), signed=False).parse())


def parse_complex_scheme(text: str) -> ComplexSchemeCode:
    body, _, tag = text.strip().rpartition(":")
    if tag not in ("I", "II"):
        raise SchemeError(f"complex scheme needs a :I or :II tag: {text!r}")
    return ComplexSchemeCode(_SchemeParser(body.strip(), signed=(tag == "I")).parse(), tag)


def render_real_scheme(code: RealSchemeCode) -> str:
    def render_forest(forest) -> list[str]:
        parts = []
        empty = sum(1 for o in forest if not o)
        rest = [o for o in forest if o]
        if empty:
            parts.append(str(empty))
        for oval in sorted(rest, reverse=True):
            parts.append(f"1<{' + '.join(render_forest(oval))}>")
        return parts

    inner = render_forest(code.ovals)
    return "<J>" if not inner else f"<J + {' + '.join(inner)}>"


def render_complex_scheme(code: ComplexSchemeCode) -> str:
    if code.type_tag == "II":
        return f"{render_real_scheme(code.real_code())}:II"

    def render_forest(forest) -> list[str]:
        groups: dict = {}
        for sign, children in forest:
            groups.setdefault((sign, children), 0)
            groups[(sign, children)] += 1
        parts = []
        order = sorted(groups.items(), key=lambda kv: (bool(kv[0][1]), -kv[0][0], kv[0][1]))
        for (sign, children), count in order:
            suffix = "p" if sign > 0 else "m"
            if children:
                for _ in range(count):
                    parts.append(f"1{suffix}<{' + '.join(render_forest(children))}>")
            else:
                parts.append(f"{count}{suffix}")
        return parts

    inner = render_forest(code.ovals)
    body = "<J>" if not inner else f"<J + {' + '.join(inner)}>"
    return f"{body}:{code.type_tag}"


# -- classification data -------------------------------------------------


@lru_cache(maxsize=1)
def _load_data() -> dict:
    with resources.files("ruledcurves").joinpath("data/schemes7.json").open() as fh:
        return json.load(fh)


def _resolve(category: str) -> tuple[dict, dict, list[str], set[tuple[int, int]]]:
    data = _load_data()["categories"]
    if category not in data:
        raise SchemeError(f"unknown category {category!r}; one of {', '.join(CATEGORIES)}")
    removed: set[tuple[int, int]] = set()
    node = data[category]
    while "base" in node:
        removed.update((a, b) for a, b in node.get("remove_nests", ()))
        node = data[node["base"]]
    return node["nest"], node["plain"], list(node.get("extra", ())), removed


def _shape(code: RealSchemeCode):
    """Classify into the degree-7 grammar: plain <J + a>, nest
    <J + a + 1<b>>, or one of the two recorded deep nests."""
    forest = code.ovals
    nonempty = [o for o in forest if o]
    if not nonempty:
        return ("plain", len(forest))
    if len(nonempty) == 1 and all(not child for child in nonempty[0]):
        return ("nest", len(forest) - 1, len(nonempty[0]))
    return ("deep", render_real_scheme(code))


def realizable(code: RealSchemeCode, category: str) -> bool:
    nest, plain, extra, removed = _resolve(category)
    shape = _shape(code)
    if shape[0] == "plain":
        alpha = shape[1]
        if not plain["alpha_min"] <= alpha <= plain["alpha_max"]:
            return False
        if "alpha_parity" in plain and alpha % 2 != plain["alpha_parity"]:
            return False
        return True
    if shape[0] == "nest":
        alpha, beta = shape[1], shape[2]
        if (alpha, beta) in removed:
            return False
        if not nest["beta_min"] <= beta <= nest["beta_max"]:
            return False
        if not nest["alpha_min"] <= alpha <= nest["alpha_max"]:
            return False
        if alpha + beta > nest["total_max"]:
            return False
        if "total_parity" in nest and (alpha + beta) % 2 != nest["total_parity"]:
            return False
        if alpha == 0 and beta in nest.get("alpha0_beta_excluded", ()):
            return False
        if alpha == 1 and beta < nest.get("alpha1_beta_min", 0):
            return False
        return True
    text = shape[1]
    known_deep = {"<J + 1<1<1>>>", "<J + 1 + 1<1<1>>>"}
    if text not in known_deep:
        raise SchemeError(f"scheme {text} is outside the degree-7 grammar")
    return text in extra


def enumerate_schemes(category: str) -> list[RealSchemeCode]:
    """All realizable codes of the category: plain schemes by ascending
    oval count, then nests by (outer, inner), then the deep nests."""
    nest, plain, extra, _removed = _resolve(category)
    candidates = [RealSchemeCode(((),) * alpha)
                  for alpha in range(plain["alpha_min"], plain["alpha_max"] + 1)]
    candidates += [RealSchemeCode((((),) * beta,) + ((),) * alpha)
                   for alpha in range(nest["alpha_min"], nest["alpha_max"] + 1)
                   for beta in range(nest["beta_min"], nest["beta_max"] + 1)]
    return ([code for code in candidates if realizable(code, category)]
            + [parse_real_scheme(text) for text in extra])


def symmetric_m_complex_schemes() -> list[ComplexSchemeCode]:
    """The complex schemes of nonsingular symmetric M-curves of degree 7."""
    return [parse_complex_scheme(text)
            for text in _load_data()["symmetric_m_complex_schemes"]]


def rokhlin_mischachev(lambda_plus: int, lambda_minus: int,
                       pi_plus: int, pi_minus: int,
                       ovals: int, k: int) -> bool:
    """Complex-orientation identity for dividing curves of degree 2k+1:
    L+ - L- + 2(P+ - P-) = l - k(k+1)."""
    return lambda_plus - lambda_minus + 2 * (pi_plus - pi_minus) == ovals - k * (k + 1)
