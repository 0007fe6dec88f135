"""
Words in the braid group B_m and their left Garside normal form.

A braid word is a sequence of signed generator letters: the integer +i
stands for sigma_i and -i for its inverse. Words are kept verbatim (no
free reduction on construction); equality and triviality are decided
through the normal form Delta^p A_1 ... A_k, whose factors are
permutation braids stored as permutations of {0, ..., m-1}.

Text grammar (used by the CLI and fixture files): a mandatory header
``strands=<m>;`` followed by whitespace-separated tokens ``s<i>``,
``s<i>^<k>`` (k may be negative, meaning |k| copies of the inverse) and
``D^<k>`` for the k-th power of the half twist. A text names at most
MAX_STRANDS strands and expands to at most MAX_WORD_LENGTH letters.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from itertools import groupby
from typing import NamedTuple

Perm = tuple[int, ...]


class BraidError(ValueError):
    pass


class BraidWord(NamedTuple("_BraidWord", [("strands", int), ("letters", tuple[int, ...])])):
    """A word in B_m: ``letters[j] = ±i`` encodes sigma_i^±1, 1 <= i <= m-1.
    A named tuple, equal to the plain pair (strands, letters); len() is
    the number of letters. The constructor, _make and _replace check the
    fields: an int strand count, and a tuple of int letters in range."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, strands: int, letters: tuple[int, ...]):
        # type tests inline, the helper only words the refusal: to_braid builds
        # a word in every census op, and a call per field would slow it
        if type(strands) is not int:
            check_ints("strands", (strands,), BraidError)
        if strands < 2:
            raise BraidError("a braid group needs at least 2 strands")
        if not isinstance(letters, tuple):
            raise BraidError(f"letters must be a tuple, not {type(letters).__name__}")
        for letter in letters:
            if type(letter) is not int:
                check_ints("each letter", (letter,), BraidError)
            if not 0 < abs(letter) < strands:
                raise BraidError(f"letter {letter} out of range for {strands} strands")
        return tuple.__new__(cls, (strands, letters))

    def __len__(self) -> int:
        return len(self.letters)


def word(strands: int, letters) -> BraidWord:
    return BraidWord(strands, tuple(letters))


def identity(strands: int) -> BraidWord:
    return BraidWord(strands, ())


def delta_letters(strands: int) -> tuple[int, ...]:
    """The letters of the half twist (s1 s2 ... s_{m-1})(s1 ... s_{m-2}) ... (s1 s2) s1."""
    return tuple([i for block in range(strands - 1, 0, -1) for i in range(1, block + 1)])


def delta(strands: int) -> BraidWord:
    return BraidWord(strands, delta_letters(strands))


def delta_length(strands: int) -> int:
    """The number of letters of delta(strands)."""
    return strands * (strands - 1) // 2


def exponent_sum(b: BraidWord) -> int:
    return sum(1 if letter > 0 else -1 for letter in b.letters)


def compose(a: BraidWord, b: BraidWord) -> BraidWord:
    if a.strands != b.strands:
        raise BraidError("strand count mismatch")
    return BraidWord(a.strands, a.letters + b.letters)


def inverse(a: BraidWord) -> BraidWord:
    return BraidWord(a.strands, tuple(-letter for letter in reversed(a.letters)))


def conjugate(a: BraidWord, b: BraidWord) -> BraidWord:
    """a b a^-1."""
    return compose(compose(a, b), inverse(a))


def power(a: BraidWord, k: int) -> BraidWord:
    base = a if k >= 0 else inverse(a)
    return BraidWord(a.strands, base.letters * abs(k))


def free_reduce(a: BraidWord) -> BraidWord:
    """Cancel adjacent sigma_i sigma_i^-1 pairs (free-group reduction only)."""
    stack: list[int] = []
    for letter in a.letters:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return BraidWord(a.strands, tuple(stack))


# -- permutations -----------------------------------------------------
# Permutations are tuples p with p[x] the image of x; braid words multiply
# left to right, so perm(ab) = compose_perm(perm(a), perm(b)) applies a first.


def _w0(m: int) -> Perm:
    return tuple(range(m - 1, -1, -1))


def _transposition(m: int, i: int) -> Perm:
    p = list(range(m))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def _inverse_perm(p: Sequence[int]) -> list[int]:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return out


def _perm_word(p: Perm) -> tuple[int, ...]:
    """A reduced word for the permutation braid of p, peeling left descents:
    p = s_i p' with l(p') = l(p) - 1."""
    letters: list[int] = []
    current = list(p)
    while True:
        for i in range(1, len(current)):
            if current[i - 1] > current[i]:
                current[i - 1], current[i] = current[i], current[i - 1]
                letters.append(i)
                break
        else:
            return tuple(letters)


class GarsideNormalForm(NamedTuple):
    """Left normal form Delta^inf A_1 ... A_k with left-weighted permutation
    braid factors, none trivial and none the half twist. A named tuple,
    equal to the plain triple (strands, infimum, factors)."""

    strands: int
    infimum: int
    factors: tuple[Perm, ...]

    def is_identity(self) -> bool:
        return self.infimum == 0 and not self.factors

    def to_word(self) -> BraidWord:
        letters: list[int] = []
        d = delta(self.strands)
        if self.infimum >= 0:
            letters.extend(d.letters * self.infimum)
        else:
            letters.extend(inverse(d).letters * (-self.infimum))
        for factor in self.factors:
            letters.extend(_perm_word(factor))
        return BraidWord(self.strands, tuple(letters))


def _left_weight_pair(a: Perm, b: Perm) -> tuple[Perm, Perm]:
    """Slide prefix letters of b into a until the pair is left-weighted
    (every left descent of b is a right descent of a), always the
    smallest movable letter first.

    s_i is a left descent of b when b(i-1) > b(i), and a right descent
    of a when a^-1(i-1) > a^-1(i) (0-based positions), so the scan runs
    on a list copy of b and on the inverse of a. Moving s_i from b to a
    swaps positions i-1 and i in both lists; it can only change the
    descents at i-1, i and i+1, and leaves none at i, so the scan goes
    back one place. Each slide shortens b by one letter, so there are at
    most m(m-1)/2 slides, and the pair costs O(1) per slide on top of an
    O(m) scan and two O(m) inversions."""
    m, inv, right = len(a), _inverse_perm(a), list(b)
    i = 1
    while i < m:
        if right[i - 1] > right[i] and inv[i - 1] < inv[i]:
            inv[i - 1], inv[i] = inv[i], inv[i - 1]
            right[i - 1], right[i] = right[i], right[i - 1]
            i = i - 1 or 1
        else:
            i += 1
    return tuple(_inverse_perm(inv)), tuple(right)


def garside_normal_form(b: BraidWord) -> GarsideNormalForm:
    """The left normal form, built incrementally (Epstein et al., Word
    Processing in Groups, ch. 9). Each letter becomes one simple factor:
    sigma_i the factor s_i, sigma_i^-1 the factor w0 s_i times Delta^-1,
    and the Delta^-1 are commuted to the front, flipping every factor
    with an odd number of them to its right (conjugation by Delta takes
    s_i to s_(m-i)). As tuples, w0 s is s reversed. The factors are then
    appended one at a time to a left-weighted sequence, left-weighting
    adjacent pairs from the right end. In a left-weighted sequence the
    Delta factors come first and the trivial factors last, so the sweep
    stops at the first pair it leaves unchanged, drops a trivial last
    factor and moves a leading Delta into the infimum. With k factors
    that is at most k pair steps per appended factor, each O(m) plus O(1)
    per slid letter (_left_weight_pair)."""
    m = b.strands
    w0 = _w0(m)
    simple: list[Perm] = []
    infimum = 0
    for letter in reversed(b.letters):
        i = abs(letter)
        s = _transposition(m, m - i if infimum % 2 else i)
        if letter < 0:
            s = s[::-1]
            infimum -= 1
        simple.append(s)

    factors: list[Perm] = []
    for s in reversed(simple):
        factors.append(s)
        for j in range(len(factors) - 1, 0, -1):
            pair = _left_weight_pair(factors[j - 1], factors[j])
            if pair == (factors[j - 1], factors[j]):
                break
            factors[j - 1], factors[j] = pair
        if factors[-1] == tuple(range(m)):
            factors.pop()
        if factors and factors[0] == w0:
            factors.pop(0)
            infimum += 1

    return GarsideNormalForm(m, infimum, tuple(factors))


def is_trivial(b: BraidWord) -> bool:
    return garside_normal_form(b).is_identity()


def equals(a: BraidWord, b: BraidWord) -> bool:
    if a.strands != b.strands:
        raise BraidError("strand count mismatch")
    return garside_normal_form(a) == garside_normal_form(b)


# -- text form ---------------------------------------------------------
# The rules every text grammar of the package shares: the caps, ASCII
# numbers read by parse_int, and check_ints for the int fields.

# The longest word a parser expands its text to: braid letters here,
# scheme events in lscheme.parse_scheme and comb letters in
# comb.parse_comb. Each checks it before expanding a power, so a short
# text such as "s1^1000000000" cannot ask for a billion-entry list.
MAX_WORD_LENGTH = 100_000

# The most strands a braid or scheme text may name. The invariants build
# (m-1)^2 matrix entries and do O(m^3) entry operations, so an unbounded
# header such as "strands=100000;" would ask for 10^10 entries;
# "strands=64; s1" takes about 0.06 s.
MAX_STRANDS = 64

# The deepest nesting a parser accepts: parentheses in a polynomial,
# groups in a comb, ovals in a real or complex scheme (J not counted;
# degree 7 allows 3). Each parser says at its check why it needs a cap.
MAX_DEPTH = 8


def parse_int(digits: str, error: type[ValueError]) -> int:
    """int(digits) of an ASCII -?[0-9]+ match (int() alone takes any script's
    digits), or the parser's error where int() refuses that many digits."""
    try:
        return int(digits)
    except ValueError as exc:
        raise error(f"number of {len(digits)} digits is too long") from exc


def check_ints(what: str, values, error: type[ValueError]) -> None:
    """Refuse a value that is not an int with error: a bool or a float
    would pass the range checks, but no text writes it."""
    for value in values:
        if type(value) is not int:
            raise error(f"{what} must be an int, not {type(value).__name__}")


_HEADER = re.compile(r"^\s*strands\s*=\s*([0-9]+)\s*;\s*")
_TOKEN = re.compile(r"^(?:s([0-9]+)|D)(?:\^(-?[0-9]+))?$")


def parse_braid(text: str) -> BraidWord:
    """Parse the text grammar; more than MAX_STRANDS strands, or a word of
    more than MAX_WORD_LENGTH letters after expansion, is refused before
    it is built."""
    m = _HEADER.match(text)
    if not m:
        raise BraidError("braid text must start with 'strands=<m>;'")
    strands = parse_int(m.group(1), BraidError)
    if not 2 <= strands <= MAX_STRANDS:
        raise BraidError(f"strands must be between 2 and {MAX_STRANDS}")
    letters: list[int] = []
    for token in text[m.end():].split():
        tm = _TOKEN.match(token)
        if not tm:
            raise BraidError(f"bad braid token {token!r}")
        # a token is a unit word, s<i> or D, to a signed power
        index, power = tm.groups()
        i = parse_int(index, BraidError) if index else 0
        k = parse_int(power, BraidError) if power else 1
        if index and not 1 <= i <= strands - 1:
            raise BraidError(f"generator s{i} out of range for {strands} strands")
        unit = (i,) if index else delta_letters(strands)
        if k < 0:
            unit, k = tuple(-letter for letter in reversed(unit)), -k
        if len(letters) + k * len(unit) > MAX_WORD_LENGTH:
            raise BraidError(f"braid word longer than {MAX_WORD_LENGTH} letters")
        letters.extend(unit * k)
    return BraidWord(strands, tuple(letters))


def render_braid(b: BraidWord) -> str:
    """Render with run-length grouping of repeated letters."""
    parts = [f"strands={b.strands};"]
    for letter, group in groupby(b.letters):
        run = len(list(group))
        if letter > 0:
            parts.append(f"s{letter}" if run == 1 else f"s{letter}^{run}")
        else:
            parts.append(f"s{-letter}^{-run}")
    return " ".join(parts)
