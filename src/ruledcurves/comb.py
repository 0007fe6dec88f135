"""
The comb semigroup on generators g1..g6, closure decision, chains of
weighted combs, and the multiplicity count backing the algebraic
realizability verdict for trigonal schemes.

A comb is a word over {1..6}; the unit comb is the empty word. A closure
joins every g1 to a g2, every g3 to a g4 and every g5 to a g6 by
pairwise non-crossing chords on the circular word; a g1-g2 chord must in
addition connect the two parity classes of the word (parity of the
number of generators of types 1..4 strictly before the position). These
are the matching constraints the pruning balance laws are derived from.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

from .braid import MAX_WORD_LENGTH

Comb = tuple[int, ...]
Matching = tuple[tuple[int, int], ...]

_PARTNER = {1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5}
_PAIR_OF = {1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2}  # which of the three type pairs


class CombError(ValueError):
    pass


@dataclass(frozen=True)
class WeightedComb:
    word: Comb
    alpha: int
    beta: int
    gamma: int

    def __post_init__(self):
        if any(g not in _PARTNER for g in self.word):
            raise CombError("comb letters must be generators 1..6")
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise CombError("weights must be nonnegative")


# -- closure ------------------------------------------------------------


def _parity_classes(word: Comb) -> list[int]:
    """parity[i] for positions of type-1/2 letters: the count of letters
    of types 1..4 strictly before position i, mod 2."""
    parity = []
    count = 0
    for g in word:
        parity.append(count % 2)
        if g in (1, 2, 3, 4):
            count += 1
    return parity


def _pair_allowed(word: Comb, parity: list[int], i: int, j: int) -> bool:
    if _PARTNER[word[i]] != word[j]:
        return False
    if _PAIR_OF[word[i]] == 0 and parity[i] == parity[j]:
        return False
    return True


def _balanced(word: Comb, positions: list[int]) -> bool:
    counts = [0, 0, 0]
    for p in positions:
        g = word[p]
        counts[_PAIR_OF[g]] += 1 if g % 2 else -1
    return counts == [0, 0, 0]


def find_closure(word: Comb) -> Matching | None:
    """Search for a closure matching; None when the comb is not closed.

    Chords of a perfect matching cross on the circle exactly when they
    cross as linear intervals, so the search runs the classic
    interval-splitting backtracking: the first open position pairs with
    a compatible partner, and the inside and outside are matched
    independently (each must be balanced in all three type pairs)."""
    parity = _parity_classes(word)

    def solve(positions: list[int]) -> Matching | None:
        if not positions:
            return ()
        i = positions[0]
        for idx in range(1, len(positions)):
            j = positions[idx]
            if not _pair_allowed(word, parity, i, j):
                continue
            inside = positions[1:idx]
            outside = positions[idx + 1:]
            if not _balanced(word, inside):
                continue
            left = solve(inside)
            if left is None:
                continue
            right = solve(outside)
            if right is None:
                continue
            return ((i, j),) + left + right
        return None

    if len(word) % 2:
        return None
    if not _balanced(word, list(range(len(word)))):
        return None
    return solve(list(range(len(word))))


@lru_cache(maxsize=200000)
def is_closed(word: Comb) -> bool:
    return find_closure(word) is not None


# -- chains -------------------------------------------------------------

_GAMMA_G2 = (6, 1, 6, 1, 6)
_GAMMA_G5 = (3, 6, 3, 6, 3)
_BETA_G5 = (4, 5, 4)


def chain_successors(w: WeightedComb) -> list[WeightedComb]:
    """One chain step. While gamma > 0 only the two gamma moves apply;
    then while alpha > 0 only g1 -> g3; then g5 -> g4 g5 g4 while
    beta > 0. Steps that would push a weight negative are excluded."""
    word, a, b, g = w.word, w.alpha, w.beta, w.gamma
    out: list[WeightedComb] = []
    if g > 0:
        for i, letter in enumerate(word):
            if letter == 2:
                out.append(WeightedComb(word[:i] + _GAMMA_G2 + word[i + 1:], a, b, g - 1))
            elif letter == 5 and a >= 3:
                out.append(WeightedComb(word[:i] + _GAMMA_G5 + word[i + 1:], a - 3, b, g - 1))
        return out
    if a > 0:
        for i, letter in enumerate(word):
            if letter == 1:
                out.append(WeightedComb(word[:i] + (3,) + word[i + 1:], a - 1, b, g))
        return out
    if b > 0:
        for i, letter in enumerate(word):
            if letter == 5:
                out.append(WeightedComb(word[:i] + _BETA_G5 + word[i + 1:], a, b - 1, g))
        return out
    return []


def _counts(word: Comb) -> tuple[int, int, int, int, int, int]:
    c = [0] * 6
    for letter in word:
        c[letter - 1] += 1
    return tuple(c)


def _feasible(w: WeightedComb) -> bool:
    """Necessary conditions for any chain from w to reach a closed comb.

    The per-pair imbalances must be correctable by the remaining moves:
    with x gamma-moves on g2 and y on g5 (x + y = gamma, 3y <= alpha),
    then alpha - 3y single g1 -> g3 moves and beta g5 moves,
        d12 + 3x - (alpha - 3y) = 0,
        d34 + (alpha - 3y) + 3y - 2*beta = 0,
        d56 - 3x - 3y = 0,
    and the moves need the letters they rewrite to exist."""
    n1, n2, n3, n4, n5, n6 = _counts(w.word)
    a, b, g = w.alpha, w.beta, w.gamma
    d12, d34, d56 = n1 - n2, n3 - n4, n5 - n6
    if d56 != 3 * g:
        # both gamma moves change n5 - n6 by exactly -3 (the g2 move adds
        # three g6's; the g5 move trades one g5 for two g6's)
        return False
    if d34 + a - 2 * b != 0:
        # both alpha-phase moves add one g3 per remaining alpha unit
        # (g1 -> g3 directly, the g5 gamma-move in triples), and each
        # beta move adds two g4's. The identity is phase independent.
        return False
    for y in range(0, g + 1):
        x = g - y
        if 3 * y > a:
            continue
        if d12 + 3 * x - (a - 3 * y) != 0:
            continue
        if y > n5 or x > n2:
            # nothing ever creates a g2 or a g5
            continue
        if b > 0 and n5 - y < 1:
            # beta moves rewrite a g5 in place; one must survive gamma
            continue
        if a - 3 * y > n1 + 2 * x:
            # g1 -> g3 needs a g1; gamma g2-moves add two g1's each.
            continue
        return True
    return False


def _parity_prune(w: WeightedComb) -> bool:
    """Once gamma = 0 the two parity classes of type-1/2 positions can
    each shrink by at most one per remaining alpha move."""
    if w.gamma != 0:
        return True
    parity = _parity_classes(w.word)
    e1 = sum(1 for i, g in enumerate(w.word) if g in (1, 2) and parity[i] == 0)
    e2 = sum(1 for i, g in enumerate(w.word) if g in (1, 2) and parity[i] == 1)
    return abs(e1 - e2) <= w.alpha


def _chains(w: WeightedComb, prune: bool, enough: float) -> int:
    """Number of chains from w down to a closed comb at zero weights,
    capped at `enough`: the search stops once it has found that many.
    Distinct rewrite positions count as distinct chains; successor words
    of one state are pairwise distinct, so memoising on states is exact,
    and so is memoising the capped counts, since
    min(cap, sum of counts) = min(cap, sum of capped counts)."""
    memo: dict[WeightedComb, int] = {}

    def count(state: WeightedComb) -> int:
        if state in memo:
            return memo[state]
        if state.alpha == 0 and state.beta == 0 and state.gamma == 0:
            result = 1 if is_closed(state.word) else 0
        elif prune and not (_feasible(state) and _parity_prune(state)):
            result = 0
        else:
            result = 0
            for s in chain_successors(state):
                result += count(s)
                if result >= enough:
                    result = enough
                    break
        memo[state] = result
        return result

    return count(w)


def mu_count(w: WeightedComb, prune: bool = True) -> int:
    """Number of chains from w down to a closed comb at zero weights."""
    return _chains(w, prune, math.inf)


def mu_exists(w: WeightedComb, prune: bool = True) -> bool:
    return _chains(w, prune, 1) > 0


def algebraic_realizability_verdict(ls) -> bool:
    """A trigonal scheme is realizable by nonsingular algebraic curves
    exactly when its weighted comb is the unit comb (empty scheme) or
    admits a chain to a closed comb."""
    from .lscheme import weighted_comb

    w = weighted_comb(ls)
    if not w.word:
        return True
    return mu_exists(w)


# -- text form ----------------------------------------------------------

_COMB_GROUP = re.compile(r"\(([^()]*)\)\^(\d+)")
_COMB_TOKEN = re.compile(r"^g([1-6])$")


def parse_comb(text: str) -> Comb:
    """Parse 'g<i>' tokens and '(...)^k' groups, innermost group first; a
    comb of more than MAX_WORD_LENGTH letters is refused before it is built."""
    text = text.strip()
    if text == "1":
        return ()
    while True:
        m = _COMB_GROUP.search(text)
        if not m:
            break
        head, body, tail = text[:m.start()], m.group(1).split(), text[m.end():]
        k = int(m.group(2))
        if len(head.split()) + len(body) * k + len(tail.split()) > MAX_WORD_LENGTH:
            raise CombError(f"comb longer than {MAX_WORD_LENGTH} letters")
        text = head + (f" {' '.join(body * k)} " if k else "") + tail
    word = []
    for token in text.split():
        tm = _COMB_TOKEN.match(token)
        if not tm:
            raise CombError(f"bad comb token {token!r}")
        word.append(int(tm.group(1)))
    return tuple(word)


def render_comb(word: Comb) -> str:
    if not word:
        return "1"
    return " ".join(f"g{letter}" for letter in word)


def parse_weighted_comb(text: str) -> WeightedComb:
    if "|" not in text:
        raise CombError("weighted comb text is '<comb> | alpha beta gamma'")
    comb_text, weight_text = text.split("|", 1)
    weights = weight_text.split()
    if len(weights) != 3:
        raise CombError("expected three weights")
    try:
        a, b, g = (int(x) for x in weights)
    except ValueError as exc:
        raise CombError(f"bad weights {weight_text!r}") from exc
    return WeightedComb(parse_comb(comb_text), a, b, g)


def render_weighted_comb(w: WeightedComb) -> str:
    return f"{render_comb(w.word)} | {w.alpha} {w.beta} {w.gamma}"
