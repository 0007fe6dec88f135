"""
The comb semigroup on generators g1..g6, closure decision, chains of
weighted combs, and the multiplicity count backing the algebraic
realizability verdict for trigonal schemes.

A comb is a word over {1..6}; the unit comb is the empty word. A closure
joins every g1 to a g2, every g3 to a g4 and every g5 to a g6 by
pairwise non-crossing chords on the circular word; a g1-g2 chord must in
addition connect the two parity classes of the word (parity of the
number of generators of types 1..4 strictly before the position). A
comb is closed exactly when cancelling adjacent partners empties it, so
one stack pass decides closure in O(length); the parity law then holds
by itself. These are the matching constraints the pruning balance laws
are derived from.

That cancellation is free reduction in the free group on g1, g3 and g5,
with g2 = g1^-1, g4 = g3^-1 and g6 = g5^-1, and a comb is closed exactly
when it reduces to the identity. A homomorphism maps the identity to the
identity, so a closed comb stays closed under any letter map that is
one: erasing g3 and g4 (onto the free group on g1 and g5) is the one
the chain search uses.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from typing import NamedTuple

from .braid import MAX_DEPTH, MAX_WORD_LENGTH, check_ints, parse_int

Comb = tuple[int, ...]
Matching = tuple[tuple[int, int], ...]

_PARTNER = {1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5}
_LETTERS = frozenset(_PARTNER)


class CombError(ValueError):
    pass


class WeightedComb(NamedTuple("_WeightedComb", [
        ("word", Comb), ("alpha", int), ("beta", int), ("gamma", int)])):
    """A named tuple, equal to the plain 4-tuple (word, alpha, beta,
    gamma). The constructor, _make and _replace check the fields: a tuple
    of int letters 1..6 and three nonnegative int weights."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, word: Comb, alpha: int, beta: int, gamma: int):
        if not isinstance(word, tuple):
            raise CombError(f"a comb word must be a tuple, not {type(word).__name__}")
        check_ints("each comb letter", word, CombError)
        if not _LETTERS.issuperset(word):
            raise CombError("comb letters must be generators 1..6")
        check_ints("each weight", (alpha, beta, gamma), CombError)
        if alpha < 0 or beta < 0 or gamma < 0:
            raise CombError("weights must be nonnegative")
        return tuple.__new__(cls, (word, alpha, beta, gamma))


# -- closure ------------------------------------------------------------


def find_closure(word: Comb) -> Matching | None:
    """The closure matching, chords sorted by first position; None when
    the comb is not closed.

    Chords of a perfect matching cross on the circle exactly when they
    cross as linear intervals, and a non-crossing perfect matching always
    has a chord between two adjacent letters. So a closure exists exactly
    when cancelling adjacent partners (g1/g2, g3/g4, g5/g6, in either
    order) empties the word. Cancellation is confluent, as free reduction
    is, so one greedy stack pass decides it in O(length). The parity law
    needs no check: the letters strictly inside a chord are matched among
    themselves, so an even number of them have types 1..4, and the two
    ends of a g1-g2 chord fall in different parity classes."""
    open_positions: list[int] = []
    chords: list[tuple[int, int]] = []
    for j, letter in enumerate(word):
        if open_positions and word[open_positions[-1]] == _PARTNER[letter]:
            chords.append((open_positions.pop(), j))
        else:
            open_positions.append(j)
    if open_positions:
        return None
    return tuple(sorted(chords))


def _closes(word: Comb) -> bool:
    """find_closure(word) is not None, by its stack pass on letters alone."""
    stack = [0]  # no letter cancels the 0 at the bottom
    for letter in word:
        if stack[-1] == _PARTNER[letter]:
            stack.pop()
        else:
            stack.append(letter)
    return len(stack) == 1


@lru_cache(maxsize=200000)
def is_closed(word: Comb) -> bool:
    return _closes(word)


# -- chains -------------------------------------------------------------

_GAMMA_G2 = (6, 1, 6, 1, 6)
_GAMMA_G5 = (3, 6, 3, 6, 3)
_BETA_G5 = (4, 5, 4)


def chain_successors(w: WeightedComb) -> list[WeightedComb]:
    """One chain step. While gamma > 0 only the two gamma moves apply;
    then while alpha > 0 only g1 -> g3; then g5 -> g4 g5 g4 while
    beta > 0. Steps that would push a weight negative are excluded.
    Successors of a valid comb are valid, so they skip the checks."""
    word, a, b, g = w
    new = tuple.__new__
    out: list[WeightedComb] = []
    if g > 0:
        for i, x in enumerate(word):
            if x == 2:
                out.append(new(WeightedComb, (word[:i] + _GAMMA_G2 + word[i + 1:], a, b, g - 1)))
            elif x == 5 and a >= 3:
                out.append(new(WeightedComb,
                               (word[:i] + _GAMMA_G5 + word[i + 1:], a - 3, b, g - 1)))
        return out
    if a > 0:
        letter, replacement, weights = 1, (3,), (a - 1, b, g)
    elif b > 0:
        letter, replacement, weights = 5, _BETA_G5, (a, b - 1, g)
    else:
        return out
    for i, x in enumerate(word):
        if x == letter:
            out.append(new(WeightedComb, (word[:i] + replacement + word[i + 1:], *weights)))
    return out


def _chains(w: WeightedComb, enough: float) -> int:
    """The number of chains from w down to a closed comb at zero weights,
    by the literal chain walk, capped at `enough`: the search stops once
    it has found that many. The unpruned search runs it, and the tests
    compare the phase count against it. Distinct rewrite positions count
    as distinct chains; successor words of one state are pairwise
    distinct, so memoising on states is exact, and so is memoising the
    capped counts, since min(cap, sum of counts) = min(cap, sum of capped
    counts). A state costs O(length): the slice that builds it or, at a
    leaf, one stack pass. Nothing outlives the search's own memo."""
    memo: dict[WeightedComb, int] = {}
    # The depth-first search keeps its own stack, so a chain may be longer
    # than Python's recursion limit. One frame per state being counted:
    # [state, successors not yet counted, count so far].
    frames: list[list] = []
    state = w
    while True:
        if state in memo:
            value = memo[state]
        elif not (state.alpha or state.beta or state.gamma):
            value = memo[state] = 1 if _closes(state.word) else 0
        else:
            frames.append([state, iter(chain_successors(state)), 0])
            value = None
        while frames:
            frame = frames[-1]
            if value is not None:
                frame[2] = min(enough, frame[2] + value)
            state = next(frame[1], None) if frame[2] < enough else None
            if state is not None:
                break
            frames.pop()
            value = memo[frame[0]] = frame[2]
        else:
            return value


def _rewrite(word: Comb | list[int], at: dict[int, Comb]) -> list[int]:
    """word with the letter at each position i in `at` replaced by at[i]."""
    out: list[int] = []
    last = 0
    for i in sorted(at):
        out += word[last:i]
        out += at[i]
        last = i + 1
    out += word[last:]
    return out


def _phase_chains(w: WeightedComb, enough: float) -> int:
    """The chain count of _chains, by phase instead of by walk, from the
    root laws down to the leaves.

    Three balance laws open it, from six letter counts, and reject most
    combs of a scheme census before any choice. With x gamma-moves on g2
    and y on g5 (x + y = gamma, 3y <= alpha), then alpha - 3y single
    g1 -> g3 moves and beta g5 moves, a closed leaf needs
        d12 + 3x - (alpha - 3y) = 0,
        d34 + (alpha - 3y) + 3y - 2*beta = 0,
        d56 - 3x - 3y = 0.

    No move creates a target of its own phase: the gamma replacements
    hold no g2 or g5, alpha makes no g1, and beta's g4 g5 g4 keeps its
    one g5. So a chain is fixed by a gamma set (gamma - y g2's and y
    g5's, 3y <= alpha, leaving a g5 when beta > 0), an alpha set of
    a' = alpha - 3y g1's after gamma, and a beta multiset (j_i expansions
    g5 -> g4^j g5 g4^j of the g5's left), in any order within each phase.
    Such a choice has gamma! a'! beta! / prod(j_i!) orderings, each a
    distinct chain, and all end in the same leaf.

    Two parity laws cut the choices. The letters strictly inside a chord
    of a closure are matched among themselves, so an even number of them
    have types 1..4: a g1-g2 chord joins the two parity classes and a
    g5-g6 chord stays in one. A closed leaf therefore has as many g1/g2
    in class 0 as in class 1, and in each class as many g5 as g6.
    - Alpha moves take a g1 out of its class and keep every parity;
      beta moves keep the g1/g2 classes. With the classes differing by
      diff after gamma, the alpha set takes exactly k0 = (a' + diff)/2
      g1's from class 0, and no other split is tried.
    - g4^j g5 g4^j moves its g5 to the other class when j is odd and
      keeps the parity of every other letter, so only beta multisets
      whose odd j_i balance the g5/g6 classes are tried.
    At gamma = 0 the g1/g2 law reads the word itself, so a comb whose
    classes differ by more than alpha is rejected before any leaf. A
    gamma set that leaves no beta multiset tries no alpha set.

    A third law cuts whole alpha sets. Erasing g3 and g4 maps a closed
    comb to a closed one (module docstring), and maps g4^j g5 g4^j to g5,
    so every leaf of one gamma set and alpha set has the same erased
    word: the after-alpha word with its g3's and g4's erased. When that
    does not close, no beta multiset is tried. On the benchmark's
    chain-search combs (seed 1, batches 0-39: 639 combs, mu_exists then
    mu_count), 8,638 alpha sets reach the law and 2,701 pass it; the
    leaf stack passes fall from 30,596 to 9,181, of which 2,219 close.
    The cost is one stack pass on the erased word per alpha set, and one
    per choice that passes all three laws; the count is capped at
    `enough` as in _chains."""
    word, a, b, g = w
    if word.count(5) - word.count(6) != 3 * g:
        # both gamma moves change n5 - n6 by exactly -3 (the g2 move adds
        # three g6's; the g5 move trades one g5 for two g6's)
        return 0
    if word.count(3) - word.count(4) + a - 2 * b != 0:
        # both alpha-phase moves add one g3 per remaining alpha unit
        # (g1 -> g3 directly, the g5 gamma-move in triples), and each
        # beta move adds two g4's. The identity is phase independent.
        return 0
    if word.count(1) - word.count(2) + 3 * g != a:
        # with x = g - y the first identity reads d12 + 3g - a = 0 for
        # every split of the gamma moves
        return 0
    total = 0
    g2s = [i for i, x in enumerate(word) if x == 2]
    g5s = [i for i, x in enumerate(word) if x == 5]
    # The bounds on y:
    #   3y <= alpha;
    #   x <= n2 and y <= n5: nothing ever creates a g2 or a g5;
    #   y <= n5 - 1 when beta > 0: beta moves rewrite a g5 in place, and
    #     one must survive gamma;
    #   alpha - 3y <= n1 + 2x: g1 -> g3 needs a g1, and gamma g2-moves add
    #     two g1's each. By the third law this is x <= n2 again.
    for y in range(max(0, g - len(g2s)), min(g, a // 3, len(g5s) - (b > 0)) + 1):
        rest = a - 3 * y
        orderings = math.factorial(g) * math.factorial(rest) * math.factorial(b)
        for on_g5 in combinations(g5s, y):
            for on_g2 in combinations(g2s, g - y):
                mid = _rewrite(word, {**dict.fromkeys(on_g2, _GAMMA_G2),
                                      **dict.fromkeys(on_g5, _GAMMA_G5)})
                # g1 positions and signed g1/g2 and g5/g6 sums by parity
                # class (+1 for class 0, -1 for class 1; g6 counts negative)
                ones: tuple[list[int], list[int]] = ([], [])
                fives: dict[int, int] = {}
                diff12 = diff56 = parity = 0
                for i, letter in enumerate(mid):
                    sign = 1 - 2 * parity
                    if letter <= 2:
                        diff12 += sign
                        if letter == 1:
                            ones[parity].append(i)
                    elif letter == 5:
                        fives[i] = sign
                        diff56 += sign
                    elif letter == 6:
                        diff56 -= sign
                    if letter <= 4:
                        parity ^= 1
                k0, odd = divmod(rest + diff12, 2)
                if odd or not 0 <= k0 <= rest:
                    continue
                betas = []
                for expanded in combinations_with_replacement(fives, b):
                    js = dict.fromkeys(expanded, 0)
                    for i in expanded:
                        js[i] += 1
                    if 2 * sum(fives[i] for i, j in js.items() if j % 2) == diff56:
                        betas.append(({i: (4,) * j + (5,) + (4,) * j for i, j in js.items()},
                                      orderings // math.prod(map(math.factorial, js.values()))))
                if not betas:
                    continue
                for alpha0, alpha1 in product(combinations(ones[0], k0),
                                              combinations(ones[1], rest - k0)):
                    after_alpha = list(mid)
                    for i in alpha0 + alpha1:
                        after_alpha[i] = 3
                    if not _closes([x for x in after_alpha if x != 3 and x != 4]):
                        continue  # no beta multiset changes the g3/g4-erased word
                    for at, count in betas:
                        if _closes(_rewrite(after_alpha, at)):
                            total += count
                            if total >= enough:
                                return enough
    return total


def mu_count(w: WeightedComb, prune: bool = True) -> int:
    """Number of chains from w down to a closed comb at zero weights.
    Pruned, _phase_chains decides it alone: three balance laws at the
    root, then gamma! a'! beta! / prod(j_i!) summed over the phase
    choices whose leaf closes, trying only the choices that pass its two
    parity laws and whose alpha set passes the g3/g4-erased law, with one
    stack pass each. The erased law skips about 70% of the leaves that
    pass the parity laws on the chain-search combs (_phase_chains).
    prune=False runs _chains, the literal chain walk that the tests
    compare the phase count against."""
    return (_phase_chains if prune else _chains)(w, math.inf)


def mu_exists(w: WeightedComb, prune: bool = True) -> bool:
    """mu_count(w, prune) > 0, by the same search stopping at the first
    closing leaf."""
    return (_phase_chains if prune else _chains)(w, 1) > 0


def algebraic_realizability_verdict(ls) -> bool:
    """True when the weighted comb is the unit comb (empty scheme) or has a
    chain to a closed comb. A False means only that this minimal comb has
    no chain, not that no algebraic curve has the scheme: the explicit
    algebraic curve of L-scheme `n=2 m=3; >2 <2` gets a False."""
    from .lscheme import weighted_comb

    w = weighted_comb(ls)
    if not w.word:
        return True
    return mu_exists(w)


# -- text form ----------------------------------------------------------

# Whitespace, an opening parenthesis, a closing ')^k', a letter, or one
# character of anything else.
_COMB_LEXEME = re.compile(r"(\s+)|(\()|\)\^([0-9]+)|g([1-6])|\S")


def parse_comb(text: str) -> Comb:
    """Parse 'g<i>' tokens and '(...)^k' groups in one pass, keeping the
    letters of the open groups on a stack. Before a group is expanded, the
    comb it would make, with the letters written after it counted once, is
    refused if longer than MAX_WORD_LENGTH letters; a group nested deeper
    than MAX_DEPTH is refused at its '('. Letters must be apart:
    whitespace or a group with k >= 1 parts them, an erased group ()^0
    does not, so 'g1g2' and 'g1(g2)^0g3' are refused unless erased."""
    if text.strip() == "1":
        return ()
    lexemes = list(_COMB_LEXEME.finditer(text))
    spare = MAX_WORD_LENGTH - sum(1 for m in lexemes if m.group(4))  # minus held and unread
    # The open group's letters, its first two touching letters, and
    # whether its last lexeme is a letter; the enclosing groups' are
    # stacked with the position of their '('.
    letters, touching, adjacent, stack = [], None, False, []
    for m in lexemes:
        space, group, power, letter = m.groups()
        if letter:
            if adjacent:
                touching = touching or f"g{letters[-1]}g{letter}"
            letters.append(int(letter))
            adjacent = True
        elif space:
            adjacent = False
        elif group:
            # a closing group copies its letters into its parent: at most MAX_DEPTH copies
            if len(stack) == MAX_DEPTH:
                raise CombError(f"groups nested deeper than {MAX_DEPTH}")
            stack.append((letters, touching, adjacent, m.start()))
            letters, touching, adjacent = [], None, False
        elif power is None or not stack:
            raise CombError(f"bad comb token {text[m.start():].split()[0]!r}")
        else:
            k = parse_int(power, CombError)
            spare -= len(letters) * (k - 1)
            if spare < 0:
                raise CombError(f"comb longer than {MAX_WORD_LENGTH} letters")
            body, inner = letters, touching
            letters, touching, before, _ = stack.pop()
            # k passes the cap only for an empty body, and [] * k overflows past sys.maxsize
            letters += body * min(k, MAX_WORD_LENGTH)
            touching = touching or (inner if k else None)
            adjacent = before and not k
    if stack or touching:
        raise CombError(f"bad comb token {touching or text[stack[0][3]:].split()[0]!r}")
    return tuple(letters)


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
        # a weight not -?[0-9]+ ('+1', '1_0') drops out, and the unpacking fails
        a, b, g = (parse_int(x, CombError) for x in weights if re.fullmatch("-?[0-9]+", x))
    except ValueError as exc:
        raise CombError(f"bad weights {weight_text!r}") from exc
    return WeightedComb(parse_comb(comb_text), a, b, g)


def render_weighted_comb(w: WeightedComb) -> str:
    return f"{render_comb(w.word)} | {w.alpha} {w.beta} {w.gamma}"
