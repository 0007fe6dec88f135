"""Seeded input generators for the four benchmark workloads.

Every generator takes the seed (or a ``random.Random`` built from it)
and returns plain data: tuples of braid letters, scheme texts, comb
words with weights. Nothing here calls into ``ruledcurves``, so making
the inputs warms none of the program's caches. The same seed always
gives the same inputs, and inputs inside one run are distinct.

Why each workload exists, and what it bypasses:

* ``obstruct-ladder``: the only workload where the determinant's
  2^(m-1) minors and Laurent coefficient growth dominate. Random braid
  words on m = 3..10 strands, with exponent sums drawn to hit every
  branch of the quasipositivity verdict (e < 0, e = 0 trivial and
  non-trivial, 0 < e < m-1, e = m-1). Bypasses the comb layer.
* ``trigonal-census``: the paper's real use, both decision sides on many
  small inputs. Every closed trigonal L-scheme on Sigma_n for a fixed
  set of n and a fixed maximum event count, in a seeded order. The
  2x2 Burau products and the Garside form at e = 0 dominate; the
  determinant is negligible, so a determinant-only change must show no
  change here.
* ``chain-search``: the only workload where the comb chain search does
  real work (the census decides most combs at the root). Closed combs
  are unwound by reverse chain moves, so mu >= 1, and perturbed by
  letter swaps that keep every balance, so the root pruning still
  passes and most of them need an exhaustive search with mu = 0.
  Bypasses the braid and invariant layers.
* ``cli-repro``: what a user pays per command-line query, start-up
  included. It has no generated input; the seed is not used.
"""

from __future__ import annotations

import random

# -- obstruct-ladder ------------------------------------------------------

LADDER_STRANDS = tuple(range(3, 11))
# Word length per strand count, set so that every rung (the five words
# of one m) costs about the same with the Laplace-expansion determinant:
# about 0.3 s on a 2-core x86-64 host. Equal rungs keep the median rung time
# steady; the growth with m shows in how fast the lengths fall, and a
# faster determinant shows as cheaper high-m rungs
# (invariants.alexander_polynomial.s.m9, .m10).
LADDER_LENGTH = {3: 200, 4: 136, 5: 104, 6: 88, 7: 72, 8: 64, 9: 56, 10: 56}
LADDER_CLASSES = ("negative", "zero-trivial", "zero", "middle", "top")


def _exponent_for(cls: str, m: int, rng: random.Random) -> int:
    if cls == "negative":
        return -rng.randint(1, m)
    if cls == "zero":
        return 0
    if cls == "middle":
        return rng.randint(1, m - 2) if m > 3 else 1
    return m - 1  # "top"


def _word_with_sum(m: int, length: int, e: int, rng: random.Random) -> list[int]:
    """A uniformly shuffled word of the given length and exponent sum."""
    if (length - e) % 2:
        length += 1
    positive = (length + e) // 2
    signs = [1] * positive + [-1] * (length - positive)
    rng.shuffle(signs)
    return [s * rng.randint(1, m - 1) for s in signs]


def _scramble(m: int, letters: list[int], rng: random.Random, moves: int) -> list[int]:
    """Apply random braid relations, so the word keeps its braid but is
    no longer freely reducible against the word it was derived from:
    s_i s_j = s_j s_i for |i - j| > 1 and s_i s_j s_i = s_j s_i s_j for
    |i - j| = 1 (with equal signs)."""
    w = list(letters)
    for _ in range(moves):
        if len(w) < 2:
            return w
        p = rng.randrange(len(w) - 1)
        a, b = w[p], w[p + 1]
        if abs(abs(a) - abs(b)) > 1:
            w[p], w[p + 1] = b, a
        elif (p + 2 < len(w) and w[p + 2] == a and abs(abs(a) - abs(b)) == 1
              and (a > 0) == (b > 0)):
            w[p:p + 3] = [b, a, b]
    return w


def _trivial_word(m: int, length: int, rng: random.Random) -> list[int]:
    """c x x' c^-1 where x' is a scrambled word for x^-1: trivial by
    construction, with exponent sum 0."""
    c = [rng.choice((1, -1)) * rng.randint(1, m - 1) for _ in range(length // 8)]
    x = [rng.choice((1, -1)) * rng.randint(1, m - 1) for _ in range(length // 4)]
    x_inv = _scramble(m, [-a for a in reversed(x)], rng, 4 * len(x))
    return c + x + x_inv + [-a for a in reversed(c)]


def ladder_round(seed: int, index: int) -> list[dict]:
    """One full ladder: a word of every exponent-sum class for every m.
    Rounds with different indices are independent draws."""
    rng = random.Random(f"ladder:{seed}:{index}")
    out = []
    for m in LADDER_STRANDS:
        length = LADDER_LENGTH[m]
        for cls in LADDER_CLASSES:
            if cls == "zero-trivial":
                letters = _trivial_word(m, length, rng)
            else:
                letters = _word_with_sum(m, length, _exponent_for(cls, m, rng), rng)
            out.append({"strands": m, "letters": letters, "class": cls})
    return out


# -- trigonal-census -----------------------------------------------------

CENSUS_SURFACES = (1, 2, 3)
CENSUS_MAX_EVENTS = 8
# In the full-count region the fiber meets the curve in 3 real points:
# tangencies >k and crossings xk apply. In the reduced region (1 point)
# only <k and ok do.
_FULL_EVENTS = (">1", ">2", "x1", "x2")
_REDUCED_EVENTS = ("<1", "<2", "o1", "o2")


def _closed_sequences(max_events: int) -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []

    def extend(seq: list[str], full: bool) -> None:
        if full:
            out.append(tuple(seq))
        if len(seq) == max_events:
            return
        for token in (_FULL_EVENTS if full else _REDUCED_EVENTS):
            seq.append(token)
            extend(seq, token[0] == "x" if full else token[0] == "<")
            seq.pop()

    extend([], True)
    return out


def census(seed: int) -> list[str]:
    """Every closed trigonal scheme text on the census surfaces, in a
    seeded order."""
    sequences = _closed_sequences(CENSUS_MAX_EVENTS)
    texts = [" ".join([f"n={n} m=3;", *seq]) for n in CENSUS_SURFACES for seq in sequences]
    random.Random(f"census:{seed}").shuffle(texts)
    return texts


# -- chain-search --------------------------------------------------------

_PARTNER = {1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5}
# Closed fragments P + mirror(P) that carry the pattern a reverse chain
# move needs: g6 g3 g6 g3 g6 (two reverse alpha moves give g6 g1 g6 g1 g6,
# the image of a gamma move on g2), g3 g6 g3 g6 g3 (the image of a gamma
# move on g5) and g4 g5 g4 (the image of a beta move on g5).
_MOTIFS = ((6, 3, 6, 3, 6), (3, 6, 3, 6, 3), (4, 5, 4))


def _closed_comb(pairs: int, motifs: int, rng: random.Random) -> list[int]:
    """A random closed comb: a non-crossing matching of partner letters.
    Every chord spans a closed sub-word, which holds an even number of
    type 1..4 letters, so the g1-g2 parity condition holds for all."""
    blocks: list[list[int]] = []
    for _ in range(motifs):
        p = list(rng.choice(_MOTIFS))
        blocks.append(p + [_PARTNER[x] for x in reversed(p)])
    for _ in range(pairs):
        x = rng.randint(1, 6)
        blocks.append([x, _PARTNER[x]])
    rng.shuffle(blocks)
    word: list[int] = []
    for block in blocks:
        if len(block) == 2 and rng.random() < 0.4:
            word = [block[0]] + word + [block[1]]  # a chord around all so far
        else:
            word = word + block
    return word


def _replace_at(word: list[int], pattern: tuple[int, ...], new: list[int],
                rng: random.Random) -> list[int] | None:
    hits = [i for i in range(len(word) - len(pattern) + 1)
            if tuple(word[i:i + len(pattern)]) == pattern]
    if not hits:
        return None
    i = rng.choice(hits)
    return word[:i] + new + word[i + len(pattern):]


def _unwind(word: list[int], rng: random.Random, beta_moves: int, alpha_moves: int,
            gamma_moves: int) -> tuple[list[int], int, int, int]:
    """Undo chain moves in reverse phase order (beta, then alpha, then
    gamma) starting from a closed comb at zero weights. Each undone move
    is a valid forward move read backwards, so the result has mu >= 1."""
    a = b = g = 0
    for _ in range(beta_moves):
        new = _replace_at(word, (4, 5, 4), [5], rng)
        if new is None:
            break
        word, b = new, b + 1
    # Prefer the g3's of a g6 g3 g6 g3 g6 run, so that gamma moves can be undone.
    for _ in range(gamma_moves):
        new = _replace_at(word, (6, 3, 6, 3, 6), [6, 1, 6, 1, 6], rng)
        if new is None:
            break
        word, a = new, a + 2
    threes = [i for i, x in enumerate(word) if x == 3]
    rng.shuffle(threes)
    for i in threes[:alpha_moves]:
        word[i] = 1
        a += 1
    for _ in range(gamma_moves):
        choices = [((6, 1, 6, 1, 6), [2], 0), ((3, 6, 3, 6, 3), [5], 3)]
        rng.shuffle(choices)
        for pattern, new_letters, da in choices:
            new = _replace_at(word, pattern, new_letters, rng)
            if new is not None:
                word, a, g = new, a + da, g + 1
                break
        else:
            break
    return word, a, b, g


# Sizes are fixed and small: the pruned search grows exponentially in
# the weights, and a few giant searches would make throughput unsteady.
# Each comb is unwound by one beta, two alpha and one gamma move where
# the patterns allow.
CHAIN_PAIRS = 4
CHAIN_MOTIFS = 2


def chain_batch(seed: int, index: int, size: int = 16) -> list[dict]:
    """Half positives (unwound closed combs, mu >= 1) and half
    balance-preserving perturbations of them (two pairs of letters
    swapped, so every letter count and weight is unchanged)."""
    rng = random.Random(f"chain:{seed}:{index}")
    out: list[dict] = []
    while len(out) < size:
        base = _closed_comb(CHAIN_PAIRS, CHAIN_MOTIFS, rng)
        word, a, b, g = _unwind(base, rng, 1, 2, 1)
        out.append({"word": word, "weights": [a, b, g], "positive": True})
        perturbed = list(word)
        for _ in range(2):
            for _ in range(20):
                i, j = rng.randrange(len(word)), rng.randrange(len(word))
                if perturbed[i] != perturbed[j]:
                    perturbed[i], perturbed[j] = perturbed[j], perturbed[i]
                    break
        out.append({"word": perturbed, "weights": [a, b, g], "positive": False})
    return out
