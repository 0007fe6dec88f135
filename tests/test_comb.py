import itertools
import random
import time
import tracemalloc

import pytest

from ruledcurves import comb
from ruledcurves.braid import MAX_DEPTH, MAX_WORD_LENGTH
from ruledcurves.comb import (
    CombError,
    WeightedComb,
    algebraic_realizability_verdict,
    chain_successors,
    find_closure,
    is_closed,
    mu_count,
    mu_exists,
    parse_comb,
    parse_weighted_comb,
    render_comb,
    render_weighted_comb,
)
from ruledcurves.lscheme import LScheme, LSchemeError, parse_scheme, weighted_comb
from test_lscheme import _closed_trigonal_events

CLOSED_EXAMPLE = (5, 6, 1, 4, 1, 6, 5, 2, 3, 2)
W1 = parse_weighted_comb(
    "g3 g6 g1 g4 g1 g6 g5 g2 g3 g6 g1 g4 g1 g6 (g3 g2)^3 g3 g6 g1 g4 g1 g6 g5 g2 | 1 2 0")
W2 = parse_weighted_comb("(g3 g2 g3 g2 g3 g2 g3 g6 g1 g4 g1 g6)^3 | 3 6 2")


def test_parse_render():
    assert parse_comb("g5 g6 g1 g4 g1 g6 g5 g2 g3 g2") == CLOSED_EXAMPLE
    assert parse_comb("(g3 g2)^3") == (3, 2, 3, 2, 3, 2)
    assert parse_comb("1") == ()
    assert render_comb(()) == "1"
    assert parse_comb(render_comb(CLOSED_EXAMPLE)) == CLOSED_EXAMPLE
    w = parse_weighted_comb("g5 g2 | 2 1 1")
    assert w == WeightedComb((5, 2), 2, 1, 1)
    assert parse_weighted_comb(render_weighted_comb(w)) == w
    with pytest.raises(CombError):
        parse_comb("g7")
    with pytest.raises(CombError):
        parse_weighted_comb("g1 g2")
    with pytest.raises(CombError):
        WeightedComb((1,), -1, 0, 0)
    with pytest.raises(CombError, match="generators 1..6"):
        WeightedComb((7,), 0, 0, 0)
    # int() alone would read '1_0' as 10 and '+1' as 1
    for weights in ("a b c", "1_0 0 0", "+1 0 0", "0 0 " + "9" * 5000):
        with pytest.raises(CombError, match="bad weights"):
            parse_weighted_comb(f"g1 g2 | {weights}")
    with pytest.raises(CombError, match="weights must be nonnegative"):
        parse_weighted_comb("g1 g2 | -1 0 0")


def test_parse_comb_groups_and_cap():
    assert parse_comb("(g1 (g3 g4)^2 g2)^2") == (1, 3, 4, 3, 4, 2) * 2
    assert parse_comb("((g1 g2)^2 g3)^3") == (1, 2, 1, 2, 3) * 3
    assert parse_comb("g1 ()^1000000000 g2") == (1, 2)
    with pytest.raises(CombError):
        parse_comb("g1(g2)^0g3")  # an empty power does not split tokens apart
    # Refused before expansion, also when each group alone is short.
    for text in ("(g1 g2)^1000000000", "((g1)^1000)^1000",
                 f"(g1 g2)^{MAX_WORD_LENGTH // 2} g3"):
        with pytest.raises(CombError, match="longer than"):
            parse_comb(text)
    # A bad token is refused before its group is copied: 4 KB of text
    # must not become 400 MB.
    tracemalloc.start()
    try:
        with pytest.raises(CombError, match="bad comb token"):
            parse_comb(f"(g{'1' * 4000})^{MAX_WORD_LENGTH}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_parse_comb_is_one_pass():
    # A text that rescanned and rebuilt itself at each group would cost
    # quadratic time: many groups after a long one, 4 KB in all.
    text = "(g1 g2)^48000 " + " ".join(["(g1)^1"] * 580)
    assert len(text) == 4073
    start = time.perf_counter()
    word = parse_comb(text)
    assert time.perf_counter() - start < 1.0
    assert word == (1, 2) * 48000 + (1,) * 580


def test_parse_comb_caps_group_nesting():
    # Each level copies its letters into its parent, so depth is capped.
    assert parse_comb("(" * MAX_DEPTH + "g1" + ")^2" * MAX_DEPTH) == (1,) * 2 ** MAX_DEPTH
    deeper = MAX_DEPTH + 1
    for text in ("(" * deeper + "g1" + ")^1" * deeper, "(" * 570 + "(g1)^99000" + ")^1" * 570):
        with pytest.raises(CombError, match=f"nested deeper than {MAX_DEPTH}"):
            parse_comb(text)


def test_closure_anchors():
    assert is_closed(CLOSED_EXAMPLE)
    assert is_closed(())
    assert not is_closed((1,))
    assert not is_closed((1, 3, 2, 4))  # typed chords would have to cross
    assert not is_closed((5, 6, 6))  # unbalanced
    # Closure is one cancellation pass, so its cost is linear at any size.
    for word in ((1, 2) * 50_000, (1,) * 50_000 + (2,) * 50_000):
        start = time.perf_counter()
        assert len(find_closure(word)) == 50_000
        assert time.perf_counter() - start < 1.0


def test_closure_matching_properties():
    """Every returned matching satisfies the balance law for each chord
    and the parity law for each g1-g2 chord, rechecked independently, and
    lists its chords by first position."""
    rng = random.Random(101)
    checked = 0
    words = [CLOSED_EXAMPLE]
    for _ in range(400):
        words.append(tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 10))))
    for word in words:
        matching = find_closure(word)
        if matching is None:
            continue
        checked += 1
        assert list(matching) == sorted(matching)
        seen = set()
        for i, j in matching:
            assert {word[i], word[j]} in ({1, 2}, {3, 4}, {5, 6})
            seen.update((i, j))
            inside = [p for p in range(len(word)) if i < p < j]
            outside = [p for p in range(len(word)) if p < i or p > j]
            for region in (inside, outside):
                for low, high in ((1, 2), (3, 4), (5, 6)):
                    lows = sum(1 for p in region if word[p] == low)
                    highs = sum(1 for p in region if word[p] == high)
                    assert lows == highs
            if {word[i], word[j]} == {1, 2}:
                def parity(pos):
                    return sum(1 for p in range(pos) if word[p] in (1, 2, 3, 4)) % 2
                assert parity(i) != parity(j)
        # non-crossing: no two chords interleave
        for a, b in matching:
            for c, d in matching:
                if (a, b) < (c, d):
                    assert not (a < c < b < d or c < a < d < b)
        assert seen == set(range(len(word)))
    assert checked > 30


def test_chain_successors():
    assert chain_successors(WeightedComb((2,), 0, 0, 1)) == \
        [WeightedComb((6, 1, 6, 1, 6), 0, 0, 0)]
    assert chain_successors(WeightedComb((1, 1), 2, 0, 0)) == \
        [WeightedComb((3, 1), 1, 0, 0), WeightedComb((1, 3), 1, 0, 0)]
    assert chain_successors(WeightedComb((3,), 0, 1, 0)) == []
    # gamma move on g5 needs alpha >= 3
    assert chain_successors(WeightedComb((5,), 2, 0, 1)) == []
    assert chain_successors(WeightedComb((5,), 3, 0, 1)) == \
        [WeightedComb((3, 6, 3, 6, 3), 0, 0, 0)]
    # beta move
    assert chain_successors(WeightedComb((5,), 0, 1, 0)) == \
        [WeightedComb((4, 5, 4), 0, 0, 0)]


def test_successors_equal_checked_combs():
    rng = random.Random(131)
    for _ in range(200):
        word = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 8)))
        w = WeightedComb(word, rng.randint(0, 4), rng.randint(0, 2), rng.randint(0, 2))
        for s in chain_successors(w):
            assert type(s) is WeightedComb
            assert s == WeightedComb(s.word, s.alpha, s.beta, s.gamma)
            assert s == (s.word, s.alpha, s.beta, s.gamma)
            assert hash(s) == hash((s.word, s.alpha, s.beta, s.gamma))


def test_constructor_checks():
    for bad in ((7,), (0,), (1, 2, 7)):
        with pytest.raises(CombError, match="generators 1..6"):
            WeightedComb(bad, 0, 0, 0)
    for weights in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
        with pytest.raises(CombError, match="nonnegative"):
            WeightedComb((1, 2), *weights)
    # a list word would reach the searches unhashable, and a bool or float
    # letter or weight would render as text that the parser refuses
    for fields, message in ((([1, 2], 0, 0, 0), "a comb word must be a tuple, not list"),
                            (((True, 2), 1, 0, 0), "each comb letter must be an int, not bool"),
                            (((1.0, 2), 1, 0, 0), "each comb letter must be an int, not float"),
                            (((1, 2), 1.0, 0, 0), "each weight must be an int, not float"),
                            (((1, 2), 0, 0, False), "each weight must be an int, not bool")):
        for build in (lambda: WeightedComb(*fields), lambda: WeightedComb._make(fields)):
            with pytest.raises(CombError, match=message):
                build()
    w = WeightedComb((5, 2), 2, 1, 1)
    assert w == ((5, 2), 2, 1, 1) and w.word == (5, 2) and w.gamma == 1
    assert w._replace(alpha=0) == ((5, 2), 0, 1, 1)
    with pytest.raises(CombError):
        w._replace(beta=-1)
    with pytest.raises(CombError):
        WeightedComb._make(((7,), 0, 0, 0))


def test_priority_discipline():
    rng = random.Random(103)
    for _ in range(200):
        word = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 6)))
        w = WeightedComb(word, rng.randint(0, 3), rng.randint(0, 2), rng.randint(0, 2))
        for s in chain_successors(w):
            if w.gamma > 0:
                assert s.gamma == w.gamma - 1
                assert s.beta == w.beta
            elif w.alpha > 0:
                assert (s.alpha, s.beta, s.gamma) == (w.alpha - 1, w.beta, 0)
            else:
                assert (s.alpha, s.beta, s.gamma) == (0, w.beta - 1, 0)
            assert (s.gamma, s.alpha, s.beta) < (w.gamma, w.alpha, w.beta)


def test_chain_termination_bound():
    rng = random.Random(107)
    for _ in range(50):
        word = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 5)))
        w = WeightedComb(word, rng.randint(0, 3), rng.randint(0, 2), rng.randint(0, 2))
        depth = 0
        frontier = [w]
        while frontier and depth <= w.alpha + w.beta + w.gamma:
            frontier = [s for x in frontier for s in chain_successors(x)]
            depth += 1
        assert not frontier  # all chains end within alpha + beta + gamma steps


def test_mu_anchors():
    assert not mu_exists(W1)
    assert mu_count(W1) == 0
    assert not mu_exists(W2)
    assert mu_count(W2) == 0
    closed = WeightedComb(CLOSED_EXAMPLE, 0, 0, 0)
    assert mu_exists(closed)
    assert mu_count(closed) == 1


def test_mu_counts_position_choices():
    # two g1 positions, each a distinct one-step chain when closable
    w = WeightedComb((1, 2), 1, 0, 0)
    # g1 -> g3 gives (3, 2): not closed; so zero chains
    assert mu_count(w) == 0
    # a comb that closes after one move, two ways
    w2 = WeightedComb((1, 1, 2, 2), 2, 0, 0)
    succ = chain_successors(w2)
    assert len(succ) == 2
    total = mu_count(w2)
    assert total == sum(mu_count(s) for s in succ)


def test_mu_pruned_equals_unpruned():
    """Pruned and unpruned counts agree, and the early-stopping existence
    search agrees with the full count. The existence search runs first, so
    a count cut short by its early stop and kept for a later search shows;
    mu3 has three chains, so there the early stop does cut a count short."""
    rng = random.Random(109)
    words = [tuple(rng.randint(1, 6) for _ in range(length))
             for length in range(0, 7) for _ in range(6)]
    combs = [WeightedComb(word, alpha, beta, gamma)
             for word in words
             for alpha in range(0, 4) for beta in range(0, 3) for gamma in range(0, 3)]
    mu3 = parse_weighted_comb("g2 g5 g2 g5 g2 g5 | 0 0 1")
    counts = {}
    for w in combs + [mu3]:
        exists = {p: mu_exists(w, prune=p) for p in (True, False)}
        counts[w] = mu_count(w, prune=False)
        assert mu_count(w, prune=True) == counts[w], w
        for p in (True, False):
            assert exists[p] == (counts[w] > 0), (w, p)
    assert counts[mu3] == 3


_PARTNER = {1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5}
# Closed blocks are P followed by the partners of P reversed. Each P
# carries what a reverse chain move needs: g4 g5 g4 is the image of a beta
# move on g5, g3 g6 g3 g6 g3 that of a gamma move on g5, and g6 g3 g6 g3 g6
# becomes g6 g1 g6 g1 g6, the image of a gamma move on g2, after two
# reverse alpha moves.
_PATTERNS = ((4, 5, 4), (3, 6, 3, 6, 3), (6, 3, 6, 3, 6))


def _replace(word, pattern, replacement, rng):
    hits = [i for i in range(len(word)) if word[i:i + len(pattern)] == pattern]
    if not hits:
        return None
    i = rng.choice(hits)
    return word[:i] + replacement + word[i + len(pattern):]


def _unwound_comb(rng, length):
    """A closed comb of `length` letters, unwound by reverse chain moves
    in reverse phase order (beta, alpha, gamma), so its mu is at least 1.
    Inserting a closed block anywhere in a closed word keeps it closed."""
    blocks = [p + tuple(_PARTNER[x] for x in reversed(p)) for p in rng.sample(_PATTERNS, 2)]
    while sum(map(len, blocks)) < length:
        x = rng.randint(1, 6)
        blocks.append((x, _PARTNER[x]))
    word = ()
    for block in blocks:
        i = rng.randint(0, len(word))
        word = word[:i] + block + word[i:]
    a = b = g = 0
    if (new := _replace(word, (4, 5, 4), (5,), rng)) is not None:
        word, b = new, 1
    if (new := _replace(word, (6, 3, 6, 3, 6), (6, 1, 6, 1, 6), rng)) is not None:
        word, a = new, 2
    threes = [i for i, x in enumerate(word) if x == 3]
    for i in rng.sample(threes, min(rng.randint(0, 2), len(threes))):
        word, a = word[:i] + (1,) + word[i + 1:], a + 1
    for pattern, letter, da in rng.sample([((6, 1, 6, 1, 6), 2, 0), ((3, 6, 3, 6, 3), 5, 3)], 2):
        if (new := _replace(word, pattern, (letter,), rng)) is not None:
            word, a, g = new, a + da, g + 1
            break
    return WeightedComb(word, a, b, g)


def _swapped(w, rng, swaps):
    """w with `swaps` pairs of distinct letters exchanged: every letter
    count and weight is kept, so the balance laws still pass."""
    word = list(w.word)
    for _ in range(swaps):
        i, j = rng.sample(range(len(word)), 2)
        while word[i] == word[j]:
            i, j = rng.sample(range(len(word)), 2)
        word[i], word[j] = word[j], word[i]
    return WeightedComb(tuple(word), w.alpha, w.beta, w.gamma)


def test_mu_pruned_equals_unpruned_on_long_combs(monkeypatch):
    """The balance, parity and g3/g4-erased laws prune no chain on combs
    of 16-26 letters: unwound closed combs (mu >= 1) and letter-swapped
    copies (mostly mu = 0, where pruning does the work). The last two
    combs pass every balance law. Only the parity law rejects the first.
    Only the erased law rejects the second: each of its two alpha sets
    erases to g1 g5 g2 g6, which does not close, so no beta leaf (which
    would hold a g4) is tried."""
    parity_only = parse_weighted_comb("g1 g3 g1 g4 g2 g4 | 1 0 0")
    erased_only = parse_weighted_comb("g1 g1 g1 g5 g2 g6 | 2 1 0")
    for w in (parity_only, erased_only):
        n = [w.word.count(x) for x in range(7)]
        # d12 = alpha, d34 + alpha - 2 beta = 0, d56 = 3 gamma: balanced
        assert n[1] - n[2] == w.alpha and n[3] - n[4] + w.alpha == 2 * w.beta and n[5] == n[6]
    closes = comb._closes
    passes, expanded = [], []
    monkeypatch.setattr(comb, "_closes", lambda word: passes.append(list(word)) or closes(word))
    monkeypatch.setattr(comb, "chain_successors",
                        lambda w: expanded.append(w) or chain_successors(w))
    assert mu_count(parity_only) == 0
    assert passes == []  # rejected before any stack pass
    assert mu_count(parity_only, prune=False) == 0 and expanded == [parity_only]
    passes.clear()
    assert mu_count(erased_only) == 0
    assert passes == [[1, 5, 2, 6]] * 2  # one pass per alpha set, on its erased word
    passes.clear()
    assert mu_count(erased_only, prune=False) == 0
    assert len(passes) == 3 and all(4 in word for word in passes)  # the walk tries 3 leaves
    monkeypatch.undo()
    rng = random.Random(127)
    combs = []
    for _ in range(40):
        w = _unwound_comb(rng, rng.randint(16, 26))
        assert mu_exists(w, prune=False)
        combs += [w, _swapped(w, rng, 1), _swapped(w, rng, 2)]
    combs += [parity_only, erased_only]
    counts = []
    for w in combs:
        count = mu_count(w, prune=False)
        counts.append(count)
        assert mu_count(w, prune=True) == count, w
        for p in (True, False):
            assert mu_exists(w, prune=p) == (count > 0), (w, p)
    assert counts[-2:] == [0, 0]
    assert sum(c > 0 for c in counts) >= 40 and sum(c == 0 for c in counts) >= 20
    assert max(counts) > 1


def test_closed_combs_close_with_g3_g4_erased():
    """The law behind the pruned count's alpha-set cut. Closing is free
    reduction to the identity, and erasing g3 and g4 is a homomorphism of
    free groups, so every closed comb still closes with them erased. Here
    on every closed comb of at most 8 letters, each built once or more as
    x C x' C' from shorter closed combs C and C' (x' the partner of x)."""
    closed = [{()}]
    for n in range(1, 5):
        closed.append({(x, *inner, _PARTNER[x], *outer)
                       for k in range(n) for inner in closed[k] for outer in closed[n - 1 - k]
                       for x in range(1, 7)})
    words = set().union(*closed)
    assert len(words) == 13735
    for word in words:
        assert find_closure(word) is not None
        assert find_closure(tuple(x for x in word if x not in (3, 4))) is not None, word


def test_erased_law_saves_leaf_stack_passes(monkeypatch):
    """The g3/g4-erased law's saving, counted in stack passes rather than
    time. On 15 seeded combs with beta >= 2 (five from _phase_unwound and
    two letter-swapped copies of each), mu_exists then mu_count tried
    9,397 leaves, by one stack pass each, before the law; with it they try
    2,592 leaves and pass over 228 erased words, under a third as many
    passes in all. Every leaf holds a g4 from its beta expansions and no
    erased word does, so the letters tell the two kinds of pass apart."""
    rng = random.Random(151)
    combs = []
    for _ in range(5):
        w = _phase_unwound(rng)
        combs += [w, _swapped(w, rng, 1), _swapped(w, rng, 2)]
    closes = comb._closes
    passes = []
    monkeypatch.setattr(comb, "_closes", lambda word: passes.append(4 in word) or closes(word))
    total = 0
    for w in combs:
        assert w.beta >= 2
        mu_exists(w)
        total += mu_count(w)
    assert total == 7488
    assert sum(passes) < 9397 and len(passes) < 9397 / 3


def _root_laws(w):
    """Whether w passes each root law of the pruned count: n5 - n6 =
    3 gamma, the g3/g4 identity, d12 + 3 gamma = alpha and, at gamma = 0,
    the parity sweep (the g1/g2 classes differ by at most alpha)."""
    word, a, b, g = w
    n = [word.count(x) for x in range(7)]
    diff = parity = 0
    for letter in word:
        if letter <= 2:
            diff += 1 - 2 * parity
        if letter <= 4:
            parity ^= 1
    return [n[5] - n[6] == 3 * g, n[3] - n[4] + a - 2 * b == 0,
            n[1] - n[2] + 3 * g == a, g > 0 or abs(diff) <= a]


@pytest.mark.parametrize("law, text", enumerate([
    "g1 g1 g5 g5 | 2 1 0",
    "g1 | 1 0 0",
    "g1 g1 | 0 0 0",
    "g1 g3 g2 g4 | 0 0 0",
]), ids=["d56", "d34", "d12", "parity"])
def test_each_root_law_rejects_before_any_leaf(monkeypatch, law, text):
    """Each comb fails exactly one root law, and the pruned count rejects
    it without a stack pass, on a leaf or on an erased word; a dropped law
    would let it make one. The y-range has no such comb: a skipped lower
    bound reaches no rewrite."""
    w = parse_weighted_comb(text)
    assert _root_laws(w) == [i != law for i in range(4)]
    closes = comb._closes
    leaves = []
    monkeypatch.setattr(comb, "_closes", lambda word: leaves.append(word) or closes(word))
    assert mu_count(w) == 0 and not mu_exists(w)
    assert leaves == []
    assert mu_count(w, prune=False) == 0 and not mu_exists(w, prune=False)


def _phase_unwound(rng):
    """A closed comb unwound by two gamma moves, at least two alpha moves
    after them and beta >= 2 moves on two g5's, so its mu is at least 1.
    The closed comb nests blocks P + mirror(P) at random, never inside a
    motif P: g4^j g5 g4^j (j = 1 or 2), g4 g5 g4, a g6 g3 g6 g3 g6, one
    more gamma motif and at most one partner pair. Unwinding may spoil a
    later motif, so a comb that misses a gamma move is drawn again."""
    while True:
        beta = [(4,) * j + (5,) + (4,) * j for j in (rng.randint(1, 2), 1)]
        gamma = [(6, 3, 6, 3, 6), rng.choice([(6, 3, 6, 3, 6), (3, 6, 3, 6, 3)])]
        tokens = []
        for p in beta + gamma + [(x,) for x in rng.choices(range(1, 7), k=rng.randint(0, 1))]:
            i = rng.randint(0, len(tokens))
            tokens[i:i] = [p] + [(_PARTNER[x],) for x in reversed(p)]
        word = sum(tokens, ())
        b = 0
        for p in sorted(beta, key=len, reverse=True):
            word, b = _replace(word, p, (5,), rng), b + len(p) // 2
        a = 0
        for _ in range(gamma.count((6, 3, 6, 3, 6))):
            word, a = _replace(word, (6, 3, 6, 3, 6), (6, 1, 6, 1, 6), rng), a + 2
        threes = [i for i, x in enumerate(word) if x == 3]
        for i in rng.sample(threes, rng.randint(0, 1)):
            word, a = word[:i] + (1,) + word[i + 1:], a + 1
        g = 0
        for _ in range(2):
            for pattern, letter, da in ((6, 1, 6, 1, 6), 2, 0), ((3, 6, 3, 6, 3), 5, 3):
                if (new := _replace(word, pattern, (letter,), rng)) is not None:
                    word, a, g = new, a + da, g + 1
                    break
        if g == 2:
            return WeightedComb(word, a, b, g)


def test_mu_phase_multiplicities_equal_unpruned():
    """The phase count's orderings gamma! a'! beta! / prod(j_i!) and its
    two parity laws, against the literal walk, on combs where every
    factor is above 1: gamma = 2, at least two alpha moves left after
    gamma and beta >= 2 spread over two g5's. Mirrored words swap the
    parity classes of the letters."""
    rng = random.Random(139)
    counts = []
    for _ in range(20):
        w = _phase_unwound(rng)
        assert w.gamma == 2 and w.beta >= 2 and w.alpha >= 2
        for v in (w, w._replace(word=w.word[::-1])):
            count = mu_count(v, prune=False)
            counts.append(count)
            assert count >= 1 and mu_count(v) == count, v
            assert mu_exists(v) and mu_exists(v, prune=False), v
    assert max(counts) > 1000


def test_mu_pruned_equals_unpruned_on_scheme_census():
    """Every closed m = 3 scheme with at most 6 events on the first and
    second surfaces, as a weighted comb unless its weights go negative:
    the pruned search agrees with the literal walk on each."""
    combs = []
    for n in (1, 2):
        for events in _closed_trigonal_events(6):
            try:
                combs.append(weighted_comb(LScheme(n, 3, events)))
            except LSchemeError:
                pass
    counts = {}
    for w in sorted(set(combs)):
        counts[w] = mu_count(w, prune=False)
        assert mu_count(w) == counts[w], w
        for p in (True, False):
            assert mu_exists(w, prune=p) == (counts[w] > 0), (w, p)
    assert len(combs) == 2760 and sum(counts[w] > 0 for w in combs) == 76


def test_chain_search_leaves_no_process_state():
    """Leaves are decided without is_closed, so a search leaves its cache
    as it was."""
    w = _unwound_comb(random.Random(137), 24)
    before = is_closed.cache_info().currsize
    assert mu_exists(w) and mu_count(w) >= 1
    assert is_closed.cache_info().currsize == before


def test_realizability_verdict():
    # empty scheme: unit comb, realizable
    assert algebraic_realizability_verdict(parse_scheme("n=1 m=3;"))
    assert algebraic_realizability_verdict(parse_scheme("n=0 m=3;"))
    # the closed-comb example scheme is realizable
    assert algebraic_realizability_verdict(parse_scheme("n=1 m=3; >2 <1 >2 o2 <2"))
    # one wave on the first surface is not
    assert not algebraic_realizability_verdict(parse_scheme("n=1 m=3; >2 <2"))


def _all_matchings(positions):
    if not positions:
        yield ()
        return
    first, rest = positions[0], positions[1:]
    for k, second in enumerate(rest):
        for sub in _all_matchings(rest[:k] + rest[k + 1:]):
            yield ((first, second),) + sub


def _closed_by_brute_force(word):
    """Independent oracle: enumerate every perfect matching and filter
    by the three constraints checked one by one."""
    if len(word) % 2:
        return False

    def parity(pos):
        return sum(1 for p in range(pos) if word[p] in (1, 2, 3, 4)) % 2

    for matching in _all_matchings(tuple(range(len(word)))):
        if any({word[i], word[j]} not in ({1, 2}, {3, 4}, {5, 6})
               for i, j in matching):
            continue
        if any(a < c < b < d or c < a < d < b
               for a, b in matching for c, d in matching if (a, b) != (c, d)):
            continue
        if any({word[i], word[j]} == {1, 2} and parity(i) == parity(j)
               for i, j in matching):
            continue
        return True
    return False


def test_is_closed_against_brute_force():
    for length in range(0, 5):
        for word in itertools.product(range(1, 7), repeat=length):
            assert is_closed(word) == _closed_by_brute_force(word), word
            assert (find_closure(word) is not None) == is_closed(word), word
    balanced = [word for word in itertools.product(range(1, 7), repeat=6)
                if all(word.count(low) == word.count(low + 1) for low in (1, 3, 5))]
    closed = 0
    for word in balanced:
        closed += is_closed(word)
        assert is_closed(word) == _closed_by_brute_force(word), word
    assert (len(balanced), closed) == (1860, 876)
    rng = random.Random(113)
    for _ in range(300):
        word = tuple(rng.randint(1, 6) for _ in range(rng.choice((6, 8))))
        assert is_closed(word) == _closed_by_brute_force(word), word
