import itertools
import random
import re
from collections import deque

import pytest

from ruledcurves.braid import (
    MAX_STRANDS,
    MAX_WORD_LENGTH,
    BraidError,
    _left_weight_pair,
    BraidWord,
    compose,
    conjugate,
    delta,
    equals,
    exponent_sum,
    free_reduce,
    garside_normal_form,
    identity,
    inverse,
    is_trivial,
    parse_braid,
    power,
    render_braid,
    word,
)


def random_word(rng, m=None, max_len=20, min_len=0):
    m = m or rng.randint(2, 5)
    letters = [rng.choice((1, -1)) * rng.randint(1, m - 1)
               for _ in range(rng.randint(min_len, max_len))]
    return word(m, letters)


def long_words(rng, count=30):
    """Words on 3 to 6 strands of 40 to 80 letters: long enough for many
    factors, so the normal form's sweep runs through long sequences."""
    return [random_word(rng, m=rng.randint(3, 6), min_len=40, max_len=80)
            for _ in range(count)]


def test_delta():
    assert delta(2).letters == (1,)
    assert delta(3).letters == (1, 2, 1)
    assert delta(4).letters == (1, 2, 3, 1, 2, 1)
    for m in range(2, 7):
        assert exponent_sum(delta(m)) == m * (m - 1) // 2
    with pytest.raises(BraidError):
        delta(1)


def test_exponent_sum():
    assert exponent_sum(delta(3)) == 3
    assert exponent_sum(parse_braid("strands=3; s2^-7 s1 s2 D^2")) == 1
    for a, b, g in ((0, 6, 0), (3, 3, 0), (1, 5, 0)):
        text = "strands=3; s1^-1 s2^-1 s1"
        if g:
            text += f" s2^{-g}"
        text += " s1^-1 s2^2 s1"
        if b:
            text += f" s2^{-b}"
        text += " s1^-1 s2"
        if a:
            text += f" s1^{-a}"
        text += " s2^-1 s1 D^2"
        assert exponent_sum(parse_braid(text)) == 7 - (a + b + g)


def test_compose_inverse_conjugate():
    s1 = word(2, [1])
    assert is_trivial(compose(s1, inverse(s1)))
    assert inverse(word(3, [1, 2])).letters == (-2, -1)
    assert exponent_sum(conjugate(word(3, [2]), word(3, [1]))) == 1
    with pytest.raises(BraidError):
        compose(word(2, [1]), word(3, [1]))
    with pytest.raises(BraidError, match="strand count mismatch"):
        equals(word(2, [1]), word(3, [1]))
    with pytest.raises(BraidError, match="letter 3 out of range for 3 strands"):
        BraidWord(3, (3,))


def test_exponent_sum_homomorphism():
    rng = random.Random(4)
    for _ in range(100):
        m = rng.randint(2, 5)
        a, b = random_word(rng, m), random_word(rng, m)
        assert exponent_sum(compose(a, b)) == exponent_sum(a) + exponent_sum(b)
        assert exponent_sum(inverse(a)) == -exponent_sum(a)


def test_braid_relations():
    for m in (3, 4, 5):
        for i in range(1, m - 1):
            assert equals(word(m, [i, i + 1, i]), word(m, [i + 1, i, i + 1]))
        for i in range(1, m):
            for j in range(1, m):
                if abs(i - j) > 1:
                    assert equals(word(m, [i, j]), word(m, [j, i]))


def test_triviality():
    assert is_trivial(identity(4))
    assert not is_trivial(word(2, [1]))
    b12 = parse_braid(
        "strands=4; s2^-1 s3^-1 s2 s3^-1 s2^-1 s3^-3 s2^-1 s3 s1^-1 s2^-2 s3^-1"
        " s1 s2^2 s1^-1 s2^-2 s1^-1 s2^-1 D^2")
    b13 = parse_braid(
        "strands=4; s2^-3 s3^-1 s2^-1 s3 s2^-1 s3^-1 s2 s1^-2 s2^-1 s1^-1 s3^-1"
        " s1 s2^2 s1^-2 s2^-1 s1^-2 s2^-1 s3 D^2")
    assert is_trivial(b12)
    assert is_trivial(b13)


def test_inverse_trivial_randomized():
    rng = random.Random(11)
    for _ in range(200):
        b = random_word(rng)
        assert is_trivial(compose(b, inverse(b)))


def test_normal_form_identity_characterisation():
    nf = garside_normal_form(identity(3))
    assert nf.infimum == 0 and nf.factors == ()
    assert nf.is_identity()


def test_normal_form_factors_are_proper():
    rng = random.Random(13)
    for b in [random_word(rng) for _ in range(150)] + long_words(rng):
        nf = garside_normal_form(b)
        m = b.strands
        ident = tuple(range(m))
        w0 = tuple(range(m - 1, -1, -1))
        for f in nf.factors:
            assert f != ident and f != w0


def test_normal_form_left_weighted():
    # finishing set of each factor contains the starting set of the next
    rng = random.Random(17)
    for b in [random_word(rng) for _ in range(150)] + long_words(rng):
        nf = garside_normal_form(b)
        for f, g in zip(nf.factors, nf.factors[1:]):
            inv_f = [0] * len(f)
            for x, y in enumerate(f):
                inv_f[y] = x
            finishing = {i for i in range(1, len(f)) if inv_f[i - 1] > inv_f[i]}
            starting = {i for i in range(1, len(g)) if g[i - 1] > g[i]}
            assert starting <= finishing


def slide_one_letter_at_a_time(a, b):
    """Reference left-weighting: recompute the right descents of a and
    the left descents of b, slide the smallest movable s_i (a <- a s_i,
    b <- s_i b, composed as tuples), repeat. Returns the pair and the
    slid letters in order."""
    m, slides = len(a), []
    while True:
        inv_a = [0] * m
        for x, y in enumerate(a):
            inv_a[y] = x
        movable = [i for i in range(1, m) if b[i - 1] > b[i] and inv_a[i - 1] < inv_a[i]]
        if not movable:
            return (a, b), slides
        i = movable[0]
        s = list(range(m))
        s[i - 1], s[i] = i, i - 1
        a, b = tuple(s[x] for x in a), tuple(b[x] for x in s)
        slides.append(i)


def test_left_weight_pair_against_one_letter_slides():
    # Every pair in S_4, and seeded pairs in S_5..S_10. The left-weighted
    # pair does not depend on the slide order, which only sets the cost.
    rng = random.Random(83)
    pairs = list(itertools.product(itertools.permutations(range(4)), repeat=2))
    assert len(pairs) == 576
    for m in range(5, 11):
        for _ in range(300):
            pairs.append(tuple(tuple(rng.sample(range(m), m)) for _ in range(2)))
    slid = 0
    for a, b in pairs:
        expected, slides = slide_one_letter_at_a_time(a, b)
        assert _left_weight_pair(a, b) == expected
        slid += len(slides)
    assert slid > len(pairs)


def test_normal_form_idempotent():
    rng = random.Random(19)
    for b in [random_word(rng) for _ in range(200)] + long_words(rng):
        nf = garside_normal_form(b)
        assert garside_normal_form(nf.to_word()) == nf


def test_normal_form_delta_power_law():
    # NF(Delta^k w) = Delta^(inf+k) A_1 ... A_r, and w Delta^k = Delta^k
    # w' with w' = w conjugated k times by Delta, which flips each factor
    def flip(p):
        m = len(p)
        return tuple(m - 1 - p[m - 1 - x] for x in range(m))

    rng = random.Random(41)
    for b in [random_word(rng) for _ in range(40)] + long_words(rng, count=10):
        nf = garside_normal_form(b)
        flipped = tuple(map(flip, nf.factors))
        for k in (-1, 1, 2):
            d = power(delta(b.strands), k)
            left = garside_normal_form(compose(d, b))
            right = garside_normal_form(compose(b, d))
            assert (left.infimum, left.factors) == (nf.infimum + k, nf.factors)
            assert (right.infimum, right.factors) == \
                (nf.infimum + k, flipped if k % 2 else nf.factors)


def _tietze_component(start, max_len, cap=4000):
    """All words of length <= max_len reachable from start by free
    insertion/cancellation and the braid relation in three strands."""
    seen = {start}
    queue = deque([start])
    while queue and len(seen) < cap:
        w = queue.popleft()
        candidates = []
        for i in range(len(w) + 1):
            for g in (1, -1, 2, -2):
                candidates.append(w[:i] + (g, -g) + w[i:])
        for i in range(len(w) - 1):
            if w[i] == -w[i + 1]:
                candidates.append(w[:i] + w[i + 2:])
        for i in range(len(w) - 2):
            a, b, c = w[i:i + 3]
            if a == c and abs(a) == 1 and abs(b) == 2 and (a > 0) == (b > 0):
                candidates.append(w[:i] + (b, a, b) + w[i + 3:])
            if a == c and abs(a) == 2 and abs(b) == 1 and (a > 0) == (b > 0):
                candidates.append(w[:i] + (b, a, b) + w[i + 3:])
        for c in candidates:
            if len(c) <= max_len and c not in seen:
                seen.add(c)
                queue.append(c)
    return seen


def test_equals_against_tietze_rewriting():
    rng = random.Random(23)
    for _ in range(12):
        length = rng.randint(0, 6)
        start = tuple(rng.choice((1, -1, 2, -2)) for _ in range(length))
        component = _tietze_component(start, max_len=length + 4)
        sample = rng.sample(sorted(component), min(12, len(component)))
        a = word(3, start)
        for other in sample:
            assert equals(a, word(3, other))
    # distinct exponent sums are never equal
    assert not equals(word(3, (1,)), word(3, (2, 2)))
    assert not equals(word(2, (1,)), identity(2))


def test_equals_equivalence_relation():
    rng = random.Random(29)
    words = [random_word(rng, m=3, max_len=8) for _ in range(12)]
    for a in words:
        assert equals(a, a)
        for b in words:
            assert equals(a, b) == equals(b, a)


def test_parse_render_round_trip():
    rng = random.Random(31)
    for _ in range(100):
        b = random_word(rng)
        assert parse_braid(render_braid(b)) == b
    assert parse_braid("strands=3; s2^-7 s1 s2 D^2").letters == \
        (-2,) * 7 + (1, 2) + delta(3).letters * 2
    assert parse_braid("strands=3; D^-1").letters == inverse(delta(3)).letters
    with pytest.raises(BraidError):
        parse_braid("s1 s2")
    with pytest.raises(BraidError):
        parse_braid("strands=3; s9")


def test_parse_refuses_words_beyond_the_cap():
    # Each text is a few bytes but expands to more than MAX_WORD_LENGTH
    # letters; the parser refuses before building the list.
    for text in ("strands=2; s1^1000000000", "strands=2; s1^-1000000000",
                 "strands=4; D^1000000000", f"strands={MAX_STRANDS}; D^50",
                 f"strands=3; s1^{MAX_WORD_LENGTH // 2} s2^-{MAX_WORD_LENGTH // 2 + 1}"):
        with pytest.raises(BraidError, match="longer than"):
            parse_braid(text)
    assert len(parse_braid(f"strands=2; s1^{MAX_WORD_LENGTH}")) == MAX_WORD_LENGTH
    assert parse_braid(f"strands={MAX_STRANDS}; D^0 s1").letters == (1,)
    # A strand count past MAX_STRANDS is refused from the header alone:
    # the invariants would build (m-1)^2 matrix entries.
    for text in ("strands=1000000; D", "strands=1000000; D^0 s1",
                 f"strands={MAX_STRANDS + 1}; s1"):
        with pytest.raises(BraidError, match="strands must be"):
            parse_braid(text)


def test_free_reduce():
    assert free_reduce(word(3, [1, -1, 2])).letters == (2,)
    assert free_reduce(word(3, [1, 2, -2, -1])).letters == ()


def test_power():
    b = word(3, [1, 2])
    assert power(b, 3).letters == (1, 2) * 3
    assert is_trivial(compose(power(b, 2), power(b, -2)))


def test_equals_against_faithful_representation():
    """The reduced Burau representation is faithful on three strands, so
    matrix equality is an exact independent oracle for braid equality."""
    from ruledcurves.invariants import reduced_burau

    rng = random.Random(37)
    for _ in range(150):
        a = random_word(rng, m=3, max_len=10)
        b = random_word(rng, m=3, max_len=10)
        assert equals(a, b) == (reduced_burau(a) == reduced_burau(b))
    # guaranteed-equal pairs through explicit relation moves
    for _ in range(60):
        letters = list(random_word(rng, m=3, max_len=8).letters)
        other = list(letters)
        for _ in range(rng.randint(1, 4)):
            move = rng.randint(0, 1)
            pos = rng.randint(0, len(other))
            if move == 0:
                g = rng.choice((1, -1, 2, -2))
                other[pos:pos] = [g, -g]
            else:
                other[pos:pos] = [1, 2, 1]
                other[pos + 3:pos + 3] = [-2, -1, -2]
        a, b = word(3, letters), word(3, other)
        assert equals(a, b)
        assert reduced_burau(a) == reduced_burau(b)


def test_braid_word_is_a_validating_named_tuple():
    b = BraidWord(3, (1,))
    assert b == (3, (1,)) and hash(b) == hash((3, (1,)))
    assert repr(b) == "BraidWord(strands=3, letters=(1,))"
    assert len(b) == 1 and not BraidWord(3, ()) and b.strands == 3
    assert BraidWord._make((4, (3,))) == b._replace(strands=4, letters=(3,)) == word(4, [3])
    for strands, letters, message in ((3, (3,), "letter 3 out of range for 3 strands"),
                                      (3, (0,), "letter 0 out of range for 3 strands"),
                                      (3, (1, -3), "letter -3 out of range for 3 strands"),
                                      (1, (), "a braid group needs at least 2 strands"),
                                      # no text form writes these, so they are refused
                                      (3.0, (1,), "strands must be an int, not float"),
                                      (True, (), "strands must be an int, not bool"),
                                      (3, (1.0,), "each letter must be an int, not float"),
                                      (3, (1, True), "each letter must be an int, not bool"),
                                      (3, [1], "letters must be a tuple, not list")):
        for build in (lambda: BraidWord(strands, letters),
                      lambda: BraidWord._make((strands, letters)),
                      lambda: b._replace(strands=strands, letters=letters)):
            with pytest.raises(BraidError, match=re.escape(message)):
                build()
    with pytest.raises(BraidError, match=re.escape("letter 2 out of range for 2 strands")):
        BraidWord(3, (2, 1))._replace(strands=2)
    for field in ("strands", "letters"):
        with pytest.raises(AttributeError):
            setattr(b, field, getattr(b, field))
