import random

import pytest

from ruledcurves.braid import exponent_sum, parse_braid
from ruledcurves.comb import WeightedComb, render_weighted_comb
from ruledcurves.lscheme import (
    ALG_RULES,
    PSEUDO_RULES,
    Event,
    LScheme,
    LSchemeError,
    parse_scheme,
    render_root_scheme,
    render_scheme,
    rewrite_alg,
    rewrite_pseudo,
    root_scheme,
    to_braid,
    weighted_comb,
)

EXAMPLE = "n=2 m=4; >3 o3^2 x1 o2^2 x1^4 / <3 x2^2 >3 <3"


def test_parse_example():
    ls = parse_scheme(EXAMPLE)
    assert ls.surface_index == 2 and ls.strands == 4
    assert len(ls.events) == 16
    assert ls.events[0] == Event(">", 3)
    assert ls.events[6] == Event("x", 1)


def test_parse_errors():
    with pytest.raises(LSchemeError):
        parse_scheme("n=0 m=4; >5")
    with pytest.raises(LSchemeError):
        parse_scheme("m=4; >1")
    with pytest.raises(LSchemeError):
        parse_scheme("n=0 m=4; z3")
    with pytest.raises(LSchemeError):
        parse_scheme("n=0 m=4; >1 >1")  # two descents in a row
    with pytest.raises(LSchemeError):
        parse_scheme("n=0 m=4; x3 >3 x3 <3")  # crossing too high in the low region


def test_empty_scheme_is_valid():
    ls = parse_scheme("n=0 m=3;")
    assert ls.events == ()
    assert to_braid(ls).letters == ()


def random_scheme(rng, n=None, m=None, max_events=12):
    n = rng.randint(0, 2) if n is None else n
    m = rng.randint(2, 5) if m is None else m
    events = []
    full = True
    for _ in range(rng.randint(0, max_events)):
        options = []
        if full:
            options.append(Event(">", rng.randint(1, m - 1)))
            if m >= 2:
                options.append(Event("x", rng.randint(1, m - 1)))
            options.append(Event("/", 0))
            options.append(Event("\\", 0))
        else:
            options.append(Event("<", rng.randint(1, m - 1)))
            options.append(Event("o", rng.randint(1, m - 1)))
            if m - 2 >= 2:
                options.append(Event("x", rng.randint(1, m - 3)))
            if m >= 3:
                options.append(Event("/", 0))
                options.append(Event("\\", 0))
        ev = rng.choice(options)
        events.append(ev)
        if ev.kind == ">":
            full = False
        elif ev.kind == "<":
            full = True
    if not full:
        events.append(Event("<", rng.randint(1, m - 1)))
    return LScheme(n, m, tuple(events))


def test_render_parse_round_trip():
    rng = random.Random(71)
    for _ in range(200):
        ls = random_scheme(rng)
        assert parse_scheme(render_scheme(ls)) == ls


def test_compiler_matches_printed_braid():
    got = to_braid(parse_scheme(EXAMPLE))
    expected = parse_braid(
        "strands=4; s3^-3 s1^-1 s2^-1 s3 s2^-2 s3^-1 s2 s1^-4 s2^-1 s3^2 s2 s1"
        " s2^-2 s3^-1 D^2")
    assert got.strands == 4
    assert got.letters == expected.letters


def test_compiler_single_oval_block():
    # >1 o1 <1 compiles to two descend/ascend blocks that each collapse
    # to a single negative letter once the transport words cancel
    got = to_braid(parse_scheme("n=0 m=3; >1 o1 <1"))
    assert got.letters == (-1, -1)


def test_compiler_exponent_sum_offset():
    rng = random.Random(73)
    for _ in range(80):
        ls = random_scheme(rng, n=0)
        base = to_braid(ls)
        for n in (1, 2):
            lifted = LScheme(n, ls.strands, ls.events)
            m = ls.strands
            assert exponent_sum(to_braid(lifted)) == \
                exponent_sum(base) + n * m * (m - 1) // 2
            assert to_braid(lifted).strands == m


def test_compiler_rejects_fragments():
    fragment = parse_scheme("n=0 m=3; <1 >2")
    with pytest.raises(LSchemeError):
        to_braid(fragment)


def test_rewrite_pseudo_examples():
    assert rewrite_pseudo(parse_scheme("n=0 m=3; <1 >2"), "cancel-pair", 0).events == ()
    assert rewrite_pseudo(parse_scheme("n=0 m=3; o2"), "drop-oval", 0).events == ()
    moved = rewrite_pseudo(parse_scheme("n=0 m=4; x1 >3"), "cross-commute", 0)
    assert moved.events == (Event(">", 3), Event("x", 1))
    slid = rewrite_pseudo(parse_scheme("n=0 m=3; x1 >2"), "cross-tangency", 0)
    assert slid.events == (Event("x", 2), Event(">", 1))
    back = rewrite_pseudo(parse_scheme("n=0 m=4; \\ >3"), "back-descend", 0)
    assert back.events == (Event("/", 0), Event(">", 1))
    assert rewrite_pseudo(back, "back-descend-rev", 0).events == \
        (Event("\\", 0), Event(">", 3))


def test_rewrite_oval_triple():
    ls = parse_scheme("n=0 m=3; >2 o2 <2 >1 <1")
    mid = rewrite_pseudo(ls, "oval-slide", 1)
    assert mid.events[1:4] == (Event("<", 2), Event("x", 1), Event(">", 2))
    third = rewrite_pseudo(mid, "oval-shift", 1)
    assert third.events[1:4] == (Event("<", 1), Event(">", 2), Event("o", 2))
    # and back again
    assert rewrite_pseudo(third, "oval-shift-rev", 1).events == mid.events
    assert rewrite_pseudo(mid, "oval-slide-rev", 1).events == ls.events


def test_rewrite_errors():
    with pytest.raises(LSchemeError):
        rewrite_pseudo(parse_scheme("n=0 m=4; x1 >2"), "cross-commute", 0)
    with pytest.raises(LSchemeError):
        rewrite_pseudo(parse_scheme("n=0 m=3; o2"), "no-such-rule", 0)
    with pytest.raises(LSchemeError):
        rewrite_pseudo(parse_scheme("n=0 m=3; o2"), "drop-oval", 5)


def test_rewrite_alg_examples():
    assert rewrite_alg(parse_scheme("n=0 m=3; >1 <2 >1 <1"), "descend-zigzag", 0).events \
        == (Event(">", 1), Event("<", 1))
    assert rewrite_alg(parse_scheme("n=0 m=3; <2 >1 <2"), "ascend-zigzag", 0).events \
        == (Event("<", 2),)
    with pytest.raises(LSchemeError):
        rewrite_alg(parse_scheme("n=0 m=5; >1 <3 >1 <1"), "descend-zigzag", 0)


def test_rewrite_event_counts():
    # every non-deleting move preserves the event count
    cases = [
        ("n=0 m=4; x1 >3", "cross-commute", 0),
        ("n=0 m=3; x1 >2", "cross-tangency", 0),
        ("n=0 m=3; >1 <2 x1", "tangency-cross", 1),
        ("n=0 m=4; \\ >3", "back-descend", 0),
        ("n=0 m=4; <3 / >1 <1", "ascend-slash", 0),
        ("n=0 m=4; \\ x1", "back-commute", 0),
        ("n=0 m=4; / x1", "slash-commute", 0),
        ("n=0 m=3; >2 o2 <2 >1 <1", "oval-slide", 1),
        ("n=0 m=4; <1 >3", "pair-commute", 0),
    ]
    for text, rule, pos in cases:
        ls = parse_scheme(text)
        assert len(rewrite_pseudo(ls, rule, pos).events) == len(ls.events)
    # the two deleting moves drop a fixed number of events
    assert len(rewrite_pseudo(parse_scheme("n=0 m=3; <1 >2"), "cancel-pair", 0).events) == 0
    assert len(rewrite_pseudo(parse_scheme("n=0 m=3; o1"), "drop-oval", 0).events) == 0


# One row per rule: (family, rule, scheme, position, events after the
# move, a scheme whose window at that position does not match). The
# expected events are read off the pattern comment of each rule.
MOVES = [
    ("pseudo", "cross-tangency", "n=0 m=3; x1 >2", 0, "x2 >1", "n=0 m=4; x1 >3"),
    ("pseudo", "tangency-cross", "n=0 m=3; >1 <2 x1", 1, ">1 <1 x2", "n=0 m=4; >1 <3 x1"),
    ("pseudo", "cross-commute", "n=0 m=4; x1 >3", 0, ">3 x1", "n=0 m=4; x1 >2"),
    ("pseudo", "back-descend", "n=0 m=4; \\ >3", 0, "/ >1", "n=0 m=4; \\ >2"),
    ("pseudo", "back-descend-rev", "n=0 m=4; / >1", 0, "\\ >3", "n=0 m=4; / >2"),
    ("pseudo", "ascend-slash", "n=0 m=4; <3 / >1 <1", 0, "<1 \\ >1 <1", "n=0 m=4; <2 / >1 <1"),
    ("pseudo", "ascend-slash-rev", "n=0 m=4; <1 \\ >1 <1", 0, "<3 / >1 <1",
     "n=0 m=4; <1 / >1 <1"),
    ("pseudo", "back-commute", "n=0 m=4; \\ x1", 0, "x1 \\", "n=0 m=4; \\ /"),
    ("pseudo", "back-commute-rev", "n=0 m=4; x1 \\", 0, "\\ x1", "n=0 m=4; x1 /"),
    ("pseudo", "slash-commute", "n=0 m=4; / x1", 0, "x1 /", "n=0 m=4; / \\"),
    ("pseudo", "slash-commute-rev", "n=0 m=4; x1 /", 0, "/ x1", "n=0 m=4; x1 \\"),
    ("pseudo", "oval-slide", "n=0 m=3; >2 o2 <2 >1 <1", 1, ">2 <2 x1 >2 <1",
     "n=0 m=3; >2 o2 <2 >2 <1"),
    ("pseudo", "oval-slide-rev", "n=0 m=3; >2 <2 x1 >2 <1", 1, ">2 o2 <2 >1 <1",
     "n=0 m=3; >2 <2 x2 >2 <1"),
    ("pseudo", "oval-shift", "n=0 m=3; >2 <2 x1 >2 <1", 1, ">2 <1 >2 o2 <1",
     "n=0 m=3; >2 <2 x1 >1 <1"),
    ("pseudo", "oval-shift-rev", "n=0 m=3; >2 <1 >2 o2 <1", 1, ">2 <2 x1 >2 <1",
     "n=0 m=3; >2 <1 >2 o1 <1"),
    ("pseudo", "cancel-pair", "n=0 m=3; <1 >2", 0, "", "n=0 m=3; <1 >1"),
    ("pseudo", "pair-commute", "n=0 m=4; <1 >3", 0, ">3 <1", "n=0 m=4; <1 >2"),
    ("pseudo", "drop-oval", "n=0 m=3; o2", 0, "", "n=0 m=3; x2"),
    ("alg", "descend-zigzag", "n=0 m=3; >1 <2 >1 <1", 0, ">1 <1", "n=0 m=3; >1 <2 >2 <1"),
    ("alg", "ascend-zigzag", "n=0 m=3; <2 >1 <2", 0, "<2", "n=0 m=3; <2 >1 <1"),
]


def test_move_rows_cover_every_rule():
    assert [row[1] for row in MOVES if row[0] == "pseudo"] == list(PSEUDO_RULES)
    assert [row[1] for row in MOVES if row[0] == "alg"] == list(ALG_RULES)


@pytest.mark.parametrize("family, rule, text, pos, expected, miss", MOVES,
                         ids=[row[1] for row in MOVES])
def test_move_table(family, rule, text, pos, expected, miss):
    rewrite = rewrite_pseudo if family == "pseudo" else rewrite_alg
    ls = parse_scheme(text)
    out = rewrite(ls, rule, pos)
    assert out == parse_scheme(f"{text.split(';')[0]}; {expected}")
    with pytest.raises(LSchemeError, match="does not match"):
        rewrite(parse_scheme(miss), rule, pos)
    # a -rev rule and its forward rule undo each other
    inverse = rule[:-len("-rev")] if rule.endswith("-rev") else f"{rule}-rev"
    if inverse in PSEUDO_RULES:
        assert rewrite(out, inverse, pos) == ls


def test_root_scheme_example():
    rs = root_scheme(parse_scheme("n=1 m=3; >2 <1 >2 o2 <2"))
    assert render_root_scheme(rs) == "q2 r1 p3 q2 p3 r1 q2 r1 r1 r1 r1"


def test_root_scheme_same_index_pairs():
    rs = root_scheme(parse_scheme("n=1 m=3; >2 <2 >2 <2"))
    assert rs == (("q", 2), ("r", 1), ("r", 1), ("r", 1), ("r", 1))


def test_root_scheme_structure():
    rng = random.Random(79)
    for _ in range(60):
        ls = random_scheme(rng, m=3)
        if any(ev.kind in "/\\" for ev in ls.events):
            continue
        rs = root_scheme(ls)
        for letter, mult in rs:
            assert mult == {"p": 3, "q": 2, "r": 1}[letter]


def test_root_scheme_rejects_non_trigonal():
    with pytest.raises(LSchemeError):
        root_scheme(parse_scheme("n=0 m=4; >1 <1"))


def test_weighted_comb_examples():
    w = weighted_comb(parse_scheme("n=1 m=3; >2 <2"))
    assert render_weighted_comb(w) == "g5 g2 | 2 1 1"
    w2 = weighted_comb(parse_scheme("n=1 m=3; >2 <1 >2 o2 <2"))
    assert render_weighted_comb(w2) == "g5 g6 g1 g4 g1 g6 g5 g2 g3 g2 | 0 0 0"


def test_weighted_comb_empty_scheme():
    for n in (0, 1, 2):
        w = weighted_comb(parse_scheme(f"n={n} m=3;"))
        assert w == WeightedComb((), 6 * n, 3 * n, 2 * n)


def test_weighted_comb_weight_errors():
    # too many events for the surface index: weights go negative
    with pytest.raises(LSchemeError):
        weighted_comb(parse_scheme("n=0 m=3; >2 <2"))
    with pytest.raises(LSchemeError):
        weighted_comb(parse_scheme("n=1 m=3; >1 <2 >1 <2"))


def test_weighted_comb_final_weights_always_even():
    # the halving precondition holds automatically for every well-formed
    # closed trigonal scheme: the wraparound block and the mixed-index
    # pairs balance modulo 2 around the circle
    rng = random.Random(89)
    for _ in range(300):
        ls = random_scheme(rng, m=3, max_events=8)
        if any(ev.kind in "/\\" for ev in ls.events):
            continue
        ls = LScheme(4, 3, ls.events)
        try:
            w = weighted_comb(ls)
        except LSchemeError:
            continue
        if ls.events:
            raw = (24 - 2 * w.alpha, 12 - 2 * w.beta, 8 - 2 * w.gamma)
            assert all(v >= 0 and v % 2 == 0 for v in raw)


def test_weighted_comb_nonnegative_on_valid_input():
    rng = random.Random(83)
    built = 0
    for _ in range(200):
        ls = random_scheme(rng, m=3, max_events=6)
        if any(ev.kind in "/\\" for ev in ls.events):
            continue
        ls = LScheme(3, 3, ls.events)  # generous surface index
        try:
            w = weighted_comb(ls)
        except LSchemeError:
            continue
        built += 1
        assert w.alpha >= 0 and w.beta >= 0 and w.gamma >= 0
    assert built > 40


def test_divisor_events_need_three_strands_in_reduced_region():
    # fine at the full count even for two strands
    parse_scheme("n=0 m=2; / \\")
    with pytest.raises(LSchemeError):
        parse_scheme("n=0 m=2; >1 / <1")
