import itertools
import random
import re
from pathlib import Path

import pytest

from ruledcurves import lscheme
from ruledcurves.braid import (
    MAX_STRANDS, MAX_WORD_LENGTH, BraidWord, compose, delta, exponent_sum, free_reduce, parse_braid,
    power, word,
)
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
    with pytest.raises(LSchemeError, match="longer than"):
        parse_scheme("n=0 m=3; o1^1000000000")  # refused before expansion
    with pytest.raises(LSchemeError, match="longer than"):
        parse_scheme(f"n=0 m=3; o1^{MAX_WORD_LENGTH} x1")
    for text, message in (
            ("n=0 m=3; >1 <1 <1", "event 2 (<1): tangency up needs the reduced count"),
            ("n=0 m=3; >1 <3", "event 1 (<3): index out of range"),
            ("n=0 m=3; >1 <1 o1", "event 2 (o1): solitary double point needs the reduced count"),
            ("n=0 m=3; >1 o3 <1", "event 1 (o3): index out of range"),
            ("n=0 m=3; x1^0", "bad repetition in token 'x1^0'")):
        with pytest.raises(LSchemeError, match=re.escape(message)):
            parse_scheme(text)


def test_direct_construction_refusals():
    with pytest.raises(LSchemeError, match="unknown event kind 'z'"):
        LScheme(0, 3, (Event("z", 1),))
    # kinds outside the six are refused where they stand, also those that
    # are substrings of the six
    for kind in ("", "/\\", "<o"):
        refusal = re.escape(f"event 1 ({kind}0): unknown event kind")
        with pytest.raises(LSchemeError, match=refusal):
            LScheme(0, 3, (Event("x", 1), Event(kind, 0)))
    # a divisor event has no index, so no text writes one but 0
    with pytest.raises(LSchemeError, match=re.escape("event 0 (/): divisor event index must be 0")):
        LScheme(0, 3, (Event("/", 2),))
    # only an int index has a text form; a list of events is stored as a tuple
    for index, name in ((1.0, "float"), (True, "bool")):
        with pytest.raises(LSchemeError, match=f"index must be an int, not {name}"):
            LScheme(0, 3, (Event("x", index),))
    assert LScheme(0, 3, [Event("x", 1)]) == parse_scheme("n=0 m=3; x1")
    with pytest.raises(LSchemeError, match="surface index must be nonnegative"):
        LScheme(-1, 3, ())
    with pytest.raises(LSchemeError, match="at least 2 strands"):
        LScheme(0, 1, ())


def test_lscheme_is_a_validating_named_tuple():
    ls = parse_scheme("n=0 m=3; >1 <1")
    events = (Event(">", 1), Event("<", 1))
    assert ls == (0, 3, events, True) and hash(ls) == hash((0, 3, events, True))
    assert ls.closed
    # closed is computed from the events, never taken from the caller
    assert LScheme(0, 3, events, False).closed
    assert not ls._replace(events=events[:1]).closed
    assert LScheme._make((0, 3, [Event("x", 1)])) == parse_scheme("n=0 m=3; x1")
    assert ls._replace(surface_index=2) == parse_scheme("n=2 m=3; >1 <1")
    # a float or bool n or m would render as 'n=1.0' or 'm=3.0', which no text parses back
    for fields, message in (((-1, 3, ()), "surface index must be nonnegative"),
                            ((1.0, 3, ()), "surface index must be an int, not float"),
                            ((True, 3, ()), "surface index must be an int, not bool"),
                            ((0, 3.0, ()), "strands must be an int, not float"),
                            ((0, 1, ()), "at least 2 strands are required"),
                            ((0, 3, (Event("z", 1),)), "event 0 (z1): unknown event kind 'z'"),
                            ((0, 3, (Event("/", 2),)), "event 0 (/): divisor event index must be 0"),
                            ((0, 3, (Event(">", 1), Event("<", 3))),
                             "event 1 (<3): index out of range")):
        changes = dict(zip(("surface_index", "strands", "events"), fields))
        for build in (lambda: LScheme(*fields), lambda: LScheme._make(fields),
                      lambda: ls._replace(**changes)):
            with pytest.raises(LSchemeError, match=re.escape(message)):
                build()
    for field in ("surface_index", "strands", "events", "closed"):
        with pytest.raises(AttributeError):
            setattr(ls, field, getattr(ls, field))


def test_header_numbers_are_capped():
    # The strand count and the Delta^n padding of to_braid are checked
    # from the header, before any event is expanded.
    with pytest.raises(LSchemeError, match="more than"):
        parse_scheme(f"n=0 m={MAX_STRANDS + 1}; x1")
    with pytest.raises(LSchemeError, match="longer than"):
        parse_scheme("n=1000000000 m=3;")
    pad = MAX_WORD_LENGTH // 3  # Delta on 3 strands has 3 letters
    assert len(to_braid(parse_scheme(f"n={pad} m=3; x1")).letters) == 3 * pad + 1
    with pytest.raises(LSchemeError, match="longer than"):
        to_braid(parse_scheme(f"n={pad} m=3; x1 x1"))


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


def test_compiler_exponent_sum_law():
    """e(to_braid(ls)) = n*m(m-1)/2 + (m-1)(#/ + #\\) - #> - #x - #o. The
    transport words have exponent sum 0, so a > or an x adds -1, a < adds
    0, an o (a < then a >) adds -1 and a divisor event m - 1."""
    def law(ls):
        m, count = ls.strands, [ev.kind for ev in ls.events].count
        return (ls.surface_index * m * (m - 1) // 2 + (m - 1) * (count("/") + count("\\"))
                - count(">") - count("x") - count("o"))

    trigonal = [LScheme(n, 3, events) for n in range(3) for events in _closed_trigonal_events(6)]
    rng = random.Random(97)
    drawn = [random_scheme(rng, m=rng.randint(2, 7)) for _ in range(20000)]
    for ls in trigonal + drawn:
        assert exponent_sum(to_braid(ls)) == law(ls), render_scheme(ls)


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


def test_rev_rules_undo_their_forward_rules_on_every_window():
    """Wherever a rule or its -rev partner applies, on any window of the
    six kinds with indices -1..m+1 (divisor events at 0), m = 2..5, the
    other one maps its result back to the window."""
    pairs = [(rule[:-len("-rev")], rule) for rule in PSEUDO_RULES if rule.endswith("-rev")]
    assert len(pairs) == 6
    for forward, backward in pairs:
        length, there = lscheme._PSEUDO_MOVES[forward]
        _, back = lscheme._PSEUDO_MOVES[backward]
        applied = 0
        for m in range(2, 6):
            events = [Event(kind, i) for kind in "<>xo" for i in range(-1, m + 2)]
            events += [Event("/", 0), Event("\\", 0)]
            for window in itertools.product(events, repeat=length):
                for move, undo in ((there, back), (back, there)):
                    out = move(m, *window)
                    if out is not None:
                        applied += 1
                        assert undo(m, *out) == list(window), (forward, m, window)
        assert applied, forward


README = Path(__file__).resolve().parent.parent / "README.md"
README_MOVE = re.compile(
    r"\| (pseudo|alg) \| `([\w-]+)` \| `([^`]+)` → (?:`([^`]+)`|\(empty\)) \| (near|far|—) \|$")


def test_readme_moves_table_matches_the_code():
    """README's L-scheme moves table lists every rule of PSEUDO_RULES and
    ALG_RULES, in order, with the pattern, replacement and relation of
    its row in the code, the -rev rows swapped."""
    rows = [m.groups() for line in README.read_text(encoding="utf-8").splitlines()
            if (m := README_MOVE.match(line))]
    assert [row[1] for row in rows] == [*PSEUDO_RULES, *ALG_RULES]
    expected = [(family, rule, pattern, replacement or None, relation or "—")
                for family, table in (("pseudo", lscheme._PSEUDO_TABLE),
                                      ("alg", lscheme._ALG_TABLE))
                for rule, pattern, replacement, relation in lscheme._rows(table)]
    assert rows == expected


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
    with pytest.raises(LSchemeError, match="need a closed scheme"):
        root_scheme(parse_scheme("n=0 m=3; >1"))
    with pytest.raises(LSchemeError, match="do not admit divisor events"):
        weighted_comb(parse_scheme("n=0 m=3; /"))


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


def _closed_trigonal_events(max_events):
    """Every closed m = 3 event sequence without divisor events of at most
    max_events events."""
    full = ((">", 1, False), (">", 2, False), ("x", 1, True), ("x", 2, True))
    reduced = (("<", 1, True), ("<", 2, True), ("o", 1, False), ("o", 2, False))
    out, stack = [], [((), True)]
    while stack:
        events, at_full = stack.pop()
        if at_full:
            out.append(events)
        if len(events) < max_events:
            stack.extend((events + (Event(kind, index),), after)
                         for kind, index, after in (full if at_full else reduced))
    return out


def weights_left(ls, w):
    """(alpha, beta, gamma) left after the block debits, read back from
    the comb letters: each block debits alpha by 1, a g5 block beta by 1,
    a g6 g1 g4 g1 g6 block beta by 1 and gamma by 2."""
    n, count = ls.surface_index, w.word.count
    return (6 * n - count(2) - count(3) - count(5) - count(4),
            3 * n - count(5) - count(4), 2 * n - 2 * count(4))


def test_trigonal_encodings_on_every_small_closed_scheme():
    """Every closed m = 3 scheme with n <= 2 and at most 6 events has a
    root scheme, and a comb unless its weights go negative. The final
    weights are exactly half the weights left after the block debits."""
    schemes = [LScheme(n, 3, events)
               for n in range(3) for events in _closed_trigonal_events(6)]
    assert len(schemes) == 8193
    for ls in schemes:
        root_scheme(ls)
        try:
            w = weighted_comb(ls)
        except LSchemeError as exc:
            assert str(exc).startswith("comb weights go negative"), render_scheme(ls)
            continue
        if ls.events:
            assert weights_left(ls, w) == (2 * w.alpha, 2 * w.beta, 2 * w.gamma), \
                render_scheme(ls)


# The trigonal encodings as an explicit list of tangency Events, with the
# wrap-around rule on its own and every result built by the checking
# constructors: the oracle for the one-pass reading in lscheme. Its
# tangency table is written out here, apart from lscheme._KINDS.
_ORACLE_TANGENCIES = {">": ">", "<": "<", "x": "><", "o": "<>"}


def _r_encoding(ls):
    """Tangency-only encoding of a trigonal scheme: crossings become
    >_k <_k, solitary double points become <_k >_k."""
    if ls.strands != 3:
        raise LSchemeError("root schemes and combs need a trigonal scheme (m = 3)")
    if not ls.closed:
        raise LSchemeError("trigonal encodings need a closed scheme")
    out = []
    for ev in ls.events:
        if ev.kind not in _ORACLE_TANGENCIES:
            raise LSchemeError("trigonal encodings do not admit divisor events")
        out += [Event(kind, ev.index) for kind in _ORACLE_TANGENCIES[ev.kind]]
    return out


def _first_block_reduced(n, r):
    """The wrap-around pair closes an oval plainly when the last ascent
    matches the first descent, with the index flipped on odd n."""
    first, last = r[0], r[-1]
    if n % 2 == 0:
        return last.index == first.index
    return abs(last.index - first.index) == 1


def _oracle_pair_blocks(n, r):
    yield lscheme._PAIR_BLOCKS["<", ">", _first_block_reduced(n, r)]
    for prev, cur in zip(r, r[1:]):
        yield lscheme._PAIR_BLOCKS[prev.kind, cur.kind, prev.index == cur.index]


def oracle_root_scheme(ls):
    r = _r_encoding(ls)
    if not r:
        return ()
    return tuple(x for block, _, _ in _oracle_pair_blocks(ls.surface_index, r) for x in block)


def oracle_weighted_comb(ls):
    n = ls.surface_index
    alpha, beta, gamma = 6 * n, 3 * n, 2 * n
    r = _r_encoding(ls)
    if not r:
        return WeightedComb((), alpha, beta, gamma)
    comb_word = []
    for i, (_, letters, (da, db, dg)) in enumerate(_oracle_pair_blocks(n, r)):
        comb_word.extend(letters)
        alpha, beta, gamma = alpha - da, beta - db, gamma - dg
        if i and min(alpha, beta, gamma) < 0:
            raise LSchemeError(f"comb weights go negative ({alpha},{beta},{gamma}): "
                               f"the scheme is not realizable on this surface index")
    return WeightedComb(tuple(comb_word), alpha // 2, beta // 2, gamma // 2)


def oracle_braid(ls):
    """Every event's letters at the running count, freely reduced once at
    the end, times Delta^n."""
    m, letters, reduced = ls.strands, [], False
    for ev in ls.events:
        row = lscheme._KINDS[ev.kind]
        letters += row.letters(ev.index, m, reduced)
        reduced = row.leaves == "reduced" if row.leaves else reduced
    return compose(free_reduce(word(m, letters)), power(delta(m), ls.surface_index))


def _outcome(compile_, ls):
    try:
        return compile_(ls)
    except LSchemeError as exc:
        return f"error: {exc}"


def test_trigonal_encodings_match_the_event_list_oracle():
    """On every closed m = 3 scheme with n <= 4 and at most 6 events, and on
    refused schemes, root_scheme, weighted_comb and to_braid give the
    oracle's value or error text. The checking constructors accept every
    word built without them."""
    schemes = [LScheme(n, 3, events) for n in range(5) for events in _closed_trigonal_events(6)]
    schemes += [parse_scheme(text) for text in (
        "n=1 m=4; >1 <1", "n=1 m=3; >1", "n=0 m=3; >1 <1 /", "n=0 m=3; / >2 <2 \\",
        "n=0 m=3; >1 o2 <1")]
    assert len(schemes) == 5 * 2731 + 5
    for ls in schemes:
        text = render_scheme(ls)
        assert _outcome(root_scheme, ls) == _outcome(oracle_root_scheme, ls), text
        w = _outcome(weighted_comb, ls)
        assert w == _outcome(oracle_weighted_comb, ls), text
        if isinstance(w, WeightedComb):
            assert type(w) is WeightedComb and WeightedComb(*w) == w, text
        if ls.closed:
            b = to_braid(ls)
            assert type(b) is BraidWord and b == oracle_braid(ls) == BraidWord(*b), text


def test_weighted_comb_final_weights_always_even():
    # On n = 4 the weights left after the block debits, read back from
    # the comb letters, are exactly twice the final weights, so the
    # halving floored nothing.
    rng = random.Random(89)
    for events in rng.sample(_closed_trigonal_events(8), 600):
        ls = LScheme(4, 3, events)
        try:
            w = weighted_comb(ls)
        except LSchemeError:
            continue
        if ls.events:
            assert weights_left(ls, w) == (2 * w.alpha, 2 * w.beta, 2 * w.gamma), \
                render_scheme(ls)


def test_divisor_events_need_three_strands_in_reduced_region():
    # fine at the full count even for two strands
    parse_scheme("n=0 m=2; / \\")
    with pytest.raises(LSchemeError):
        parse_scheme("n=0 m=2; >1 / <1")
