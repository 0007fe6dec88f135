import itertools
import time
from collections import Counter

import pytest

from ruledcurves.braid import MAX_DEPTH, MAX_WORD_LENGTH
from ruledcurves.schemes7 import (
    CATEGORIES,
    SchemeError,
    enumerate_schemes,
    exclusion,
    parse_complex_scheme,
    parse_real_scheme,
    realizable,
    render_complex_scheme,
    render_real_scheme,
    symmetric_m_complex_schemes,
    _TABLE,
    _measure,
    _orientation_sums,
)


def rokhlin_mischachev(lambda_plus, lambda_minus, pi_plus, pi_minus, ovals, k):
    """Complex-orientation identity for dividing curves of degree 2k+1:
    L+ - L- + 2(P+ - P-) = l - k(k+1), with L counting ovals by sign and
    P the injective pairs (one oval inside the other) by sign. The
    oracle for the ten complex schemes; the dividing law reads
    schemes7._orientation_sums instead."""
    return lambda_plus - lambda_minus + 2 * (pi_plus - pi_minus) == ovals - k * (k + 1)


# The deep nest printed in the source's dividing list. No degree-7 curve
# has it (test_bezout_bounds_every_enumerated_scheme); the dividing table
# lists the hyperbolic <J + 1<1<1>>> in its place.
SOURCE_MISPRINTS = {"dividing": "<J + 1 + 1<1<1>>>"}


# The category blocks of the transcribed tables that the named laws
# replaced, kept as an oracle. Nest bounds constrain <J + a + 1<b>>
# through a ("alpha"), b ("beta") and a + b ("total"); plain bounds
# constrain <J + a>; "extra" lists the admitted deep nests.
TRANSCRIBED_TABLES = {
    "any": {
        "nest": {"total_max": 14, "alpha_min": 0, "alpha_max": 13, "beta_min": 1, "beta_max": 13},
        "plain": {"alpha_min": 0, "alpha_max": 15},
        "extra": ["<J + 1<1<1>>>"],
    },
    "dividing": {
        "nest": {"total_max": 14, "alpha_min": 0, "alpha_max": 13, "beta_min": 1, "beta_max": 13,
                 "total_parity": 0, "alpha0_beta_excluded": [2, 6, 8], "alpha1_beta_min": 5},
        "plain": {"alpha_min": 7, "alpha_max": 15, "alpha_parity": 1},
        "extra": ["<J + 1<1<1>>>"],
    },
    "non-dividing": {
        "nest": {"total_max": 13, "alpha_min": 0, "alpha_max": 12, "beta_min": 1, "beta_max": 13},
        "plain": {"alpha_min": 0, "alpha_max": 14},
        "extra": [],
    },
    "symmetric": {
        "base": "any",
        "remove_nests": [[8, 6], [7, 7], [6, 8], [5, 9], [7, 6], [6, 7], [4, 9]],
    },
    "symmetric-dividing-pseudoholomorphic": {
        "base": "dividing",
        "remove_nests": [[8, 6], [7, 7], [6, 8], [5, 9], [7, 6], [6, 7], [4, 9],
                         [2, 10], [6, 6], [4, 4]],
    },
    "symmetric-dividing-algebraic": {
        "base": "symmetric-dividing-pseudoholomorphic",
        "remove_nests": [[8, 4], [4, 8]],
    },
    "symmetric-non-dividing": {
        "base": "non-dividing",
        "remove_nests": [[8, 6], [7, 7], [6, 8], [5, 9], [7, 6], [6, 7], [4, 9]],
    },
}

THM1_NESTS = ((8, 6), (7, 7), (6, 8), (5, 9), (7, 6), (6, 7), (4, 9))


def R(text):
    return parse_real_scheme(text)


def _nest_text(a, b):
    return f"<J + {a} + 1<{b}>>" if a else f"<J + 1<{b}>>"


def _transcribed(category):
    """(nest bounds, plain bounds, deep nests, removed (a, b) pairs)."""
    block, removed = TRANSCRIBED_TABLES[category], set()
    while "base" in block:
        removed.update(map(tuple, block["remove_nests"]))
        block = TRANSCRIBED_TABLES[block["base"]]
    return block["nest"], block["plain"], block["extra"], removed


def transcribed_realizable(text, category):
    nest, plain, extra, removed = _transcribed(category)
    code = R(text)
    a = code.ovals.count(())
    inner = [o for o in code.ovals if o]
    if not inner:
        return (plain["alpha_min"] <= a <= plain["alpha_max"]
                and a % 2 == plain.get("alpha_parity", a % 2))
    if any(inner[0]):
        return text in extra
    b = len(inner[0])
    return ((a, b) not in removed
            and nest["alpha_min"] <= a <= nest["alpha_max"]
            and nest["beta_min"] <= b <= nest["beta_max"]
            and a + b <= nest["total_max"]
            and (a + b) % 2 == nest.get("total_parity", (a + b) % 2)
            and not (a == 0 and b in nest.get("alpha0_beta_excluded", ()))
            and not (a == 1 and b < nest.get("alpha1_beta_min", 0)))


def transcribed_enumeration(category):
    nest, plain, extra, _ = _transcribed(category)
    texts = [f"<J + {a}>" if a else "<J>"
             for a in range(plain["alpha_min"], plain["alpha_max"] + 1)]
    texts += [_nest_text(a, b) for a in range(nest["alpha_min"], nest["alpha_max"] + 1)
              for b in range(nest["beta_min"], nest["beta_max"] + 1)]
    return [t for t in texts if transcribed_realizable(t, category)] + extra


def _grid():
    """<J + a> for a <= 16, <J + a + 1<b>> for a <= 15 and 1 <= b <= 15,
    and the two deep nests: up to Harnack's bound and past it."""
    texts = ["<J>"] + [f"<J + {a}>" for a in range(1, 17)]
    texts += [_nest_text(a, b) for a in range(0, 16) for b in range(1, 16)]
    return texts + ["<J + 1<1<1>>>", "<J + 1 + 1<1<1>>>"]


def _root_paths(forest):
    """(longest root path, most ovals on the union of two root paths) in
    a nesting forest. A line through points inside the two innermost
    ovals of such a pair crosses each oval on the union twice and the
    odd component once."""
    below = [(1 + deep, 1 + union) for deep, union in map(_root_paths, forest)]
    depths = sorted((deep for deep, _ in below), reverse=True)
    return (depths[0] if depths else 0,
            max([sum(depths[:2])] + [union for _, union in below]))


def _forests(ovals):
    """Every canonical nesting forest of the given number of ovals."""
    forests = {()}
    for _ in range(ovals):
        forests = {grown for forest in forests for grown in _grow(forest)}
    return forests


def _grow(forest):
    """The forests with one more oval than a canonical forest."""
    yield tuple(sorted(forest + ((),), reverse=True))
    for i, child in enumerate(forest):
        for grown in _grow(child):
            yield tuple(sorted(forest[:i] + (grown,) + forest[i + 1:], reverse=True))


def _enclosing(forest, around=(), out=None):
    """Each oval of a forest, as the indices of the ovals around it."""
    out = [] if out is None else out
    for children in forest:
        out.append(around)
        _enclosing(children, around + (len(out) - 1,), out)
    return out


def test_measure_and_orientation_sums_on_small_forests():
    """_measure against _root_paths, and _orientation_sums against every
    signing, with a pair positive when its two signs differ."""
    for ovals in range(7):
        for forest in _forests(ovals):
            assert _measure(forest) == (ovals, *_root_paths(forest)), forest
            around = _enclosing(forest)
            sums = {sum(signs) + 2 * sum(1 if signs[i] != signs[j] else -1
                                         for i in range(ovals) for j in around[i])
                    for signs in itertools.product((1, -1), repeat=ovals)}
            assert _orientation_sums(forest) == sums, forest
    assert len(_forests(6)) == 48


def test_parse_render():
    for text in ("<J>", "<J + 15>", "<J + 4 + 1<8>>", "<J + 1<1<1>>>",
                 "<J + 1 + 1<1<1>>>", "<J + 1<13>>"):
        assert render_real_scheme(R(text)) == text
    assert R("<J + 2>") == R("<J + 1 + 1>")
    assert R(" \t<J\t+ 4 +1< >  >\n") == R("<J + 4 + 1>")  # spaces and tabs between tokens
    assert parse_complex_scheme(" <J + 4p> :I ") == parse_complex_scheme("<J + 4p>:I")
    with pytest.raises(SchemeError):
        R("<K + 1>")
    with pytest.raises(SchemeError):
        R("<J + 1<2>")
    with pytest.raises(SchemeError, match="trailing input at offset 4"):
        R("<J> x")


# One row per refusal of the oval grammar: (parser, text, exact message).
# The offset is where the reader stood in the stripped text (the body
# before the tag for a complex scheme): at the next token, whitespace
# skipped, except that a sign refusal stands just after the count, a
# nesting refusal just after its '<', and an oval-cap refusal on an item
# with a group just after the group's '>'.
SCHEME_REFUSALS = {
    "no <": (R, "J + 4>", "expected '<' at offset 0 in 'J + 4>'"),
    "no J": (R, " <4> ", "expected 'J' at offset 1 in '<4>'"),
    "no +": (R, "<J 4>", "expected '+' at offset 3 in '<J 4>'"),
    "no + at end": (R, "<J + 4", "expected '+' at offset 6 in '<J + 4'"),
    "no count": (R, "<J + >", "expected an oval count at offset 5 in '<J + >'"),
    "newline is not a gap": (R, "<J +\t4 +\n1>",
                             "expected an oval count at offset 8 in '<J +\\t4 +\\n1>'"),
    "no count in group": (R, "<J + 1< + 2>>",
                          "expected an oval count at offset 8 in '<J + 1< + 2>>'"),
    "trailing": (R, "<J>x", "trailing input at offset 3 in '<J>x'"),
    "trailing before the tag": (parse_complex_scheme, "<J + 4p> x:I",
                                "trailing input at offset 9 in '<J + 4p> x'"),
    "too deep": (R, "<J + " + "1<" * MAX_DEPTH + ">" * (MAX_DEPTH + 1),
                 f"ovals nested deeper than {MAX_DEPTH} at offset 21 in "
                 + repr("<J + " + "1<" * MAX_DEPTH + ">" * (MAX_DEPTH + 1))),
    "too many ovals": (R, f"<J + {MAX_WORD_LENGTH + 1} >",
                       f"scheme of more than {MAX_WORD_LENGTH} ovals at offset 12 in "
                       f"'<J + {MAX_WORD_LENGTH + 1} >'"),
    "too many nested ovals": (R, "<J + 1000<100>>", f"scheme of more than {MAX_WORD_LENGTH} "
                              "ovals at offset 14 in '<J + 1000<100>>'"),
    "sign in real": (R, "<J + 4p>", "unexpected sign in a real scheme at offset 7 in '<J + 4p>'"),
    "no sign in type I": (parse_complex_scheme, "<J + 4>:I",
                          "complex schemes need a p/m sign on every oval at offset 6 in '<J + 4>'"),
    "sign in type II": (parse_complex_scheme, "<J + 4m>:II",
                        "unexpected sign in a real scheme at offset 7 in '<J + 4m>'"),
    "no tag": (parse_complex_scheme, "<J + 4p>",
               "complex scheme needs a :I or :II tag: '<J + 4p>'"),
    "bad tag": (parse_complex_scheme, " <J + 4p>:III",
                "complex scheme needs a :I or :II tag: ' <J + 4p>:III'"),
    "long count": (R, f"<J + {'9' * 4301}>", "number of 4301 digits is too long"),
}


@pytest.mark.parametrize("row", list(SCHEME_REFUSALS))
def test_scheme_refusals_are_exact(row):
    parser, text, message = SCHEME_REFUSALS[row]
    with pytest.raises(SchemeError) as refusal:
        parser(text)
    assert str(refusal.value) == message


def test_realizable_examples():
    assert realizable(R("<J + 15>"), "any")
    assert not realizable(R("<J + 8 + 1<6>>"), "symmetric")
    assert realizable(R("<J + 4 + 1<8>>"), "symmetric-dividing-pseudoholomorphic")
    assert not realizable(R("<J + 4 + 1<8>>"), "symmetric-dividing-algebraic")
    assert not realizable(R("<J + 8 + 1<4>>"), "symmetric-dividing-algebraic")
    assert not realizable(R("<J + 4 + 1<4>>"), "symmetric-dividing-pseudoholomorphic")


def test_grammar_errors():
    outside = R("<J + 2<1> + 1>")  # two nonempty ovals: outside the grammar
    with pytest.raises(SchemeError):
        realizable(outside, "any")
    with pytest.raises(SchemeError):
        realizable(R("<J + 1<1<1<1>>>>"), "any")
    with pytest.raises(SchemeError):
        realizable(R("<J>"), "no-such-category")


def test_oval_count_beyond_the_cap_is_refused():
    # A few bytes of text, refused before the oval list is built; the
    # nested count multiplies: 100000<100000> is 10^10 ovals.
    for text in ("<J + 1000000000>", "<J + 100000<100000>>", "<J + 3000<3000>>",
                 "<J + 60000 + 60000>", "<J + 2<2<50000>>>"):
        start = time.perf_counter()
        with pytest.raises(SchemeError, match=f"more than {MAX_WORD_LENGTH} ovals"):
            R(text)
        assert time.perf_counter() - start < 0.5, text
    with pytest.raises(SchemeError, match="more than"):
        parse_complex_scheme("<J + 1000000000p>:I")
    assert len(R(f"<J + {MAX_WORD_LENGTH}>").ovals) == MAX_WORD_LENGTH
    assert len(R("<J + 999<99>>").ovals) == 999
    assert realizable(R("<J + 16>"), "any") is False


def nested(depth, sign=""):
    """<J + 1<1<...1...>>> with ovals nested depth deep."""
    return "<J + " + f"1{sign}<" * (depth - 1) + f"1{sign}" + ">" * depth


def test_nesting_beyond_the_cap_is_refused():
    # The parser recurses once per level: 1,500 levels would pass the
    # interpreter's recursion limit, so they are refused at the cap.
    for depth in (MAX_DEPTH + 1, 1500):
        with pytest.raises(SchemeError, match=f"deeper than {MAX_DEPTH}"):
            R(nested(depth))
        with pytest.raises(SchemeError, match=f"deeper than {MAX_DEPTH}"):
            parse_complex_scheme(nested(depth, "p") + ":I")
    assert render_real_scheme(R(nested(MAX_DEPTH))) == nested(MAX_DEPTH)
    assert render_real_scheme(R(nested(3))) == "<J + 1<1<1>>>"


def test_enumerate_cardinalities():
    assert len(enumerate_schemes("any")) == 121
    assert len(enumerate_schemes("symmetric")) == 121 - 7


def test_enumerate_matches_realizable_exhaustively():
    for category in CATEGORIES:
        enumerated = {render_real_scheme(c) for c in enumerate_schemes(category)}
        for text in _grid():
            assert (text in enumerated) == realizable(R(text), category), \
                (category, text)


def test_laws_agree_with_the_transcribed_tables():
    for category in CATEGORIES:
        assert ([render_real_scheme(c) for c in enumerate_schemes(category)]
                == transcribed_enumeration(category)), category
        for text in _grid():
            assert realizable(R(text), category) == transcribed_realizable(text, category), \
                (category, text)
    for text in ("<J + 16>", "<J + 1<14>>", "<J + 1 + 1<1<1>>>"):
        assert text in _grid()


def test_each_exclusion_names_its_law():
    reasons = {
        ("<J + 16>", "any"): "Harnack",
        ("<J + 14 + 1<1>>", "symmetric"): "Harnack",
        ("<J + 1<2>>", "dividing"): "complex orientation",
        ("<J + 1 + 1<3>>", "dividing"): "complex orientation",
        ("<J + 5>", "dividing"): "complex orientation",
        ("<J + 6>", "dividing"): "type-I parity",
        ("<J + 15>", "non-dividing"): "type II",
        ("<J + 1<1<1>>>", "non-dividing"): "type II",
        ("<J + 1<14>>", "any"): "cited: any",
        ("<J + 1<14>>", "dividing"): "cited: any",
        ("<J + 1<6>>", "dividing"): "cited: dividing",
        ("<J + 1<8>>", "dividing"): "cited: dividing",
        ("<J + 15>", "dividing"): None,
        ("<J + 1<4>>", "dividing"): None,
        ("<J + 1<1<1>>>", "dividing"): None,
    }
    for category in CATEGORIES:
        reasons[("<J + 1 + 1<1<1>>>", category)] = "Bezout"
    # a theorem-1 nest that passes a category's laws is cited by the row of
    # theorem 1 in every category based on it
    for a, b in THM1_NESTS:
        reasons[(_nest_text(a, b), "symmetric")] = "cited: symmetric"
    for text in ("<J + 5 + 1<9>>", "<J + 6 + 1<8>>", "<J + 7 + 1<7>>", "<J + 8 + 1<6>>"):
        reasons[(text, "symmetric-dividing-pseudoholomorphic")] = "cited: symmetric"
        reasons[(text, "symmetric-dividing-algebraic")] = "cited: symmetric"
    for text in ("<J + 4 + 1<9>>", "<J + 6 + 1<7>>", "<J + 7 + 1<6>>"):
        reasons[(text, "symmetric-non-dividing")] = "cited: symmetric"
    for a, b in ((2, 10), (6, 6), (4, 4)):
        reasons[(_nest_text(a, b), "symmetric-dividing-pseudoholomorphic")] = \
            "cited: symmetric-dividing-pseudoholomorphic"
    for a, b in ((8, 4), (4, 8)):
        reasons[(_nest_text(a, b), "symmetric-dividing-algebraic")] = \
            "cited: symmetric-dividing-algebraic"
    for (text, category), reason in reasons.items():
        assert exclusion(R(text), category) == reason, (text, category)


def test_exclusions_name_a_law_or_a_citing_block():
    cited = [nest for _bases, _laws, nests in _TABLE.values() for nest in nests]
    assert len(cited) == len(set(cited)) == 15  # no nest is cited by two rows
    laws = {"Harnack", "Bezout", "type-I parity", "complex orientation", "type II"}
    for category in CATEGORIES:
        named = set()
        for text in _grid():
            reason = exclusion(R(text), category)
            assert (reason is None) == realizable(R(text), category)
            named.add(reason)
        named.discard(None)
        cited = {r for r in named if r.startswith("cited: ")}
        assert named - cited <= laws, category
        assert {r[len("cited: "):] for r in cited} <= set(CATEGORIES), category


def test_prohibited_families():
    for a, b in THM1_NESTS:
        text = f"<J + {a} + 1<{b}>>"
        assert realizable(R(text), "any")
        assert not realizable(R(text), "symmetric")
    for a, b in ((2, 10), (6, 6), (4, 4)):
        text = f"<J + {a} + 1<{b}>>"
        assert realizable(R(text), "dividing")
        assert not realizable(R(text), "symmetric-dividing-pseudoholomorphic")


def test_algebraic_is_pseudoholomorphic_minus_two():
    pseudo = {render_real_scheme(c)
              for c in enumerate_schemes("symmetric-dividing-pseudoholomorphic")}
    algebraic = {render_real_scheme(c)
                 for c in enumerate_schemes("symmetric-dividing-algebraic")}
    assert pseudo - algebraic == {"<J + 8 + 1<4>>", "<J + 4 + 1<8>>"}
    assert algebraic <= pseudo


def test_dividing_union_containment():
    """Both refinement lists sit inside the master list."""
    anything = {render_real_scheme(c) for c in enumerate_schemes("any")}
    dividing = {render_real_scheme(c) for c in enumerate_schemes("dividing")}
    nondividing = {render_real_scheme(c) for c in enumerate_schemes("non-dividing")}
    assert nondividing <= anything
    assert dividing <= anything
    # schemes in both refinement lists exist
    assert dividing & nondividing


def test_dividing_parity():
    # every dividing nest or plain scheme has an odd number of ovals
    def count(forest):
        return sum(1 + count(o) for o in forest)

    for code in enumerate_schemes("dividing"):
        assert count(code.ovals) % 2 == 1, render_real_scheme(code)


def test_bezout_bounds_every_enumerated_scheme():
    # a line meets a degree-7 curve in at most 7 points
    for category in CATEGORIES:
        for code in enumerate_schemes(category):
            assert 2 * _root_paths(code.ovals)[1] + 1 <= 7, \
                (category, render_real_scheme(code))
    for category, text in SOURCE_MISPRINTS.items():
        assert 2 * _root_paths(R(text).ovals)[1] + 1 == 9
        assert text not in map(render_real_scheme, enumerate_schemes(category))


def test_symmetric_containments():
    symmetric = {render_real_scheme(c) for c in enumerate_schemes("symmetric")}
    anything = {render_real_scheme(c) for c in enumerate_schemes("any")}
    assert symmetric <= anything
    sda = {render_real_scheme(c) for c in enumerate_schemes("symmetric-dividing-algebraic")}
    dividing = {render_real_scheme(c) for c in enumerate_schemes("dividing")}
    assert sda <= dividing


def test_complex_schemes():
    schemes = symmetric_m_complex_schemes()
    assert len(schemes) == 10
    rendered = {render_complex_scheme(c) for c in schemes}
    assert "<J + 9p + 6m>:I" in rendered
    for code in schemes:
        assert code.type_tag == "I"
        real = code.real_code()
        assert realizable(real, "symmetric")
        # M-curves: 15 ovals plus the odd component
        def count(forest):
            return sum(1 + count(o) for o in forest)
        assert count(real.ovals) == 15


def test_complex_scheme_round_trip():
    for text in ("<J + 9p + 6m>:I", "<J + 4p + 6m + 1m<3p + 1m>>:I",
                 "<J + 2p + 1m + 1p<5p + 6m>>:I"):
        assert render_complex_scheme(parse_complex_scheme(text)) == text
    with pytest.raises(SchemeError):
        parse_complex_scheme("<J + 9p + 6m>")
    with pytest.raises(SchemeError):
        parse_complex_scheme("<J + 9 + 6m>:I")


def test_type_ii_complex_schemes():
    """Type II schemes carry no signs: they hold the canonical real forest,
    render, reduce to real codes, and compare equal in any item order."""
    for text in ("<J + 3>:II", "<J + 1<2 + 1<1>>>:II"):
        code = parse_complex_scheme(text)
        assert render_complex_scheme(code) == text
        assert code.real_code() == parse_real_scheme(text[:-len(":II")])
    assert (parse_complex_scheme("<J + 1<2 + 1<1>>>:II")
            == parse_complex_scheme("<J + 1<1<1> + 2>>:II"))
    with pytest.raises(SchemeError):
        parse_complex_scheme("<J + 3p>:II")


def test_complex_schemes_satisfy_rokhlin_mishachev():
    """Each complex scheme's printed signs satisfy R-M, and its real
    scheme passes the dividing laws. L+/L- count the ovals printed p/m.
    An injective pair (one oval inside the other) is positive when the
    complex orientations of its two ovals come from an orientation of
    the annulus between them. Then [O1] = -[O2] in the Moebius band
    outside the inner oval, where each oval is homologous to +-2[J], so
    the two ovals of a positive pair have opposite signs: P+ counts the
    pairs whose printed signs differ, P- those whose signs agree."""
    def counts(forest, enclosing=()):
        lam, pi = Counter(), Counter()
        for sign, children in forest:
            lam[sign] += 1
            pi.update(outer != sign for outer in enclosing)
            inner_lam, inner_pi = counts(children, enclosing + (sign,))
            lam += inner_lam
            pi += inner_pi
        return lam, pi

    schemes = symmetric_m_complex_schemes()
    assert len(schemes) == 10
    for code in schemes:
        lam, pi = counts(code.ovals)
        assert rokhlin_mischachev(lam[1], lam[-1], pi[True], pi[False], 15, 3), \
            render_complex_scheme(code)
        assert exclusion(code.real_code(), "dividing") is None


def test_rokhlin_mischachev():
    assert rokhlin_mischachev(0, 0, 0, 0, 12, 3)
    assert not rokhlin_mischachev(1, 0, 0, 0, 12, 3)
    assert rokhlin_mischachev(-1, 2, 0, 0, 9, 3)
    assert rokhlin_mischachev(1, 0, 0, 0, 13, 3)


def test_realizable_is_pure():
    code = R("<J + 4 + 1<8>>")
    first = realizable(code, "symmetric-dividing-pseudoholomorphic")
    for _ in range(5):
        assert realizable(code, "symmetric-dividing-pseudoholomorphic") == first


def test_enumerate_order_is_documented_canonical():
    texts = [render_real_scheme(c) for c in enumerate_schemes("any")]
    plains = [t for t in texts if "1<" not in t]
    assert texts[:len(plains)] == plains  # plain schemes first
    assert plains == ["<J>"] + [f"<J + {a}>" for a in range(1, 16)]
    nests = texts[len(plains):-1]
    keys = []
    for t in nests:
        code = R(t)
        outer = sum(1 for o in code.ovals if not o)
        inner = len(next(o for o in code.ovals if o))
        keys.append((outer, inner))
    assert keys == sorted(keys)
    assert texts[-1] == "<J + 1<1<1>>>"
