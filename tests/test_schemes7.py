import time

import pytest

from ruledcurves.braid import MAX_WORD_LENGTH
from ruledcurves.schemes7 import (
    CATEGORIES,
    SchemeError,
    enumerate_schemes,
    parse_complex_scheme,
    parse_real_scheme,
    realizable,
    render_complex_scheme,
    render_real_scheme,
    rokhlin_mischachev,
    symmetric_m_complex_schemes,
)


# The deep nest printed in the source's dividing list. No degree-7 curve
# has it (test_bezout_bounds_every_enumerated_scheme); the dividing table
# lists the hyperbolic <J + 1<1<1>>> in its place.
SOURCE_MISPRINTS = {"dividing": "<J + 1 + 1<1<1>>>"}


def R(text):
    return parse_real_scheme(text)


def _root_paths(forest):
    """(longest root path, most ovals on the union of two root paths) in
    a nesting forest. A line through points inside the two innermost
    ovals of such a pair crosses each oval on the union twice and the
    odd component once."""
    below = [(1 + deep, 1 + union) for deep, union in map(_root_paths, forest)]
    depths = sorted((deep for deep, _ in below), reverse=True)
    return (depths[0] if depths else 0,
            max([sum(depths[:2])] + [union for _, union in below]))


def test_parse_render():
    for text in ("<J>", "<J + 15>", "<J + 4 + 1<8>>", "<J + 1<1<1>>>",
                 "<J + 1 + 1<1<1>>>", "<J + 1<13>>"):
        assert render_real_scheme(R(text)) == text
    assert R("<J + 2>") == R("<J + 1 + 1>")
    with pytest.raises(SchemeError):
        R("<K + 1>")
    with pytest.raises(SchemeError):
        R("<J + 1<2>")
    with pytest.raises(SchemeError, match="trailing input at offset 4"):
        R("<J> x")


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


def test_enumerate_cardinalities():
    assert len(enumerate_schemes("any")) == 121
    assert len(enumerate_schemes("symmetric")) == 121 - 7


def test_enumerate_matches_realizable_exhaustively():
    for category in CATEGORIES:
        enumerated = {render_real_scheme(c) for c in enumerate_schemes(category)}
        everything = ["<J>"]
        everything += [f"<J + {a}>" for a in range(1, 16)]
        everything += [f"<J + {a} + 1<{b}>>" if a else f"<J + 1<{b}>>"
                       for a in range(0, 14) for b in range(1, 14)]
        everything += ["<J + 1<1<1>>>", "<J + 1 + 1<1<1>>>"]
        for text in everything:
            assert (text in enumerated) == realizable(R(text), category), \
                (category, text)


def test_prohibited_families():
    for a, b in ((8, 6), (7, 7), (6, 8), (5, 9), (7, 6), (6, 7), (4, 9)):
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
