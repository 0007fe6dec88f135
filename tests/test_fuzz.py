"""Seeded fuzz of the text grammars, with no dependency beyond the
standard library. Short random texts drawn from each grammar's alphabet,
with deep nesting and huge numbers mixed in, must parse or raise the
parser's declared error, each in bounded time. Oval schemes are also
drawn from their grammar itself, so that most of them parse and the
accepting path is exercised. Every number slot of
every grammar takes ASCII digits only. A one-line registry file must
load or raise ValueError, and each of its fixtures must run to a pass
or a fail without raising."""

import random
import time

import pytest

from ruledcurves import cli
from ruledcurves.braid import MAX_DEPTH, BraidError, parse_braid
from ruledcurves.comb import CombError, parse_comb, parse_weighted_comb
from ruledcurves.laurent import LaurentError, parse_poly
from ruledcurves.lscheme import Event, LScheme, LSchemeError, parse_scheme, render_scheme
from ruledcurves.schemes7 import (
    SchemeError,
    parse_complex_scheme,
    parse_real_scheme,
    render_complex_scheme,
    render_real_scheme,
)

# Numbers a text may hold: small ones, the edges of the caps, and huge
# ones, up to past the 4,300 digits that int() converts from a string.
CAP_EDGES = ("8", "9", "64", "65", "99999", "100000", "100001")


def small_or_huge(rng, top=12):
    if rng.random() < 0.8:
        return str(rng.randint(0, top))
    return "9" * rng.choice((7, 20, 400, 4301, 6000))


def any_number(rng):
    return rng.choice(CAP_EDGES) if rng.random() < 0.2 else small_or_huge(rng)


# grammar -> (fragments a text is drawn from, prefixes that pass the
# header, (open, close) of one nesting level). "#" is replaced by a number.
GRAMMARS = {
    "braid": (("s", "s#", "s#^#", "s#^-#", "D", "D^#", "D^-#", "^", "-", " ", ";", "=",
               "strands=", "#"),
              ("strands=#; ", "strands=3; "), None),
    "scheme": ((">", "<", "x", "o", "/", "\\", ">#", "<#", "x#", "o#", "^#", "^", " ", ";",
                "#", "n=", "m=", "/^#"),
               ("n=# m=#; ", "n=1 m=3; ", "n=0 m=4; "), None),
    "comb": (("g", "g#", "(", ")", ")^#", "^", " ", "1", "#", "|"), ("", "g1 ", "(g3 "),
             ("(", ")^2")),
    "real": (("<", ">", "J", " + ", "+", "1<", "#", "#<", " ", "p", "m"), ("<J + ", "<J"),
             ("1<", ">")),
    "poly": (("t", "t^#", "t^-#", "^", "-", "+", "*", "(", ")", ")^#", "#", " ", "#*t"),
             ("", "t - ", "(t+1)*"), ("(", ")")),
}


def fragment_text(rng, grammar, number):
    fragments, prefixes, nest = GRAMMARS[grammar]
    parts = [rng.choice(prefixes)] if rng.random() < 0.7 else []
    parts += [rng.choice(fragments) for _ in range(rng.randint(0, 12))]
    text = "".join(parts)
    while "#" in text:
        text = text.replace("#", number(rng), 1)
    if nest and rng.random() < 0.15:
        depth = rng.choice((3, 8, 9, 40, 2000))
        head, tail = nest
        text = text + head * depth + "1" + tail * depth
    return text


def weighted_comb_text(rng, number):
    text = fragment_text(rng, "comb", number)
    weights = " ".join(number(rng) for _ in range(rng.choice((2, 3, 3, 3, 4))))
    return f"{text} | {weights}" if rng.random() < 0.9 else text


def complex_text(rng, number):
    return fragment_text(rng, "real", number) + rng.choice((":I", ":II", ":", "", ":III"))


# parser -> (declared error, text generator)
PARSERS = {
    parse_braid: (BraidError, lambda rng, n: fragment_text(rng, "braid", n)),
    parse_scheme: (LSchemeError, lambda rng, n: fragment_text(rng, "scheme", n)),
    parse_comb: (CombError, lambda rng, n: fragment_text(rng, "comb", n)),
    parse_weighted_comb: (CombError, weighted_comb_text),
    parse_real_scheme: (SchemeError, lambda rng, n: fragment_text(rng, "real", n)),
    parse_complex_scheme: (SchemeError, complex_text),
    parse_poly: (LaurentError, lambda rng, n: fragment_text(rng, "poly", n)),
}


def outcome(call, error, text):
    """The seconds one call took; any exception but error fails the test."""
    start = time.perf_counter()
    try:
        call(text)
    except error:
        pass
    except Exception as exc:
        pytest.fail(f"{call.__name__}({text[:300]!r}) raised {type(exc).__name__}: {exc}")
    return time.perf_counter() - start


@pytest.mark.parametrize("parser", list(PARSERS), ids=lambda p: p.__name__)
def test_parsers_parse_or_raise_their_error(parser):
    error, generate = PARSERS[parser]
    rng = random.Random(f"fuzz:{parser.__name__}")
    slowest = max(outcome(parser, error, generate(rng, any_number)) for _ in range(1500))
    assert slowest < 2.0


def oval_items(rng, number, signed, depth=1):
    """The items of one nesting level, drawn from the oval grammar: a
    count, a p/m sign when signed and, now and then, a nested group, one
    level past the nesting cap at most."""
    items = []
    for _ in range(rng.randint(0 if depth > 1 else 1, 4)):
        item = number(rng) + (rng.choice("pm") if signed else "")
        if depth <= MAX_DEPTH and rng.random() < 0.35:
            item += f"<{oval_items(rng, number, signed, depth + 1)}>"
        items.append(item)
    return rng.choice((" + ", "+", "  +\t")).join(items)


def oval_scheme_text(rng, number, tag):
    """A real scheme (tag None) or a complex one of type I or II."""
    items = oval_items(rng, number, signed=(tag == "I")) if rng.random() < 0.95 else ""
    text = f"<J + {items}>" if items else "<J>"
    return text if tag is None else f"{text}:{tag}"


def small_count(rng):
    return str(rng.randint(0, 6))


# parser -> (renderer, the tags it reads)
OVAL_PARSERS = {
    parse_real_scheme: (render_real_scheme, (None,)),
    parse_complex_scheme: (render_complex_scheme, ("I", "II")),
}


@pytest.mark.parametrize("parser", list(OVAL_PARSERS), ids=lambda p: p.__name__)
def test_oval_schemes_drawn_from_the_grammar_parse(parser):
    """Texts drawn from the oval grammar itself, counts mostly small and
    now and then at a cap edge or huge: at least 80% parse (on this seed
    89% real, 88% complex), each parsed code renders to a text that parses
    back to it, and the rest raise SchemeError."""
    render, tags = OVAL_PARSERS[parser]
    rng = random.Random(f"fuzz-grammar:{parser.__name__}")
    parsed = 0
    for _ in range(1500):
        number = any_number if rng.random() < 0.15 else small_count
        text = oval_scheme_text(rng, number, rng.choice(tags))
        try:
            code = parser(text)
        except SchemeError:
            continue
        parsed += 1
        assert parser(render(code)) == code, text
    assert parsed >= 0.8 * 1500


# Every number slot of every grammar: (parser, text with the slot as {},
# the ASCII digit that fills it). Each parser must refuse the digit's
# Arabic-Indic twin, which int() and the regex \d would also read.
NUMBER_SLOTS = {
    "braid header": (parse_braid, "strands={}; s1", "3"),
    "braid index": (parse_braid, "strands=3; s{}^2", "1"),
    "braid power": (parse_braid, "strands=3; s1^-{}", "2"),
    "half-twist power": (parse_braid, "strands=3; D^{}", "2"),
    "scheme surface": (parse_scheme, "n={} m=3; >1 <1", "1"),
    "scheme strands": (parse_scheme, "n=0 m={}; >1 <1", "3"),
    "scheme index": (parse_scheme, "n=0 m=3; >{} <1", "1"),
    "scheme count": (parse_scheme, "n=0 m=3; x1^{}", "2"),
    "comb power": (parse_comb, "(g1 g2)^{}", "2"),
    "comb weight": (parse_weighted_comb, "g1 g2 | 0 {} 0", "1"),
    "real oval count": (parse_real_scheme, "<J + {}<1>>", "4"),
    "complex oval count": (parse_complex_scheme, "<J + {}p>:I", "1"),
    "poly integer": (parse_poly, "{}*t - 1", "2"),
    "poly factor power": (parse_poly, "(t - 1)^{}", "2"),
    "poly monomial power": (parse_poly, "t^-{} + 1", "2"),
}


@pytest.mark.parametrize("slot", list(NUMBER_SLOTS))
def test_numbers_are_ascii_digits(slot):
    parser, template, digit = NUMBER_SLOTS[slot]
    parser(template.format(digit))
    with pytest.raises(PARSERS[parser][0]):
        parser(template.format(chr(0x660 + int(digit))))


# The six event kinds, kind strings that are not one (empty, two kinds
# glued together, a letter outside the alphabet) and kinds that are not
# strings (a list, which cannot be hashed, None and an int).
EVENT_KINDS = (">", "<", "x", "o", "/", "\\", "", "/\\", "<o", "z", "xo", ["x"], None, 1)


# Index and header types: the int a text holds, and a float and a bool that
# equal one.
INDEX_TYPES = (int, int, int, float, bool)

# What an event is built as: mostly an Event, else a plain tuple or the
# token string of the same kind and index.
EVENT_FORMS = (Event, Event, Event, Event, Event, Event, lambda kind, index: (kind, index),
               lambda kind, index: f"{kind}{index}")


def test_direct_construction_builds_only_what_the_text_form_writes():
    """An LScheme built from events, not parsed, is accepted or refused
    with LSchemeError, also when an event is not an Event or its kind is
    not a string, or n or m is not an int; an accepted one, also from a
    list of events, is hashable and renders to a text that parses back
    to it."""
    rng = random.Random("fuzz:LScheme")
    accepted = 0
    for _ in range(3000):
        m = rng.randint(2, 6)
        events = [rng.choice(EVENT_FORMS)(rng.choice(EVENT_KINDS),
                                          rng.choice(INDEX_TYPES)(rng.randint(0, m)))
                  for _ in range(rng.randint(0, 6))]
        try:
            ls = LScheme(rng.choice(INDEX_TYPES)(rng.randint(0, 3)), rng.choice(INDEX_TYPES)(m),
                         rng.choice((tuple, list))(events))
        except LSchemeError:
            continue
        accepted += 1
        assert hash(ls) == hash(parse_scheme(render_scheme(ls)))
        assert parse_scheme(render_scheme(ls)) == ls, events
    assert accepted > 100


# kind -> (valid inputs, input generator, assertion keys); unknown kinds
# and keys are drawn too. The fixtures run their checks, so generated
# numbers stay at most 4 or past every cap: a short text within the caps
# can still ask for minutes of work, as "strands=64; D^-9", an
# 18,144-letter braid on 64 strands, does.
REGISTRY_KINDS = {
    "braid": (("strands=3; s1 s2", "strands=4; s1^2 s3^-1 s2", "strands=2; s1^3",
               "strands=3; s1^-4 s2^2 s1^-3 s2^-1 s1 D^2"),
              PARSERS[parse_braid][1],
              ("e", "alexander", "alexander_equals", "det", "fires", "not_fires", "trivial",
               "garside_equals", "verdict")),
    "lscheme": (("n=1 m=3; >2 <1 >2 o2 <2", "n=0 m=3; >1 <1", "n=2 m=3; >2 <2"),
                PARSERS[parse_scheme][1], ("braid", "root_scheme", "comb")),
    "comb": (("g5 g2 | 2 1 1", "g5 g6 g1 g4 g1 g6 g5 g2 g3 g2 | 0 0 0", "(g3 g2)^2 | 1 1 0"),
             weighted_comb_text, ("closed", "mu_exists", "mu_count")),
    "scheme-query": (("enumerate :: any", "complex-list", "<J + 4 + 1<8>> :: dividing"),
                     lambda rng, n: fragment_text(rng, "real", n) + " :: any",
                     ("count", "realizable")),
    "knot": (("",), lambda rng, n: "", ("e",)),
}
VALUES = ("true", "false", "0", "1", "10", "alex", "alex,square", "t - 1", "(t^2-t+1)",
          "strands=3; s1 s2", "")


def registry_line(rng):
    kind = rng.choice(list(REGISTRY_KINDS))
    valid, generate, keys = REGISTRY_KINDS[kind]
    clauses = " & ".join(f"{rng.choice(keys + ('colour',))}={rng.choice(VALUES)}"
                         for _ in range(rng.randint(0, 3)))
    text = (rng.choice(valid) if rng.random() < 0.5
            else generate(rng, lambda rng: small_or_huge(rng, 4)))
    fields = [rng.choice(("f", "x y")), kind, text.replace("|", "\\|"), clauses, "fuzz"]
    if rng.random() < 0.1:
        del fields[rng.randrange(5)]
    return " | ".join(fields)


def test_registry_lines_load_and_run_as_fixtures(tmp_path):
    rng = random.Random("fuzz:registry")
    path = tmp_path / "registry.txt"
    slowest = 0.0
    for _ in range(1000):
        path.write_text(registry_line(rng) + "\n")
        start = time.perf_counter()
        try:
            fixtures = cli.load_registry(str(path))
        except ValueError:
            continue
        for fixture in fixtures:
            result = cli.run_fixture(fixture)
            assert result["status"] in ("pass", "fail"), result
            assert result["status"] == "pass" or result["failures"], result
        slowest = max(slowest, time.perf_counter() - start)
    assert slowest < 2.0
