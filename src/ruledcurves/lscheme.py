"""
Event-sequence encodings of curve arrangements relative to the line
pencil on the ruled surface Sigma_n, with the compilers to braids, root
schemes and weighted combs, and the elementary rewriting moves.

An event is one of
    >k   tangency while the fiber meets the curve in m real points
         (the real intersection count drops to m-2),
    <k   tangency restoring the full count,
    xk   transverse double point,
    ok   solitary double point (shorthand for <k >k),
    /    branch through the exceptional divisor coming from {y > 0},
    \\    the same from {y < 0},
where k-1 is the number of real intersection points strictly below the
event; a divisor event has index 0. The running count is full (m) or
reduced (m-2). One table, _KINDS, gives each kind the count it needs,
the count it leaves, its tangency-only encoding and its braid letters;
validation, to_braid and the trigonal encodings all read it, and any
other kind is refused at its position.

Text form: header ``n=<surface> m=<strands>;`` then tokens, each
optionally suffixed ``^<count>``; ``#`` starts a comment. A text expands
to at most MAX_WORD_LENGTH events, names at most MAX_STRANDS strands,
and its Delta^n padding in to_braid is at most MAX_WORD_LENGTH letters.

Move patterns: a rewriting move is a row (pattern, replacement,
relation), each side a space-separated list of terms in the event
grammar. A term is a kind and an index term: j or k (bound at first
use), j-1 or j+1 (solved for j), M for m-1, the literal 1, or nothing
for / and \\. The kind u matches any of x < > and is copied whole into
the replacement. The relation near asks |j-k| = 1, far |j-k| > 1.
"""

from __future__ import annotations

import re
from itertools import groupby
from typing import Callable, NamedTuple

from .braid import (
    MAX_STRANDS, MAX_WORD_LENGTH, BraidWord, check_ints, delta_length, delta_letters, parse_int,
)
from .comb import WeightedComb


class LSchemeError(ValueError):
    pass


class Event(NamedTuple):
    kind: str  # one of > < x o / \
    index: int  # 0 for the divisor events

    def token(self) -> str:
        if self.kind in ("/", "\\"):
            return self.kind
        return f"{self.kind}{self.index}"


class LScheme(NamedTuple("_LScheme", [("surface_index", int), ("strands", int),
                                      ("events", tuple[Event, ...]), ("closed", bool)])):
    """A named tuple, equal to the plain 4-tuple (surface_index, strands,
    events, closed). closed says whether the scheme starts and ends at the
    full intersection count (meets the fiber at infinity in m distinct
    real points); it is computed from the events when the scheme is
    built, so a value passed for it is ignored and two schemes are equal
    exactly when their first three fields are. The constructor, _make and
    _replace check the fields: an int surface index and strand count, and
    the events."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, surface_index: int, strands: int, events, closed: bool | None = None):
        check_ints("surface index", (surface_index,), LSchemeError)
        check_ints("strands", (strands,), LSchemeError)
        if surface_index < 0:
            raise LSchemeError("surface index must be nonnegative")
        if strands < 2:
            raise LSchemeError("at least 2 strands are required")
        events = tuple(events)
        return tuple.__new__(cls, (surface_index, strands, events, _validate(strands, events)))


def _tau(s: int, t: int) -> list[int]:
    """Strand transport word: (s_{s+1}^-1 s_s)(s_{s+2}^-1 s_{s+1}) ... up or
    down to t; empty when s = t."""
    out: list[int] = []
    if t > s:
        for i in range(s + 1, t + 1):
            out.extend([-i, i - 1])
    elif t < s:
        for i in range(s - 1, t - 1, -1):
            out.extend([-i, i + 1])
    return out


_FULL, _REDUCED = "full", "reduced"  # m or m - 2 real intersection points


class _Kind(NamedTuple):
    name: str  # for error messages
    needs: str | None  # the count the event needs: _FULL, _REDUCED or None for either
    leaves: str | None  # the count it leaves: _FULL, _REDUCED or None for unchanged
    tangencies: str  # kinds of its tangency-only encoding; "" for the divisor events
    letters: Callable[[int, int, bool], list[int]]  # (k, m, reduced) -> braid letters


# The one table of event kinds: validation, the braid compiler and the
# tangency encoding read it. An o is <k >k, in the table and in the braid.
_KINDS = {
    ">": _Kind("tangency down", _FULL, _REDUCED, ">",
               lambda k, m, reduced: [-k, *_tau(k, m - 1)]),
    "<": _Kind("tangency up", _REDUCED, _FULL, "<", lambda k, m, reduced: _tau(m - 1, k)),
    "x": _Kind("crossing", None, None, "><", lambda k, m, reduced: [-k]),
    "o": _Kind("solitary double point", _REDUCED, _REDUCED, "<>",
               lambda k, m, reduced: [*_tau(m - 1, k), -k, *_tau(k, m - 1)]),
    "/": _Kind("divisor event", None, None, "",
               lambda k, m, reduced: [-(m - 2), m - 1, m - 1, *range(m - 2, 0, -1)] if reduced
               else [*range(m - 1, 0, -1)]),
    "\\": _Kind("divisor event", None, None, "",
                lambda k, m, reduced: [*range(1, m - 2), m - 2, m - 2] if reduced
                else [*range(1, m)]),
}


def _refusal(ev: Event, row: _Kind, count: str, m: int) -> str | None:
    """Why ev cannot stand at the running count, or None. The index of a
    crossing is bounded by the running count, that of a tangency-class
    event by the full count m."""
    if type(ev.index) is not int:
        return f"index must be an int, not {type(ev.index).__name__}"
    if row.needs and row.needs != count:
        return f"{row.name} needs the {row.needs} count"
    if not row.tangencies:
        if count == _REDUCED and m < 3:
            return f"{row.name} in a reduced region needs m >= 3"
        if ev.index != 0:
            return f"{row.name} index must be 0"
    elif row.needs:
        if not 1 <= ev.index <= m - 1:
            return "index out of range"
    else:
        points = m if count == _FULL else m - 2
        if not 1 <= ev.index <= points - 1:
            return f"{row.name} index out of range for count {points}"
    return None


def _validate(m: int, events: tuple[Event, ...]) -> bool:
    """Check every event against the running count, which starts at the
    count that the first event needing one needs (full when none does).
    Returns whether the sequence starts and ends at the full count, i.e.
    whether it is closed; the rewriting moves also accept open
    fragments."""
    for pos, ev in enumerate(events):
        if not isinstance(ev, Event):
            raise LSchemeError(f"event {pos}: expected an Event, not {type(ev).__name__}")
        if type(ev.kind) is not str or ev.kind not in _KINDS:
            raise LSchemeError(f"event {pos} ({ev.token()}): unknown event kind {ev.kind!r}")
    rows = [_KINDS[ev.kind] for ev in events]
    count = start = next((row.needs for row in rows if row.needs), _FULL)
    for pos, (ev, row) in enumerate(zip(events, rows)):
        refusal = _refusal(ev, row, count, m)
        if refusal:
            raise LSchemeError(f"event {pos} ({ev.token()}): {refusal}")
        count = row.leaves or count
    return start == count == _FULL


# -- text form ---------------------------------------------------------

_HEADER = re.compile(r"^\s*n\s*=\s*([0-9]+)\s+m\s*=\s*([0-9]+)\s*;\s*")
_TOKEN = re.compile(r"^(?:([<>xo])([0-9]+)|(/|\\))(?:\^([0-9]+))?$")


def parse_scheme(text: str) -> LScheme:
    text = text.split("#", 1)[0]
    header = _HEADER.match(text)
    if not header:
        raise LSchemeError("scheme text must start with 'n=<int> m=<int>;'")
    n, m = (parse_int(digits, LSchemeError) for digits in header.groups())
    if m > MAX_STRANDS:
        raise LSchemeError(f"more than {MAX_STRANDS} strands")
    if n * delta_length(m) > MAX_WORD_LENGTH:
        raise LSchemeError(f"Delta^{n} on {m} strands is longer than "
                           f"{MAX_WORD_LENGTH} letters")
    events: list[Event] = []
    for token in text[header.end():].split():
        tm = _TOKEN.match(token)
        if not tm:
            raise LSchemeError(f"bad scheme token {token!r}")
        count = parse_int(tm.group(4), LSchemeError) if tm.group(4) else 1
        if count < 1:
            raise LSchemeError(f"bad repetition in token {token!r}")
        if len(events) + count > MAX_WORD_LENGTH:
            raise LSchemeError(f"scheme longer than {MAX_WORD_LENGTH} events")
        if tm.group(3):
            ev = Event(tm.group(3), 0)
        else:
            ev = Event(tm.group(1), parse_int(tm.group(2), LSchemeError))
        events.extend([ev] * count)
    return LScheme(n, m, tuple(events))


def render_scheme(ls: LScheme) -> str:
    parts = [f"n={ls.surface_index} m={ls.strands};"]
    for ev, group in groupby(ls.events):
        run = len(list(group))
        parts.append(ev.token() if run == 1 else f"{ev.token()}^{run}")
    return " ".join(parts)


# -- compiler to braids -------------------------------------------------


def to_braid(ls: LScheme) -> BraidWord:
    """Compile to the associated braid: substitute every event by its
    braid letters at the running count, freely reduce, and append the
    n-th power of the half twist. Free reduction is one stack pass, so
    the letters are reduced as they are appended. The word skips
    BraidWord's checks: every letter comes from _KINDS at an index that
    LScheme validated against m, so it lies in 1..m-1 up to sign."""
    if not ls.closed:
        raise LSchemeError("braid compilation needs a closed scheme "
                           "(full intersection count at both ends)")
    m, n = ls.strands, ls.surface_index
    stack: list[int] = []
    count = _FULL
    for ev in ls.events:
        row = _KINDS[ev.kind]
        for letter in row.letters(ev.index, m, count == _REDUCED):
            if stack and stack[-1] == -letter:
                stack.pop()
            else:
                stack.append(letter)
        count = row.leaves or count
    if len(stack) + n * delta_length(m) > MAX_WORD_LENGTH:
        raise LSchemeError(f"braid word longer than {MAX_WORD_LENGTH} letters")
    return tuple.__new__(BraidWord, (m, tuple(stack) + delta_letters(m) * n))


# -- elementary rewriting moves -----------------------------------------
# One table per family, written in the notation of the module docstring:
# rule -> (pattern, replacement, relation, rev). A rev row also yields
# <rule>-rev, right after it, with the two sides swapped. _move compiles
# a row to (pattern length, move), where a move takes the strand count m
# and the window of events at the position and returns the replacement,
# or None when the pattern does not match. The pseudoholomorphic moves
# preserve realizability one way; the caller chooses rule and position
# explicitly.

_PSEUDO_TABLE = {
    "cross-tangency": ("xj >k", "xk >j", "near", False),
    "tangency-cross": ("<k xj", "<j xk", "near", False),
    "cross-commute": ("xj uk", "uk xj", "far", False),
    "back-descend": ("\\ >M", "/ >1", "", True),
    "ascend-slash": ("<M /", "<1 \\", "", True),
    "back-commute": ("\\ uj", "uj \\", "", True),
    "slash-commute": ("/ uj", "uj /", "", True),
    "oval-slide": ("oj <j >j-1", "<j xj-1 >j", "", True),
    "oval-shift": ("<j xj-1 >j", "<j-1 >j oj", "", True),
    "cancel-pair": ("<j >k", "", "near", False),
    "pair-commute": ("<j >k", ">k <j", "far", False),
    "drop-oval": ("oj", "", "", False),
}

_ALG_TABLE = {
    "descend-zigzag": (">j <k >j", ">j", "near", False),
    "ascend-zigzag": ("<j >k <j", "<j", "near", False),
}

_RELATIONS = {"near": lambda gap: gap == 1, "far": lambda gap: gap > 1}


def _rows(table: dict):
    """(rule, pattern, replacement, relation) for every rule of a family,
    each -rev rule right after its forward rule."""
    for rule, (pattern, replacement, relation, rev) in table.items():
        yield rule, pattern, replacement, relation
        if rev:
            yield f"{rule}-rev", replacement, pattern, relation


def _term(text: str) -> tuple[str, str | None, int]:
    """'xj-1' -> ('x', 'j', -1): the event index is the variable plus the
    offset. 'M' reads the variable m, bound to the strand count; a
    literal or an absent index has no variable."""
    kind, index = text[0], text[1:]
    if index == "M":
        return kind, "m", -1
    if index[:1] in ("j", "k"):
        return kind, index[0], int(index[1:] or 0)
    return kind, None, int(index or 0)


def _move(pattern: str, replacement: str, relation: str):
    terms, out = [_term(t) for t in pattern.split()], [_term(t) for t in replacement.split()]

    def move(m: int, *window: Event) -> list[Event] | None:
        bound, held = {None: 0, "m": m}, None
        for (kind, var, offset), ev in zip(terms, window):
            if ev.kind != kind and not (kind == "u" and ev.kind in ("x", "<", ">")):
                return None
            if ev.index != bound.setdefault(var, ev.index - offset) + offset:
                return None
            if kind == "u":
                held = ev
        if relation and not _RELATIONS[relation](abs(bound["j"] - bound["k"])):
            return None
        return [held if kind == "u" else Event(kind, bound[var] + offset)
                for kind, var, offset in out]

    return len(terms), move


_PSEUDO_MOVES = {rule: _move(*row) for rule, *row in _rows(_PSEUDO_TABLE)}
_ALG_MOVES = {rule: _move(*row) for rule, *row in _rows(_ALG_TABLE)}
PSEUDO_RULES = tuple(_PSEUDO_MOVES)
ALG_RULES = tuple(_ALG_MOVES)


def _rewrite(moves: dict, family: str, ls: LScheme, rule: str, position: int) -> LScheme:
    events = ls.events
    if not 0 <= position < max(len(events), 1):
        raise LSchemeError(f"position {position} out of range")
    if rule not in moves:
        raise LSchemeError(f"unknown {family} rule {rule!r}")
    length, move = moves[rule]
    window = events[position:position + length]
    replacement = move(ls.strands, *window) if len(window) == length else None
    if replacement is None:
        raise LSchemeError(f"rule {rule!r} does not match at position {position}")
    return LScheme(ls.surface_index, ls.strands,
                   events[:position] + tuple(replacement) + events[position + length:])


def rewrite_pseudo(ls: LScheme, rule: str, position: int) -> LScheme:
    return _rewrite(_PSEUDO_MOVES, "pseudoholomorphic", ls, rule, position)


def rewrite_alg(ls: LScheme, rule: str, position: int) -> LScheme:
    return _rewrite(_ALG_MOVES, "algebraic", ls, rule, position)


# -- trigonal encodings: root schemes and weighted combs ----------------


# Consecutive tangencies (previous kind, current kind, same index) ->
# (root-scheme block, comb letters, (alpha, beta, gamma) debits). The
# mixed-index blocks follow the calibration pinned by the worked
# three-strand example: the descent-after-ascent pair carries the (q,2)
# block, the ascent-after-descent pair the (p,3),(q,2),(p,3) block.
_PAIR_BLOCKS = {
    (">", "<", True): ((("r", 1),), (2,), (1, 0, 0)),
    ("<", ">", True): ((("r", 1),), (3,), (1, 0, 0)),
    ("<", ">", False): ((("q", 2), ("r", 1)), (5,), (1, 1, 0)),
    (">", "<", False): ((("p", 3), ("q", 2), ("p", 3), ("r", 1)), (6, 1, 4, 1, 6), (1, 1, 2)),
}


def _pair_blocks(ls: LScheme):
    """The blocks of the tangency encoding r of a trigonal scheme, read
    pair by pair off each event's tangency column (crossings are >k <k,
    solitary double points <k >k): first the wrap-around pair (r_q, r_1),
    read as an ascent followed by a descent, then each consecutive pair.
    The wrap-around pair closes an oval plainly when the last ascent
    matches the first descent, with the index k read as m - k on odd n
    (the fiberwise order reverses through the fiber at infinity). Every
    pair has a row: validation makes r alternate > and <, from a > to a <,
    with indices in {1, 2}. The scheme is checked before the first block."""
    if ls.strands != 3:
        raise LSchemeError("root schemes and combs need a trigonal scheme (m = 3)")
    if not ls.closed:
        raise LSchemeError("trigonal encodings need a closed scheme")
    events = ls.events
    for ev in events:
        if not _KINDS[ev.kind].tangencies:
            raise LSchemeError("trigonal encodings do not admit divisor events")
    if not events:
        return
    prev_kind, prev_index = "<", events[-1].index
    if ls.surface_index % 2:
        prev_index = ls.strands - prev_index
    for ev in events:
        index = ev.index
        for kind in _KINDS[ev.kind].tangencies:
            yield _PAIR_BLOCKS[prev_kind, kind, prev_index == index]
            prev_kind, prev_index = kind, index


RootScheme = tuple[tuple[str, int], ...]


def root_scheme(ls: LScheme) -> RootScheme:
    """Interleaving pattern of the real roots of the three auxiliary
    polynomials (p: multiplicity 3, q: 2, r: 1) read off the tangency
    encoding, one block per pair of consecutive tangencies (_pair_blocks)."""
    return tuple(x for block, _, _ in _pair_blocks(ls) for x in block)


def render_root_scheme(rs: RootScheme) -> str:
    return " ".join(f"{letter}{mult}" for letter, mult in rs)


def weighted_comb(ls: LScheme) -> WeightedComb:
    """The weighted comb associated to a trigonal scheme; the final
    weights are halved (they count vertices per conjugate half). The
    empty scheme maps to the unit comb with unhalved weights, the
    degenerate realizable case.

    The halving is exact. Each of the |r| blocks debits alpha by 1, so
    alpha = 6n - |r| with |r| even (r runs from a > to a <); gamma is
    debited by 2 only; beta = 3n minus the number of mixed-index blocks,
    which is = n (mod 2): r has an even number of cyclic index changes,
    and the wrap-around block is mixed at a change on even n and at no
    change on odd n.

    The comb skips WeightedComb's checks: its letters come from
    _PAIR_BLOCKS, all in 1..6, and its weights are ints that the debit
    check below keeps nonnegative."""
    n = ls.surface_index
    alpha, beta, gamma = 6 * n, 3 * n, 2 * n
    word: list[int] = []
    for i, (_, letters, (da, db, dg)) in enumerate(_pair_blocks(ls)):
        word += letters
        alpha, beta, gamma = alpha - da, beta - db, gamma - dg
        # checked after each consecutive pair only; weights never grow and a
        # pair always follows the wrap-around block, so no deficit is missed
        if i and (alpha < 0 or beta < 0 or gamma < 0):
            raise LSchemeError(
                f"comb weights go negative ({alpha},{beta},{gamma}): "
                f"the scheme is not realizable on this surface index")
    if not ls.events:
        return tuple.__new__(WeightedComb, ((), alpha, beta, gamma))
    return tuple.__new__(WeightedComb, (tuple(word), alpha // 2, beta // 2, gamma // 2))
