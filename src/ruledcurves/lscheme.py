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
event. Text form: header ``n=<surface> m=<strands>;`` then tokens,
each optionally suffixed ``^<count>``; ``#`` starts a comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .braid import BraidWord, delta, free_reduce


class LSchemeError(ValueError):
    pass


class Event(NamedTuple):
    kind: str  # one of > < x o / \
    index: int  # 0 for the divisor events

    def token(self) -> str:
        if self.kind in "/\\":
            return self.kind
        return f"{self.kind}{self.index}"


@dataclass(frozen=True)
class LScheme:
    surface_index: int
    strands: int
    events: tuple[Event, ...]

    def __post_init__(self):
        if self.surface_index < 0:
            raise LSchemeError("surface index must be nonnegative")
        if self.strands < 2:
            raise LSchemeError("at least 2 strands are required")
        _validate(self.surface_index, self.strands, self.events)

    def is_closed_scheme(self) -> bool:
        """Starts and ends at the full intersection count (meets the
        fiber at infinity in m distinct real points)."""
        return _starts_full(self.events) and _validate(
            self.surface_index, self.strands, self.events)


def _starts_full(events: tuple[Event, ...]) -> bool:
    """A scheme fragment starts in the reduced-count region exactly when
    its first tangency-class event re-enters the full count. Fragments
    with no such event are taken to start at the full count."""
    for ev in events:
        if ev.kind == ">":
            return True
        if ev.kind in "<o":
            return False
    return True


def _validate(n: int, m: int, events: tuple[Event, ...]) -> bool:
    """Check index bounds against the running real-intersection count,
    which alternates between m and m-2. Returns whether the sequence
    ends at the full count; closed schemes start and end there, and
    the rewriting moves also accept open fragments."""
    full = _starts_full(events)
    for pos, ev in enumerate(events):
        where = f"event {pos} ({ev.token()})"
        if ev.kind == ">":
            if not full:
                raise LSchemeError(f"{where}: tangency down needs the full count")
            if not 1 <= ev.index <= m - 1:
                raise LSchemeError(f"{where}: index out of range")
            full = False
        elif ev.kind == "<":
            if full:
                raise LSchemeError(f"{where}: tangency up needs the reduced count")
            if not 1 <= ev.index <= m - 1:
                raise LSchemeError(f"{where}: index out of range")
            full = True
        elif ev.kind == "x":
            count = m if full else m - 2
            if not 1 <= ev.index <= count - 1:
                raise LSchemeError(f"{where}: crossing index out of range for count {count}")
        elif ev.kind == "o":
            if full:
                raise LSchemeError(f"{where}: solitary double point needs the reduced count")
            if not 1 <= ev.index <= m - 1:
                raise LSchemeError(f"{where}: index out of range")
        elif ev.kind in "/\\":
            if not full and m < 3:
                raise LSchemeError(f"{where}: divisor event in a reduced region needs m >= 3")
        else:
            raise LSchemeError(f"{where}: unknown event kind {ev.kind!r}")
    return full


# -- text form ---------------------------------------------------------

_HEADER = re.compile(r"^\s*n\s*=\s*(\d+)\s+m\s*=\s*(\d+)\s*;\s*")
_TOKEN = re.compile(r"^(?:([<>xo])(\d+)|(/|\\))(?:\^(\d+))?$")


def parse_scheme(text: str) -> LScheme:
    text = text.split("#", 1)[0]
    header = _HEADER.match(text)
    if not header:
        raise LSchemeError("scheme text must start with 'n=<int> m=<int>;'")
    n, m = int(header.group(1)), int(header.group(2))
    events: list[Event] = []
    for token in text[header.end():].split():
        tm = _TOKEN.match(token)
        if not tm:
            raise LSchemeError(f"bad scheme token {token!r}")
        count = int(tm.group(4)) if tm.group(4) else 1
        if count < 1:
            raise LSchemeError(f"bad repetition in token {token!r}")
        if tm.group(3):
            ev = Event(tm.group(3), 0)
        else:
            ev = Event(tm.group(1), int(tm.group(2)))
        events.extend([ev] * count)
    return LScheme(n, m, tuple(events))


def render_scheme(ls: LScheme) -> str:
    parts = [f"n={ls.surface_index} m={ls.strands};"]
    i = 0
    while i < len(ls.events):
        j = i
        while j < len(ls.events) and ls.events[j] == ls.events[i]:
            j += 1
        token = ls.events[i].token()
        parts.append(token if j - i == 1 else f"{token}^{j - i}")
        i = j
    return " ".join(parts)


# -- compiler to braids -------------------------------------------------


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


def _expand_ovals(events: Iterable[Event]) -> list[Event]:
    out: list[Event] = []
    for ev in events:
        if ev.kind == "o":
            out.append(Event("<", ev.index))
            out.append(Event(">", ev.index))
        else:
            out.append(ev)
    return out


def to_braid(ls: LScheme) -> BraidWord:
    """Compile to the associated braid: substitute every event per the
    full-count/reduced-count rule table, freely reduce, and append the
    n-th power of the half twist."""
    if not ls.is_closed_scheme():
        raise LSchemeError("braid compilation needs a closed scheme "
                           "(full intersection count at both ends)")
    m, n = ls.strands, ls.surface_index
    letters: list[int] = []
    low = False
    for ev in _expand_ovals(ls.events):
        if ev.kind == ">":
            letters.append(-ev.index)
            letters.extend(_tau(ev.index, m - 1))
            low = True
        elif ev.kind == "<":
            letters.extend(_tau(m - 1, ev.index))
            low = False
        elif ev.kind == "x":
            letters.append(-ev.index)
        elif ev.kind == "\\":
            if low:
                letters.extend(range(1, m - 2))
                letters.extend([m - 2, m - 2])
            else:
                letters.extend(range(1, m))
        elif ev.kind == "/":
            if low:
                letters.append(-(m - 2))
                letters.extend([m - 1, m - 1])
                letters.extend(range(m - 2, 0, -1))
            else:
                letters.extend(range(m - 1, 0, -1))
    reduced = free_reduce(BraidWord(m, tuple(letters)))
    return BraidWord(m, reduced.letters + delta(m).letters * n)


# -- elementary rewriting moves -----------------------------------------
# One table per family: rule -> (pattern length, move). A move takes the
# strand count m and the window of events at the position and returns
# the replacement, or None when the pattern does not match. The
# pseudoholomorphic moves preserve realizability one way; the caller
# chooses rule and position explicitly.


def _is_adjacent(j: int, k: int) -> bool:
    return abs(j - k) == 1


def _u_kinds(ev: Event) -> bool:
    return ev.kind in ("x", "<", ">")


_PSEUDO_MOVES = {
    # x_j >_{j±1} -> x_{j±1} >_j
    "cross-tangency": (2, lambda m, a, b: [Event("x", b.index), Event(">", a.index)]
                       if a.kind == "x" and b.kind == ">" and _is_adjacent(a.index, b.index)
                       else None),
    # <_{j±1} x_j -> <_j x_{j±1}
    "tangency-cross": (2, lambda m, a, b: [Event("<", b.index), Event("x", a.index)]
                       if a.kind == "<" and b.kind == "x" and _is_adjacent(a.index, b.index)
                       else None),
    # x_j u_k -> u_k x_j, |k-j| > 1
    "cross-commute": (2, lambda m, a, b: [b, a]
                      if a.kind == "x" and _u_kinds(b) and abs(a.index - b.index) > 1
                      else None),
    # \ >_{m-1} -> / >_1
    "back-descend": (2, lambda m, a, b: [Event("/", 0), Event(">", 1)]
                     if a.kind == "\\" and b == Event(">", m - 1) else None),
    "back-descend-rev": (2, lambda m, a, b: [Event("\\", 0), Event(">", m - 1)]
                         if a.kind == "/" and b == Event(">", 1) else None),
    # <_{m-1} / -> <_1 \
    "ascend-slash": (2, lambda m, a, b: [Event("<", 1), Event("\\", 0)]
                     if a == Event("<", m - 1) and b.kind == "/" else None),
    "ascend-slash-rev": (2, lambda m, a, b: [Event("<", m - 1), Event("/", 0)]
                         if a == Event("<", 1) and b.kind == "\\" else None),
    # \ u_k -> u_k \
    "back-commute": (2, lambda m, a, b: [b, a]
                     if a.kind == "\\" and _u_kinds(b) else None),
    "back-commute-rev": (2, lambda m, a, b: [b, a]
                         if _u_kinds(a) and b.kind == "\\" else None),
    # / u_k -> u_k /
    "slash-commute": (2, lambda m, a, b: [b, a]
                      if a.kind == "/" and _u_kinds(b) else None),
    "slash-commute-rev": (2, lambda m, a, b: [b, a]
                          if _u_kinds(a) and b.kind == "/" else None),
    # o_k <_k >_{k-1} -> <_k x_{k-1} >_k
    "oval-slide": (3, lambda m, a, b, c: [Event("<", a.index), Event("x", a.index - 1),
                                          Event(">", a.index)]
                   if a.kind == "o" and b == Event("<", a.index)
                   and c == Event(">", a.index - 1) else None),
    "oval-slide-rev": (3, lambda m, a, b, c: [Event("o", a.index), Event("<", a.index),
                                              Event(">", a.index - 1)]
                       if a.kind == "<" and b == Event("x", a.index - 1)
                       and c == Event(">", a.index) else None),
    # <_k x_{k-1} >_k -> <_{k-1} >_k o_k
    "oval-shift": (3, lambda m, a, b, c: [Event("<", a.index - 1), Event(">", a.index),
                                          Event("o", a.index)]
                   if a.kind == "<" and b == Event("x", a.index - 1)
                   and c == Event(">", a.index) else None),
    "oval-shift-rev": (3, lambda m, a, b, c: [Event("<", a.index + 1), Event("x", a.index),
                                              Event(">", a.index + 1)]
                       if a.kind == "<" and b == Event(">", a.index + 1)
                       and c == Event("o", a.index + 1) else None),
    # <_j >_{j±1} -> (empty)
    "cancel-pair": (2, lambda m, a, b: []
                    if a.kind == "<" and b.kind == ">" and _is_adjacent(a.index, b.index)
                    else None),
    # <_j >_k -> >_k <_j, |k-j| > 1
    "pair-commute": (2, lambda m, a, b: [b, a]
                     if a.kind == "<" and b.kind == ">" and abs(a.index - b.index) > 1
                     else None),
    # o_j -> (empty)
    "drop-oval": (1, lambda m, a: [] if a.kind == "o" else None),
}

_ALG_MOVES = {
    # >_j <_{j±1} >_j -> >_j
    "descend-zigzag": (3, lambda m, a, b, c: [a]
                       if a.kind == ">" and b.kind == "<" and c == a
                       and _is_adjacent(a.index, b.index) else None),
    # <_j >_{j±1} <_j -> <_j
    "ascend-zigzag": (3, lambda m, a, b, c: [a]
                      if a.kind == "<" and b.kind == ">" and c == a
                      and _is_adjacent(a.index, b.index) else None),
}

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


def _r_encoding(ls: LScheme) -> list[Event]:
    """Tangency-only encoding of a trigonal scheme: crossings become
    >_k <_k, solitary double points become <_k >_k."""
    if ls.strands != 3:
        raise LSchemeError("root schemes and combs need a trigonal scheme (m = 3)")
    if not ls.is_closed_scheme():
        raise LSchemeError("trigonal encodings need a closed scheme")
    out: list[Event] = []
    for ev in ls.events:
        if ev.kind in "/\\":
            raise LSchemeError("trigonal encodings do not admit divisor events")
        if ev.kind == "x":
            out.append(Event(">", ev.index))
            out.append(Event("<", ev.index))
        elif ev.kind == "o":
            out.append(Event("<", ev.index))
            out.append(Event(">", ev.index))
        else:
            out.append(ev)
    return out


def _first_block_reduced(n: int, r: list[Event]) -> bool:
    """The wrap-around pair (r_q, r_1) closes an oval plainly when the
    last ascent matches the first descent, with the index flipped on odd
    n (the fiberwise order reverses through the fiber at infinity)."""
    first, last = r[0], r[-1]
    if first.kind != ">" or last.kind != "<":
        return False
    if n % 2 == 0:
        return last.index == first.index
    return _is_adjacent(last.index, first.index)


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


def _pair_blocks(n: int, r: list[Event]):
    """The blocks of the tangency encoding r: first the wrap-around pair
    (r_q, r_1), read as an ascent followed by a descent, then each
    consecutive pair."""
    yield _PAIR_BLOCKS["<", ">", _first_block_reduced(n, r)]
    for prev, cur in zip(r, r[1:]):
        key = (prev.kind, cur.kind, prev.index == cur.index)
        if key not in _PAIR_BLOCKS or abs(prev.index - cur.index) > 1:
            raise LSchemeError(
                f"tangency encoding is not alternating near {prev.token()} {cur.token()}")
        yield _PAIR_BLOCKS[key]


RootScheme = tuple[tuple[str, int], ...]


def root_scheme(ls: LScheme) -> RootScheme:
    """Interleaving pattern of the real roots of the three auxiliary
    polynomials (p: multiplicity 3, q: 2, r: 1) read off the tangency
    encoding, one block per pair of consecutive tangencies."""
    r = _r_encoding(ls)
    if not r:
        return ()
    return tuple(x for block, _, _ in _pair_blocks(ls.surface_index, r) for x in block)


def render_root_scheme(rs: RootScheme) -> str:
    return " ".join(f"{letter}{mult}" for letter, mult in rs)


def weighted_comb(ls: LScheme):
    """The weighted comb associated to a trigonal scheme; the final
    weights are halved (they count vertices per conjugate half). The
    empty scheme maps to the unit comb with unhalved weights, the
    degenerate realizable case."""
    from .comb import WeightedComb

    n = ls.surface_index
    alpha, beta, gamma = 6 * n, 3 * n, 2 * n
    r = _r_encoding(ls)
    if not r:
        return WeightedComb((), alpha, beta, gamma)
    word: list[int] = []
    for i, (_, letters, (da, db, dg)) in enumerate(_pair_blocks(n, r)):
        word.extend(letters)
        alpha, beta, gamma = alpha - da, beta - db, gamma - dg
        # checked after each consecutive pair only; weights never grow and a
        # pair always follows the wrap-around block, so no deficit is missed
        if i and (alpha < 0 or beta < 0 or gamma < 0):
            raise LSchemeError(
                f"comb weights go negative ({alpha},{beta},{gamma}): "
                f"the scheme is not realizable on this surface index")
    if alpha % 2 or beta % 2 or gamma % 2:
        raise LSchemeError(
            f"odd final comb weights ({alpha},{beta},{gamma}): "
            f"the scheme is not realizable on this surface index")
    return WeightedComb(tuple(word), alpha // 2, beta // 2, gamma // 2)
