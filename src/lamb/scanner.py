"""Exhaustive scanning: every admissible token occurrence, not just one per spot.

At each input position the matchers are visited in precedence order (priority
ascending, then definition order; ignored patterns sit at priority 0 and so go
first).  The first match at a position fixes the winning priority: matchers of
the same priority still get to match (overlapping alternatives are all kept),
lower-precedence ones are cut off, and a priority-0 match suppresses
everything else at that position.

Each matcher keeps a watermark, the offset at or below which it will not be
tried again.  After a match the watermark moves to the match end, lowered to
any other matcher's watermark falling inside the match; matchers of strictly
lower precedence are dragged forward to the same offset.  That is what keeps,
say, a keyword's characters from re-matching as an identifier suffix while
still letting genuinely overlapping alternatives coexist.  A new watermark
is thus never above the smallest pending one (at or past the position), so
the pending watermarks are one stack, smallest on top: a match pushes its
end or joins the top, at a cost that does not grow with the matchers.

The spec keeps, per matcher, its definition and what a match of it drags
(`LexSpec.matchers`), so a scan builds nothing per call but the class string.
The matching itself is one walk per position over the DFA states of the spec's
automaton (`LexSpec.automaton`; both are built by the first scan), stepped
through inline: from the one start state, one lookup ``state[c]`` per
character, ``c`` being its class in the text's `Automaton.classes`; the
lookup fills in a transition not known yet.  Every set of matchers is one
bitmask.  The walk keeps only the accepts of live matchers, those whose
watermark is below the position, and notes where each accepts; it stops
where no live matcher is alive.  The rules above run over those ends.

Walks from every position would make the scan quadratic on text that keeps a
walk alive without completing a match, such as ``a``×n under ``/a*b/``.  So
one scan keeps the failure memo of Reps ("'Maximal-munch' tokenization in
linear time", TOPLAS 1998): for each pair (DFA state, offset), the matchers
that accept nowhere a walk from it reaches.  That depends on the text and
the automaton only, so a later walk that reaches the pair stops there when
it wants none but those matchers.  Past their last accept, the walks of one
scan then read each pair at most once per set of matchers they want; before
it, a walk reads no further than its longest match.  The scan of ``a``×n
under ``/a*b/`` plus ``/a/`` or ``/a+/`` is so linear.  Walks check and
record pairs only from ``_MEMO_AFTER`` characters on, since most walks end
sooner and then pay nothing for the memo.  The memo keys a state by its
``id``, and each position reads the start state afresh, holding none across
a step, so a scan keeps no state of an emptied cache alive.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring as _json_string
from typing import NamedTuple

from .spec_io import LexSpec

__all__ = ["ScanResult", "Token", "render_tokens_text", "scan", "uncovered_spans"]

_MEMO_AFTER = 8  # a walk checks and records its (state, offset) pairs from this many characters on

# JSON leaves U+0085, U+2028 and U+2029 as they are, but `str.splitlines`
# breaks lines at them, so the text and DOT outputs escape them too.
_LINE_BREAKS = {0x85: "\\u0085", 0x2028: "\\u2028", 0x2029: "\\u2029"}


def _escape_line_breaks(s: str) -> str:
    """``s`` with U+0085, U+2028 and U+2029 written as JSON escapes.  Only a
    token's text can hold them, so an output may be escaped whole."""
    if "\x85" in s or "\u2028" in s or "\u2029" in s:
        return s.translate(_LINE_BREAKS)
    return s


class Token(NamedTuple):
    id: int
    type_name: str
    text: str
    start: int  # inclusive
    end: int    # inclusive

    def __str__(self) -> str:
        return _escape_line_breaks(f"{self.type_name} {_json_string(self.text)}@{self.start}-{self.end}")


@dataclass(frozen=True)
class ScanResult:
    tokens: tuple[Token, ...]
    input_length: int
    ignored: tuple[tuple[int, int], ...] = ()  # spans consumed by priority-0 patterns


def scan(spec: LexSpec, text: str) -> ScanResult:
    """Collect all admissible tokens of ``text`` under ``spec``.

    Tokens come out in discovery order (position ascending, then matcher
    precedence), with ids assigned sequentially from 0.  Characters nothing
    matches are simply passed over; `uncovered_spans` reports them.
    """
    matchers = spec.matchers  # matcher k's (definition, ignored, moved), in precedence order
    automaton = spec.automaton
    classes = automaton.classes(text)  # walks read classes; token texts slice ``text``
    tokens: list[Token] = []
    ignored: list[tuple[int, int]] = []
    new_token = tuple.__new__  # a Token from the tuple of its fields, without the named tuple's __new__
    n = len(text)
    live = (1 << len(matchers)) - 1  # the matchers whose watermark is below i
    # The pending watermarks, those at or past i, are a stack: on top
    # ``mark`` and ``held``, the matchers it holds back, then ``below``, the
    # rest as nested (mark, held, below) triples, down to a sentinel n that
    # no match end reaches.
    mark, held, below = n, 0, None
    # Reps's memo: per pair (DFA state, offset), kept as ``state.id * stride +
    # offset``, the bits of the matchers that accept nowhere a walk from it reaches.
    failed: dict[int, int] = {}
    passed: list[int] = []  # pairs of the current walk since a live matcher last accepted
    stride = n + 1
    for i in range(n):
        if mark < i:  # mark is i - 1: its matchers are live again
            live |= held
            mark, held, below = below
        elif not live:
            continue
        state = automaton.start[classes[i]]  # the walk holds no start state
        if not state.alive & live:
            continue  # no live matcher gets past i
        # Walk on from i + 1.  ``accepts`` are the live matchers accepting at
        # ``end``, the latest offset where one does; ``earlier`` keeps the
        # (accepts, end) of earlier stretches, when they differ.
        accepts = state.accepts & live
        end = j = i + 1
        earlier = None
        memo_from = i + _MEMO_AFTER
        while j < n:
            if j >= memo_from:
                key = state.id * stride + j
                if not live & ~failed.get(key, 0):
                    break  # no live matcher accepts beyond j
                passed.append(key)
            state = state[classes[j]]
            if not state.alive & live:
                break  # no live matcher accepts beyond j
            j += 1
            found = state.accepts & live
            if found:
                if passed:
                    passed.clear()
                if found != accepts:
                    if accepts:
                        if earlier is None:
                            earlier = []
                        earlier.append((accepts, end))
                    accepts = found
                end = j
        if passed:
            failed.update({key: failed.get(key, 0) | live for key in passed})
            passed.clear()
        if not accepts:
            continue
        matched = accepts
        if earlier is not None:
            for stretch, _ in earlier:
                matched |= stretch
        # Lowest bit first is precedence order.  What a match drags, its ``moved``, leaves live, and so matched.
        while matched:
            bit = matched & -matched
            d, skip, moved = matchers[bit.bit_length() - 1]
            last = end - 1
            if earlier is not None and not accepts & bit:  # it accepted last in an earlier stretch
                last = next(stretch_end for stretch, stretch_end in reversed(earlier) if stretch & bit) - 1
            # A matcher dragged to a lower watermark keeps its bit at the old
            # one.  That is harmless: no watermark is set above the top, so a
            # matcher's never lies above an entry holding its bit, and it is
            # live again when such a stale entry is popped.  An entry of live
            # matchers only holds none back and must lower nothing: pop it first.
            while last >= mark and not held & ~live:
                mark, held, below = below
            if last < mark:
                below = (mark, held, below)
                mark, held = last, moved
            else:  # the top lies inside the match: it is the new watermark
                held |= moved
            live -= live & moved  # as &= ~moved, without a negative int, which costs more on wide masks
            matched &= live
            if skip:
                ignored.append((i, last))
                break  # an ignored match suppresses everything else here
            tokens.append(new_token(Token, (len(tokens), d.name, text[i:last + 1], i, last)))
    return ScanResult(tuple(tokens), len(text), tuple(ignored))


def uncovered_spans(result: ScanResult) -> list[tuple[int, int]]:
    """Maximal input spans covered by no token and no ignored match."""
    spans = []
    covered_to = 0  # every offset below it is covered or already reported
    for start, end in sorted([*((t.start, t.end) for t in result.tokens), *result.ignored]):
        if start > covered_to:
            spans.append((covered_to, start - 1))
        if end >= covered_to:
            covered_to = end + 1
    if covered_to < result.input_length:
        spans.append((covered_to, result.input_length - 1))
    return spans


def render_tokens_text(result: ScanResult) -> str:
    """One token per line: ``<id>\\t<TYPE>\\t<start>-<end>\\t<text>``, the text JSON-escaped,
    and U+0085, U+2028 and U+2029 too."""
    lines = [f"{t.id}\t{t.type_name}\t{t.start}-{t.end}\t{_json_string(t.text)[1:-1]}" for t in result.tokens]
    return _escape_line_breaks("\n".join(lines) + ("\n" if lines else ""))
