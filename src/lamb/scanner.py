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
still letting genuinely overlapping alternatives coexist.

The matching itself is one walk per position of the spec's automaton
(`LexSpec.automaton`, built by the first scan), started from the matchers
whose watermark lies below the position.  That walk gives the longest match
of each of them at once; the precedence and watermark rules above then run
over those lengths.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from .spec_io import LexSpec

__all__ = ["ScanResult", "Token", "render_tokens_text", "scan", "uncovered_spans"]


class Token(NamedTuple):
    id: int
    type_name: str
    text: str
    start: int  # inclusive
    end: int    # inclusive

    def __str__(self) -> str:
        return f'{self.type_name} "{self.text}"@{self.start}-{self.end}'


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
    defs = spec.by_precedence  # matcher k is defs[k], in precedence order
    longest_at = spec.automaton.longest_at
    # Per matcher: priority (0 = ignored), token name, watermark, and where
    # its suffix of strictly lower precedence starts.
    priorities = [d.priority for d in defs]
    names = [d.name if d.priority else None for d in defs]
    m = len(defs)
    marks = [-1] * m
    lower = [bisect_right(priorities, p) for p in priorities]
    # Bits of the matchers a match of matcher k moves past i: itself and
    # its lower-precedence suffix.
    moved = [1 << k | ((1 << m) - (1 << lower[k])) for k in range(m)]
    tokens: list[Token] = []
    ignored: list[tuple[int, int]] = []
    all_live = live = (1 << m) - 1  # live: the matchers whose watermark is below i
    wake_at = [0] * (len(text) + 1)  # by offset: matchers whose watermark was set just before it
    for i in range(len(text)):
        woken = wake_at[i]
        while woken:  # skip matchers whose watermark has since moved to i or beyond
            bit = woken & -woken
            if marks[bit.bit_length() - 1] < i:
                live |= bit
            woken ^= bit
        if not live:
            continue
        for k, length in longest_at(text, i, live):
            if marks[k] >= i:
                continue  # dragged past i by a match of higher precedence
            end = i + length - 1
            new_mark = end
            if live != all_live:  # else no watermark is at or past i
                for mark in marks:
                    if i <= mark < new_mark:
                        new_mark = mark
            marks[k] = new_mark
            # Dragging the lower-precedence suffix to new_mark >= i also
            # keeps it from matching at i.
            j = lower[k]
            marks[j:] = [new_mark] * (m - j)
            live &= ~moved[k]
            wake_at[new_mark + 1] |= moved[k]
            if priorities[k] >= 1:
                tokens.append(Token(len(tokens), names[k], text[i:end + 1], i, end))
            else:
                ignored.append((i, end))
                if priorities[k] == 0:
                    break  # an ignored match suppresses everything else here
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
    """One token per line: ``<id>\\t<TYPE>\\t<start>-<end>\\t<text>``."""
    lines = [f"{t.id}\t{t.type_name}\t{t.start}-{t.end}\t{t.text}" for t in result.tokens]
    return "\n".join(lines) + ("\n" if lines else "")
