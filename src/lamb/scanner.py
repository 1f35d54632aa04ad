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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .spec_io import LexSpec

__all__ = ["ScanResult", "Token", "render_tokens_text", "scan", "uncovered_spans"]


@dataclass(frozen=True)
class Token:
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
    entries = [(d.priority, d.ordinal, d.name, d.compiled) for d in spec.token_defs]
    entries += [(0, d.ordinal, None, d.compiled) for d in spec.ignore_defs]
    entries.sort(key=lambda e: e[:2])  # precedence order; priority 0 = ignored
    # Per matcher, in that order: priority, token name, bound match method,
    # watermark, and where its suffix of strictly lower precedence starts.
    priorities = [e[0] for e in entries]
    names = [e[2] for e in entries]
    matches = [e[3].match_longest_at for e in entries]
    marks = [-1] * len(entries)
    lower = [bisect_right(priorities, p) for p in priorities]
    tokens: list[Token] = []
    ignored: list[tuple[int, int]] = []
    for i in range(len(text)):
        for k, match in enumerate(matches):
            if marks[k] >= i:
                continue
            length = match(text, i)
            if length is None:
                continue
            end = i + length - 1
            new_mark = end
            for mark in marks:
                if i <= mark < new_mark:
                    new_mark = mark
            marks[k] = new_mark
            # Dragging the lower-precedence suffix to new_mark >= i also
            # keeps it from matching at i.
            j = lower[k]
            marks[j:] = [new_mark] * (len(marks) - j)
            if priorities[k] >= 1:
                tokens.append(Token(len(tokens), names[k], text[i:end + 1], i, end))
            else:
                ignored.append((i, end))
                if priorities[k] == 0:
                    break  # an ignored match suppresses everything else here
    return ScanResult(tuple(tokens), len(text), tuple(ignored))


def uncovered_spans(result: ScanResult) -> list[tuple[int, int]]:
    """Maximal input spans covered by no token and no ignored match."""
    covered = bytearray(result.input_length)
    for t in result.tokens:
        for k in range(t.start, t.end + 1):
            covered[k] = 1
    for s, e in result.ignored:
        for k in range(s, e + 1):
            covered[k] = 1
    spans = []
    run_start = None
    for k, flag in enumerate(covered):
        if not flag and run_start is None:
            run_start = k
        elif flag and run_start is not None:
            spans.append((run_start, k - 1))
            run_start = None
    if run_start is not None:
        spans.append((run_start, result.input_length - 1))
    return spans


def render_tokens_text(result: ScanResult) -> str:
    """One token per line: ``<id>\\t<TYPE>\\t<start>-<end>\\t<text>``."""
    lines = [f"{t.id}\t{t.type_name}\t{t.start}-{t.end}\t{t.text}" for t in result.tokens]
    return "\n".join(lines) + ("\n" if lines else "")
