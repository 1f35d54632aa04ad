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

from dataclasses import dataclass, field

from . import pattern
from .spec_io import IgnoreDef, LexSpec, TokenDef

__all__ = ["Matcher", "ScanResult", "Token", "render_tokens_text", "scan", "uncovered_spans"]


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


@dataclass
class Matcher:
    """One pattern plus its per-scan watermark state (priority 0 = ignored)."""

    definition: TokenDef | IgnoreDef
    name: str | None
    priority: int
    ordinal: int
    pattern: pattern.Pattern
    watermark: int = field(default=-1)


def _matchers(spec: LexSpec) -> list[Matcher]:
    matchers = [
        Matcher(d, d.name, d.priority, d.ordinal, d.compiled)
        for d in spec.token_defs
    ]
    matchers.extend(
        Matcher(d, None, 0, d.ordinal, d.compiled)
        for d in spec.ignore_defs
    )
    matchers.sort(key=lambda m: (m.priority, m.ordinal))
    return matchers


def scan(spec: LexSpec, text: str) -> ScanResult:
    """Collect all admissible tokens of ``text`` under ``spec``.

    Tokens come out in discovery order (position ascending, then matcher
    precedence), with ids assigned sequentially from 0.  Characters nothing
    matches are simply passed over; `uncovered_spans` reports them.
    """
    matchers = _matchers(spec)
    tokens: list[Token] = []
    ignored: list[tuple[int, int]] = []
    for i in range(len(text)):
        p_min: int | None = None
        for m in matchers:
            if m.watermark >= i:
                continue
            if p_min == 0:
                break
            if p_min is not None and m.priority > p_min:
                break
            length = m.pattern.match_longest_at(text, i)
            if length is None:
                continue
            p_min = m.priority
            end = i + length - 1
            if m.priority >= 1:
                tokens.append(Token(len(tokens), m.name, text[i:end + 1], i, end))
            else:
                ignored.append((i, end))
            min_end = min([end] + [x.watermark for x in matchers if i <= x.watermark <= end])
            m.watermark = min_end
            for other in matchers:
                if other.priority > m.priority:
                    other.watermark = min_end
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
