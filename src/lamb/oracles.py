"""Independent reference implementations for differential checking.

These restate the scanning semantics and the adjacency definition in the most
literal way possible, sharing no logic with `scanner.scan` or
`lexgraph.build_graph`.  They exist to be compared against the production
paths (the CLI's ``--oracle-check`` does exactly that), so keep them naive.

`scan_oracle` shares only the Thompson construction with the scanner
(`pattern.compile`, itself checked against Python's ``re`` in the tests).  It
never runs the scanner's lazily built DFA, `pattern.Automaton`: its own
engine, `match_longest_oracle`, simulates the NFA breadth first, building the
set of live NFA states afresh at every character, ε-closure included.
"""

from __future__ import annotations

from typing import NamedTuple

from . import pattern
from .scanner import ScanResult, Token
from .spec_io import LexSpec

__all__ = ["GraphEdges", "build_graph_oracle", "match_longest_oracle", "scan_oracle"]


def _label_matches(label: tuple, ch: str) -> bool:
    ranges, negated = label
    return any(lo <= ch <= hi for lo, hi in ranges) != negated


def _eps_closure(prog: pattern.Pattern, states: set[int]) -> set[int]:
    """``states`` grown, one ε-edge further per pass, until a pass adds nothing."""
    added = states
    while added := {t for s in added for t in prog._eps[s]} - states:
        states = states | added
    return states


def match_longest_oracle(prog: pattern.Pattern, text: str, pos: int) -> int | None:
    """Same contract as `Pattern.match_longest_at`, by breadth-first NFA simulation.

    Reads only the compiled NFA (``_edges``, ``_eps``, ``_start`` and
    ``_accept``) and caches nothing between characters or calls.
    """
    if not 0 <= pos <= len(text):
        raise ValueError(f"position {pos} outside input of length {len(text)}")
    current = _eps_closure(prog, {prog._start})
    best = None
    for i in range(pos, len(text)):
        moved = set()
        for state in current:
            for label, target in prog._edges[state]:
                if _label_matches(label, text[i]):
                    moved.add(target)
        if not moved:
            break
        current = _eps_closure(prog, moved)
        if prog._accept in current:
            best = i + 1 - pos
    return best


def scan_oracle(spec: LexSpec, text: str) -> ScanResult:
    """Same contract as `scanner.scan`, written from scratch.

    Watermarks live in a dict keyed by matcher index, the visiting order is
    recomputed per position, and the post-match watermark target is found by
    iterative lowering instead of a one-shot minimum.  Patterns are compiled
    afresh and matched with `match_longest_oracle`.
    """
    entries: list[tuple[int, int, str | None, pattern.Pattern]] = []
    for d in spec.ignore_defs:
        entries.append((0, d.ordinal, None, pattern.compile(d.pattern_source)))
    for d in spec.token_defs:
        entries.append((d.priority, d.ordinal, d.name, pattern.compile(d.pattern_source)))
    watermark = {k: -1 for k in range(len(entries))}
    tokens: list[Token] = []
    ignored: list[tuple[int, int]] = []
    for i in range(len(text)):
        last_priority = -1  # -1 = nothing matched here yet
        order = sorted(range(len(entries)), key=lambda k: (entries[k][0], entries[k][1]))
        for k in order:
            priority, _, name, prog = entries[k]
            if watermark[k] >= i:
                continue
            if last_priority == 0:
                break
            if last_priority != -1 and priority > last_priority:
                break
            length = match_longest_oracle(prog, text, i)
            if length is None:
                continue
            last_priority = priority
            end = i + length - 1
            if priority == 0:
                ignored.append((i, end))
            else:
                tokens.append(Token(len(tokens), name, text[i:end + 1], i, end))
            target = end
            for other in watermark:
                if i <= watermark[other] <= target:
                    target = watermark[other]
            watermark[k] = target
            for other in range(len(entries)):
                if entries[other][0] > priority:
                    watermark[other] = target
    return ScanResult(tuple(tokens), len(text), tuple(ignored))


class GraphEdges(NamedTuple):
    """A graph's edges, one tuple of ids per token, and its start set."""

    following: tuple[tuple[int, ...], ...]
    preceding: tuple[tuple[int, ...], ...]
    start_set: tuple[int, ...]


def build_graph_oracle(result: ScanResult) -> GraphEdges:
    """Adjacency straight from the definition, one triple loop, no shortcuts.

    Compare ``following`` and ``start_set`` with the views of the same name
    of `lexgraph.build_graph`'s graph, and ``preceding`` with the lists that
    `lexgraph.to_json` writes.  Like `build_graph`, it takes tokens numbered
    ``0, 1, ...`` in ascending start order, and raises `ValueError` on any
    other list.
    """
    toks = result.tokens
    for k, t in enumerate(toks):
        if t.id != k or (k > 0 and toks[k - 1].start > t.start):
            raise ValueError("tokens must be numbered 0, 1, ... in ascending start order")
    following: dict[int, list[int]] = {t.id: [] for t in toks}
    preceding: dict[int, list[int]] = {t.id: [] for t in toks}
    for a in toks:
        for b in toks:
            if a.end < b.start and not any(
                c.start > a.end and c.end < b.start for c in toks
            ):
                following[a.id].append(b.id)
                preceding[b.id].append(a.id)
    return GraphEdges(
        tuple(tuple(sorted(following[t.id])) for t in toks),
        tuple(tuple(sorted(preceding[t.id])) for t in toks),
        tuple(t.id for t in toks if not preceding[t.id]),
    )
