"""The lexical analysis graph: immediate-successor structure over tokens.

Token ``b`` follows token ``a`` exactly when ``b`` starts after ``a`` ends and
no token lies strictly between them (i.e. starts after ``a`` ends and ends
before ``b`` starts).  Gaps of ignored text do not block adjacency, only
tokens do.  Tokens with no predecessor form the start set; every maximal path
through the following-relation is one possible tokenization of the input.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from json.encoder import encode_basestring as _json_string

from .scanner import ScanResult, Token

__all__ = [
    "AdjacencyIndex",
    "LexGraph",
    "build_graph",
    "enumerate_sequences",
    "graph_from_json",
    "to_dot",
    "to_json",
]


class AdjacencyIndex:
    """Token starts in ascending order plus a suffix minimum of token ends.

    ``min_end_after(p)`` is the smallest end of any token starting at or
    after offset ``p`` (infinite when none does).  Token ``b`` follows ``a``
    exactly when ``a.end < b.start <= min_end_after(a.end + 1)``: every token
    starting after ``a`` ends and ending before ``b`` starts would sit strictly
    between them.

    The tokens must be numbered ``0, 1, ...`` in ascending start order, so
    that a position in ``starts`` is a token id.  This is the one place that
    checks it; any other list raises `ValueError`.
    """

    __slots__ = ("starts", "_suffix_min_end")

    def __init__(self, tokens: tuple[Token, ...]):
        self.starts = [t.start for t in tokens]
        if self.starts != sorted(self.starts) or [t.id for t in tokens] != list(range(len(tokens))):
            raise ValueError("tokens must be numbered 0, 1, ... in ascending start order")
        ends = reversed([t.end for t in tokens])
        self._suffix_min_end = list(accumulate(ends, min, initial=math.inf))[::-1]

    def min_end_after(self, p: int) -> float:
        return self._suffix_min_end[bisect_left(self.starts, p)]

    def window(self, end: int) -> tuple[int, int]:
        """Positions in ``starts`` of the tokens that may follow a symbol ending at ``end``."""
        lo = bisect_right(self.starts, end)
        return lo, bisect_right(self.starts, self._suffix_min_end[lo], lo)

    def follows(self, end: int, start: int) -> bool:
        return end < start <= self.min_end_after(end + 1)

    def spans_all(self, start: int, end: int) -> bool:
        """No token ends before ``start`` or starts after ``end``."""
        return not self.starts or (start <= self._suffix_min_end[0] and end >= self.starts[-1])


@dataclass(frozen=True)
class LexGraph:
    """Tokens numbered ``0, 1, ...`` in ascending start order, and the edges
    between them; a graph outside that order raises `ValueError`."""

    tokens: tuple[Token, ...]
    input_length: int
    following: tuple[tuple[int, ...], ...]  # indexed by token id, ids ascending
    preceding: tuple[tuple[int, ...], ...]
    start_set: tuple[int, ...]
    # Built from ``tokens`` when not given; derived data, so not compared.
    index: AdjacencyIndex = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.index is None:
            object.__setattr__(self, "index", AdjacencyIndex(self.tokens))


def build_graph(result: ScanResult) -> LexGraph:
    """Compute following/preceding sets from the adjacency index.

    The tokens must be numbered ``0, 1, ...`` in ascending start order, as
    `scanner.scan` emits them, or `AdjacencyIndex` raises `ValueError`.  So
    the tokens that follow ``a`` form one contiguous slice of ids: those
    whose start lies in ``(a.end, min_end_after(a.end + 1)]``.  Two
    bisections per distinct token end find it, tokens with one end share
    one ``following`` tuple, and ``preceding`` is the inverse of the
    slices, so the build costs O(T log T + E) for T tokens and E edges.
    """
    toks = result.tokens
    n = len(toks)
    index = AdjacencyIndex(toks)
    window = index.window
    ids = tuple(range(n))
    by_end: dict[int, tuple[int, ...]] = {}
    following = []
    for t in toks:
        successors = by_end.get(t.end)
        if successors is None:
            lo, hi = window(t.end)
            successors = by_end[t.end] = ids[lo:hi]
        following.append(successors)
    preceding: list[list[int]] = [[] for _ in range(n)]
    for i, successors in enumerate(following):
        for j in successors:
            preceding[j].append(i)
    return LexGraph(
        tokens=toks,
        input_length=result.input_length,
        following=tuple(following),
        preceding=tuple(tuple(p) for p in preceding),
        start_set=tuple(i for i in range(n) if not preceding[i]),
        index=index,
    )


def _iter_paths(g: LexGraph):
    """All maximal paths (start-set token to sink), lexicographic by token id."""
    for s in g.start_set:
        if not g.following[s]:
            yield [s]
            continue
        path = [s]
        iters = [iter(g.following[s])]
        while iters:
            nxt = next(iters[-1], None)
            if nxt is None:
                iters.pop()
                path.pop()
                continue
            path.append(nxt)
            successors = g.following[nxt]
            if successors:
                iters.append(iter(successors))
            else:
                yield path.copy()
                path.pop()


def enumerate_sequences(g: LexGraph, limit: int) -> tuple[list[list[int]], bool]:
    """Up to ``limit`` token-id paths plus a flag saying whether more exist."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    paths: list[list[int]] = []
    for path in _iter_paths(g):
        if len(paths) == limit:
            return paths, True
        paths.append(path)
    return paths, False


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def to_dot(g: LexGraph) -> str:
    """Render the graph as a DOT digraph; start-set tokens are double-circled."""
    lines = ["digraph lexgraph {", "  rankdir=LR;"]
    starts = set(g.start_set)
    for t in g.tokens:
        label = _dot_escape(f'{t.type_name}\n"{t.text}"@{t.start}-{t.end}')
        shape = ", shape=doublecircle" if t.id in starts else ""
        lines.append(f'  n{t.id} [label="{label}"{shape}];')
    for t in g.tokens:
        for b in g.following[t.id]:
            lines.append(f"  n{t.id} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(g: LexGraph) -> str:
    """Compact JSON, written directly: the same bytes as ``json.dumps`` of
    the payload with ``ensure_ascii=False`` and no spaces."""
    records = ",".join([
        f'{{"id":{i},"type":{_json_string(name)},"text":{_json_string(text)},'
        f'"start":{start},"end":{end},"preceding":[{",".join(map(str, p))}],'
        f'"following":[{",".join(map(str, f))}]}}'
        for (i, name, text, start, end), p, f
        in zip(g.tokens, g.preceding, g.following, strict=True)
    ])
    start_set = ",".join(map(str, g.start_set))
    return f'{{"input_length":{g.input_length},"tokens":[{records}],"start":[{start_set}]}}'


def graph_from_json(text: str) -> LexGraph:
    """The graph `to_json` wrote, rebuilt by `build_graph` from its tokens.

    The text must hold exactly the JSON value that `to_json` writes for that
    graph, keys in the same order; only spacing and string escapes may
    differ.  Anything else raises one `ValueError` that names the problem:
    tokens not numbered ``0, 1, ...`` in ascending start order, a token span
    that no scan produces, a missing field, a value of the wrong type, or
    edges or a start set that differ from the rebuilt ones.
    """
    try:
        data = json.loads(text, parse_float=int)  # int() rejects every float literal
        tokens = tuple(
            Token(rec["id"], rec["type"], rec["text"], rec["start"], rec["end"])
            for rec in data["tokens"]
        )
        input_length = data["input_length"]
        for t in tokens:
            if not (0 <= t.start <= t.end < input_length and len(t.text) == t.end - t.start + 1):
                raise ValueError(f"token {t.id} ({t}) needs 0 <= start <= end < input_length "
                                 f"({input_length}) and text of length end - start + 1")
        graph = build_graph(ScanResult(tokens, input_length))
        same = json.dumps(data, ensure_ascii=False, separators=(",", ":")) == to_json(graph)
    except KeyError as exc:
        raise ValueError(f"token graph JSON: no field {exc}") from exc
    except (TypeError, ValueError, RecursionError) as exc:
        raise ValueError(f"token graph JSON: {exc}") from exc
    if not same:
        raise ValueError("token graph JSON: edges, start set or fields differ "
                         "from what to_json writes for its tokens")
    return graph
