"""The lexical analysis graph: immediate-successor structure over tokens.

Token ``b`` follows token ``a`` exactly when ``b`` starts after ``a`` ends and
no token lies strictly between them (i.e. starts after ``a`` ends and ends
before ``b`` starts).  Gaps of ignored text do not block adjacency, only
tokens do.  Tokens with no predecessor form the start set; every maximal path
through the following-relation is one possible tokenization of the input.

A graph holds its tokens, their starts and the suffix minima of their ends,
and nothing else.  Every query, here and in `parser.parse`, reads a token's
successors as its `window`, a range of ids.  The edge lists `following` and
`start_set` exist for ``--oracle-check``, outside readers and perfbench.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_right
from itertools import accumulate, islice
from json.encoder import encode_basestring as _json_string

from .scanner import ScanResult, Token, _escape_line_breaks
from .spec_io import _cached

__all__ = [
    "LexGraph",
    "build_graph",
    "count_sequences",
    "enumerate_sequences",
    "graph_from_json",
    "to_dot",
    "to_json",
]


class LexGraph:
    """Tokens numbered ``0, 1, ...`` in ascending start order, and the input
    length.  The graph checks the numbering here and nowhere else; any other
    token list raises `ValueError`.

    It keeps the token starts, ``starts``, and ``suffix_min_end``: at
    position ``k``, the smallest end of tokens ``k, k+1, ...`` (infinite past
    the last).  Token ``b`` follows ``a`` exactly when
    ``a.end < b.start <= m``, where ``m`` is the smallest end of any token
    starting after ``a`` ends (infinite when none does): every token starting
    after ``a`` ends and ending before ``b`` starts would sit strictly between
    them.  A position in ``starts`` is a token id, so the tokens that follow
    one are a range of ids, its `window`, and lamb's queries read only that.

    Two graphs are equal when their tokens and input lengths are: the edges
    follow from the tokens.
    """

    def __init__(self, tokens: tuple[Token, ...], input_length: int):
        ids, _, _, starts, ends = zip(*tokens) if tokens else ((),) * 5
        if ids != tuple(range(len(ids))) or list(starts) != sorted(starts):
            raise ValueError("tokens must be numbered 0, 1, ... in ascending start order")
        self.tokens, self.input_length, self.starts = tokens, input_length, starts
        self.suffix_min_end = [*accumulate(reversed(ends), min, initial=math.inf)]
        self.suffix_min_end.reverse()

    def __eq__(self, other):
        return (isinstance(other, LexGraph) and self.tokens == other.tokens
                and self.input_length == other.input_length)

    def window(self, end: int) -> tuple[int, int]:
        """Positions in ``starts`` of the tokens that may follow a symbol ending at ``end``."""
        lo = bisect_right(self.starts, end)
        return lo, bisect_right(self.starts, self.suffix_min_end[lo], lo)

    def spans_all(self, start: int, end: int) -> bool:
        """No token ends before ``start`` or starts after ``end``."""
        return not self.starts or (start <= self.suffix_min_end[0] and end >= self.starts[-1])

    @_cached
    def following(self) -> tuple[tuple[int, ...], ...]:
        """Per token id, the ids that follow it: the slice of ids in
        ``window(end)``, one tuple per distinct end.  Computed on first read
        and kept; in lamb only ``--oracle-check`` reads it.  Kept for
        perfbench, which reads it by name."""
        ids = tuple(range(len(self.tokens)))
        by_end = {end: ids[slice(*self.window(end))] for end in {t.end for t in self.tokens}}
        return tuple([by_end[t.end] for t in self.tokens])

    @_cached
    def start_set(self) -> tuple[int, ...]:
        """The tokens that follow none, the ids in ``window(-1)``; cached like
        `following`, and kept for perfbench, which reads it by name."""
        return tuple(range(self.window(-1)[1]))


def build_graph(result: ScanResult) -> LexGraph:
    """The graph of ``result``'s tokens, numbered in start order as `scanner.scan`
    emits them.  It builds only the starts and suffix minima, in O(T log T) for T tokens."""
    return LexGraph(result.tokens, result.input_length)


def _iter_paths(g: LexGraph):
    """All maximal paths, lexicographic by token id, from the start set ``window(-1)``."""
    path, iters = [None], [iter(range(*g.window(-1)))]  # path[0] stands for the start set
    while iters:
        nxt = next(iters[-1], None)
        if nxt is None:
            iters.pop()
            path.pop()
        elif successors := range(*g.window(g.tokens[nxt].end)):
            path.append(nxt)
            iters.append(iter(successors))
        else:
            yield [*path[1:], nxt]


def enumerate_sequences(g: LexGraph, limit: int) -> tuple[list[list[int]], bool]:
    """Up to ``limit`` token-id paths plus a flag saying whether more exist."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    # islice takes no stop past sys.maxsize, and no graph has that many paths.
    paths = list(islice(_iter_paths(g), min(limit + 1, sys.maxsize)))
    return paths[:limit], len(paths) > limit


def count_sequences(g: LexGraph) -> int:
    """The number of maximal paths, in O(T log T) with no term per edge.  With
    ``suffix[i]`` the paths from tokens ``i, i+1, ...``, token ``i`` has 1 when
    its window is empty, else ``suffix[lo] - suffix[hi]``: successor ids are larger."""
    suffix = [0] * (len(g.tokens) + 1)
    for i in reversed(range(len(g.tokens))):
        lo, hi = g.window(g.tokens[i].end)
        suffix[i] = suffix[i + 1] + (suffix[lo] - suffix[hi] if lo < hi else 1)
    return suffix[0] - suffix[g.window(-1)[1]]


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _dot_token_label(t) -> str:
    """The DOT label of a `Token` or a forest's token node, escaped: its type,
    then its text as a JSON string and its span.  `to_dot` and
    `parser.forest_to_dot` both write it."""
    return _dot_escape(_escape_line_breaks(f"{t.type_name}\n{_json_string(t.text)}@{t.start}-{t.end}"))


def to_dot(g: LexGraph) -> str:
    """Render the graph as a DOT digraph; start-set tokens are double-circled."""
    lines = ["digraph lexgraph {", "  rankdir=LR;"]
    sources = g.window(-1)[1]  # the start set is the ids below it
    for t in g.tokens:
        shape = ", shape=doublecircle" if t.id < sources else ""
        lines.append(f'  n{t.id} [label="{_dot_token_label(t)}"{shape}];')
    for t in g.tokens:
        for b in range(*g.window(t.end)):
            lines.append(f"  n{t.id} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(g: LexGraph) -> str:
    """Compact JSON, written directly: the same bytes as ``json.dumps`` of
    the payload with ``ensure_ascii=False`` and no spaces.

    One pass over the tokens in id order, reading only ``g.starts`` and
    ``g.suffix_min_end``: a token's successors are the ids in its window,
    and it adds its own id to each successor's ``preceding`` string.  A
    predecessor always has the smaller id, so that string is complete when
    the pass reaches its token.
    """
    tokens = g.tokens
    if not tokens:
        return f'{{"input_length":{g.input_length},"tokens":[],"start":[]}}'
    starts, min_end = g.starts, g.suffix_min_end
    ids = [*map(str, range(len(tokens)))]
    preceding = [""] * len(tokens)
    names: dict[str, str] = {}  # type name -> its JSON string
    records = []
    for i, name, text, start, end in tokens:
        # g.window(end), inline: a call per token made to_json 1.07-1.10x
        # slower on the 65,800 tokens of lex-mixed seed 41, blocks 0-2.
        lo = bisect_right(starts, end)
        hi = bisect_right(starts, min_end[lo], lo)
        s = ids[i]
        for j in range(lo, hi):
            p = preceding[j]
            preceding[j] = f"{p},{s}" if p else s
        quoted = names.get(name) or names.setdefault(name, _json_string(name))
        records.append(
            f'{{"id":{s},"type":{quoted},"text":{_json_string(text)},'
            f'"start":{start},"end":{end},"preceding":[{preceding[i]}],'
            f'"following":[{",".join(ids[lo:hi])}]}}')
        preceding[i] = None  # written; no later token adds to it
    # The header and the tail ride on the first and last records, so that the
    # output is joined once.  The start set is the ids in window(-1).
    records[0] = f'{{"input_length":{g.input_length},"tokens":[{records[0]}'
    records[-1] += f'],"start":[{",".join(ids[:g.window(-1)[1]])}]}}'
    del ids, preceding  # not held while the join copies the records
    return ",".join(records)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a key given twice raises `ValueError`."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"duplicate key {key!r}")
        data[key] = value
    return data


def graph_from_json(text: str) -> LexGraph:
    """The graph `to_json` wrote, rebuilt by `build_graph` from its tokens.

    The text must hold exactly the JSON value that `to_json` writes for that
    graph, keys in the same order; only spacing and string escapes may
    differ.  Anything else raises one `ValueError` that names the problem:
    tokens not numbered ``0, 1, ...`` in ascending start order, an input
    length or a token span that no scan produces, a missing or repeated
    field, a value of the wrong type, or edges or a start set that differ from
    the rebuilt ones.
    """
    try:
        # int() rejects every float literal.
        data = json.loads(text, parse_float=int, object_pairs_hook=_unique_keys)
        tokens = tuple(
            Token(rec["id"], rec["type"], rec["text"], rec["start"], rec["end"])
            for rec in data["tokens"]
        )
        input_length = data["input_length"]
        if input_length < 0:
            raise ValueError(f"input_length {input_length} is negative")
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
