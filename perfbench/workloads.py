"""The benchmark's two workloads: seeded documents plus their references.

Each workload hands lamb only the spec, grammar and input files written here.
Every output is checked against a reference that lamb's production code did
not produce: the generator's own structure, or `lamb.oracles`.

Documents come in blocks whose size mix is the same for every seed, only the
content varies, so the latency quantiles of two seeds land on the same kind of
document.  The block layouts put p50 and p90 in the middle of a size class,
never on the step between two classes.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

from lamb import oracles, spec_io

NUMBERS_SPEC = """\
token Integer 1 /(-|\\+)?[0-9]+/
token Real 1 /(-|\\+)?[0-9]+\\.[0-9]+/
token Point 1 /\\./
token Slash 1 /\\//
token Ampersand 1 /\\&/
ignore / +/
"""

NUMBERS_LIST_GRAMMAR = """\
start S
S ::= E | E S
E ::= A B
A ::= Ampersand Real Ampersand
B ::= Slash Integer Point Integer Slash
"""

RESERVED_SPEC = """\
token IF 1 /if/
token WHILE 1 /while/
token BOOLEAN 1 /true|false/
token IDENTIFIER 1 /[_a-zA-Z]+/
ignore / +/
"""

KEYWORDS = {"if": "IF", "while": "WHILE", "true": "BOOLEAN", "false": "BOOLEAN"}
LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"


@dataclass(frozen=True)
class Doc:
    """One operation: ``lamb <argv> --input <file holding text>``."""

    argv: tuple[str, ...]                 # file names are relative to the work directory
    text: str
    check: Callable[[str], str | None]    # stdout -> why it is wrong, or None


@dataclass(frozen=True)
class Workload:
    name: str
    files: dict[str, str]                 # spec and grammar files lamb reads
    setup: Callable[[], object]           # the spec/grammar loading timed as setup_s
    block: Callable[[random.Random], list[Doc]]
    # Checks the benchmark's own reference against lamb.oracles on documents
    # small enough for the oracle; returns what disagrees, or None.
    selfcheck: Callable[[random.Random], str | None] = lambda rng: None


# --- numbers documents: groups "&a.b& /c.d/" --------------------------------

def _digits(rng: random.Random) -> str:
    return "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 4)))


def _numbers_text(rng: random.Random, groups: int | None = None, min_chars: int = 0):
    """Text plus per-group layout ``(offset, a, b, gap, c, d)``."""
    parts: list[str] = []
    layout = []
    pos = 0
    while (groups is not None and len(layout) < groups) or (groups is None and pos < min_chars):
        if layout:
            sep = " " * rng.randint(1, 3)
            parts.append(sep)
            pos += len(sep)
        a, b, c, d = _digits(rng), _digits(rng), _digits(rng), _digits(rng)
        gap = " " * rng.randint(1, 2)
        group = f"&{a}.{b}&{gap}/{c}.{d}/"
        layout.append((pos, a, b, gap, c, d))
        parts.append(group)
        pos += len(group)
    return "".join(parts), layout


def _group_tokens(offset, a, b, gap, c, d):
    """The 12 tokens of one group as (type, text, start, end), in group order."""
    amp2 = offset + len(a) + len(b) + 2
    s1 = amp2 + len(gap) + 1
    s2 = s1 + len(c) + len(d) + 2

    def tok(kind, text, start):
        return (kind, text, start, start + len(text) - 1)

    return [
        tok("Ampersand", "&", offset),
        tok("Real", f"{a}.{b}", offset + 1),
        tok("Integer", a, offset + 1),
        tok("Point", ".", offset + 1 + len(a)),
        tok("Integer", b, offset + 2 + len(a)),
        tok("Ampersand", "&", amp2),
        tok("Slash", "/", s1),
        tok("Real", f"{c}.{d}", s1 + 1),
        tok("Integer", c, s1 + 1),
        tok("Point", ".", s1 + 1 + len(c)),
        tok("Integer", d, s1 + 2 + len(c)),
        tok("Slash", "/", s2),
    ]


def _numbers_tree(layout) -> str:
    """The one parse tree of a numbers document under S ::= E | E S, rendered."""
    lines: list[str] = []
    end = _group_tokens(*layout[-1])[-1][3]
    for depth, group in enumerate(layout):
        t = _group_tokens(*group)
        pad = "  " * depth
        lines.append(f"{pad}S [{group[0]}-{end}]")
        lines.append(f"{pad}  E [{group[0]}-{t[11][3]}]")
        lines.append(f"{pad}    A [{t[0][2]}-{t[5][3]}]")
        for kind, text, start, stop in (t[0], t[1], t[5]):
            lines.append(f'{pad}      {kind} "{text}" [{start}-{stop}]')
        lines.append(f"{pad}    B [{t[6][2]}-{t[11][3]}]")
        for kind, text, start, stop in (t[6], t[8], t[9], t[10], t[11]):
            lines.append(f'{pad}      {kind} "{text}" [{start}-{stop}]')
    return "\n".join(lines) + "\n"


# --- reserved-word programs --------------------------------------------------

def _word(rng: random.Random) -> str:
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice(list(KEYWORDS))
    tail = "".join(rng.choice(LETTERS) for _ in range(rng.randint(1, 6)))
    if kind == 1:  # keyword-prefixed identifier: iffy, whilst, truest ...
        return rng.choice(list(KEYWORDS)) + tail
    return rng.choice(LETTERS) + tail


def _reserved_text(rng: random.Random, min_chars: int):
    """Text plus the (offset, word) of every word."""
    parts: list[str] = []
    words = []
    pos = 0
    while pos < min_chars:
        if words:
            sep = " " * rng.randint(1, 2)
            parts.append(sep)
            pos += len(sep)
        w = _word(rng)
        words.append((pos, w))
        parts.append(w)
        pos += len(w)
    return "".join(parts), words


# --- lex-mixed ---------------------------------------------------------------

def _adjacency(tokens):
    """Following lists straight from the definition: ``b`` follows ``a`` when
    ``a.end < b.start`` and no token starts after ``a`` ends and ends before
    ``b`` starts, i.e. ``b.start <= min(end of tokens starting after a.end)``."""
    order = sorted(range(len(tokens)), key=lambda i: tokens[i].start)
    starts = [tokens[i].start for i in order]
    min_end = [math.inf] * (len(order) + 1)
    for k in range(len(order) - 1, -1, -1):
        min_end[k] = min(min_end[k + 1], tokens[order[k]].end)
    following = []
    for t in tokens:
        lo = bisect_right(starts, t.end)
        hi = bisect_right(starts, min_end[lo])
        following.append(sorted(order[lo:hi]))
    return following


def _expected_graph(result) -> dict:
    """lexgraph.to_json's payload, built from a ScanResult without lexgraph."""
    following = _adjacency(result.tokens)
    preceding: list[list[int]] = [[] for _ in result.tokens]
    for a, succ in enumerate(following):
        for b in succ:
            preceding[b].append(a)
    return {
        "input_length": result.input_length,
        "tokens": [
            {"id": t.id, "type": t.type_name, "text": t.text, "start": t.start,
             "end": t.end, "preceding": preceding[t.id], "following": following[t.id]}
            for t in result.tokens
        ],
        "start": [i for i, p in enumerate(preceding) if not p],
    }


def _numbers_invariant(result, layout) -> str | None:
    """Exactly the 12 tokens of each generated group, nothing else."""
    want = sorted(tok for group in layout for tok in _group_tokens(*group))
    got = sorted((t.type_name, t.text, t.start, t.end) for t in result.tokens)
    return None if got == want else "oracle tokens differ from the 12 per generated group"


def _reserved_invariant(result, words) -> str | None:
    spans = {(t.type_name, t.start, t.end) for t in result.tokens}
    for offset, w in words:
        end = offset + len(w) - 1
        if ("IDENTIFIER", offset, end) not in spans:
            return f"no IDENTIFIER for {w!r} at {offset}"
        if w in KEYWORDS and (KEYWORDS[w], offset, end) not in spans:
            return f"no {KEYWORDS[w]} for {w!r} at {offset}"
    return None


def _lex_check(spec, text: str, invariant: Callable[[object], str | None]):
    def check(out: str) -> str | None:
        result = oracles.scan_oracle(spec, text)
        problem = invariant(result)
        if problem:
            return f"generator invariant: {problem}"
        try:
            got = json.loads(out)
        except ValueError:
            return "output is not JSON"
        return None if got == _expected_graph(result) else "graph JSON differs from the oracle scan"
    return check


def _lex_mixed() -> Workload:
    numbers = spec_io.parse_lex_spec(NUMBERS_SPEC)
    reserved = spec_io.parse_lex_spec(RESERVED_SPEC)

    def numbers_doc(rng, min_chars):
        text, layout = _numbers_text(rng, min_chars=min_chars)
        check = _lex_check(numbers, text, lambda r: _numbers_invariant(r, layout))
        return Doc(("scan", "--format", "json", "--spec", "numbers.lamb"), text, check)

    def reserved_doc(rng, min_chars):
        text, words = _reserved_text(rng, min_chars)
        check = _lex_check(reserved, text, lambda r: _reserved_invariant(r, words))
        return Doc(("scan", "--format", "json", "--spec", "reserved.lamb"), text, check)

    def block(rng):
        # Lengths stratified over [1500, 4500) for each family.
        docs = [make(rng, 1500 + 375 * j + rng.randrange(375))
                for j in range(8) for make in (numbers_doc, reserved_doc)]
        rng.shuffle(docs)
        return docs

    def selfcheck(rng):
        # build_graph_oracle is cubic in tokens, so only short documents.
        for spec, text in ((numbers, _numbers_text(rng, groups=10)[0]),
                           (reserved, _reserved_text(rng, 200)[0])):
            result = oracles.scan_oracle(spec, text)
            graph = oracles.build_graph_oracle(result)
            if [list(f) for f in graph.following] != _adjacency(result.tokens):
                return "adjacency reference disagrees with build_graph_oracle"
        return None

    def setup():
        return spec_io.parse_lex_spec(NUMBERS_SPEC), spec_io.parse_lex_spec(RESERVED_SPEC)

    return Workload("lex-mixed", {"numbers.lamb": NUMBERS_SPEC, "reserved.lamb": RESERVED_SPEC},
                    setup, block, selfcheck)


# --- parse-numbers -----------------------------------------------------------

def _parse_numbers() -> Workload:
    argv = ("parse", "--format", "text", "--spec", "numbers.lamb", "--grammar", "list.grammar")

    # 40 documents: 1-8 groups take the lowest 40%, 9 groups 40-60% (p50 at
    # its middle), 10-11 groups 60-85%, 12 groups 85-95% (p90 at its middle),
    # then one of 14 and one of 16 groups (192 tokens).
    sizes = [g for g in range(1, 9) for _ in (0, 1)] + [9] * 8 + [10, 11] * 5 + [12] * 4 + [14, 16]

    def doc(rng, groups):
        text, layout = _numbers_text(rng, groups=groups)
        expected = _numbers_tree(layout)
        return Doc(argv, text, lambda out: None if out == expected else "tree differs")

    def block(rng):
        docs = [doc(rng, g) for g in sizes]
        rng.shuffle(docs)
        return docs

    def setup():
        return spec_io.parse_grammar(NUMBERS_LIST_GRAMMAR, spec_io.parse_lex_spec(NUMBERS_SPEC))

    return Workload("parse-numbers", {"numbers.lamb": NUMBERS_SPEC, "list.grammar": NUMBERS_LIST_GRAMMAR},
                    setup, block)


WORKLOADS: dict[str, Callable[[], Workload]] = {
    "lex-mixed": _lex_mixed,
    "parse-numbers": _parse_numbers,
}
