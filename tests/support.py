"""Shared test material: the ambiguous-numbers corpus, deterministic random
generators, and brute-force reference recognizers kept independent of the
code paths they check."""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass

from lamb import Grammar, GrammarRule, LexSpec, TokenDef, enumerate_sequences, validate
from lamb.scanner import ScanResult, Token

# --- canonical corpus -------------------------------------------------------

NUMBERS_INPUT = "&5.2& /25.20/"

NUMBERS_GRAMMAR = """\
E ::= A B
A ::= Ampersand Real Ampersand
B ::= Slash Integer Point Integer Slash
"""

_NUMBERS_PATTERNS = (
    ("Integer", r"(-|\+)?[0-9]+"),
    ("Real", r"(-|\+)?[0-9]+\.[0-9]+"),
    ("Point", r"\."),
    ("Slash", r"\/"),
    ("Ampersand", r"\&"),
)


def numbers_spec_text(favored: str | None = None) -> str:
    """The five-token numbers spec.  With ``favored`` set, that token gets
    priority 1 and every other token priority 2 (the collapsed variants)."""
    lines = []
    for name, src in _NUMBERS_PATTERNS:
        priority = 1 if favored is None or name == favored else 2
        lines.append(f"token {name} {priority} /{src}/")
    lines.append("ignore / +/")
    return "\n".join(lines) + "\n"


RESERVED_INPUT = "if while foo true"

RESERVED_SPEC_UNIQUE = """\
token IF 1 /if/
token WHILE 2 /while/
token BOOLEAN 3 /true|false/
token IDENTIFIER 4 /[_a-zA-Z]+/
ignore / +/
"""

RESERVED_SPEC_SHARED = """\
token IF 1 /if/
token WHILE 1 /while/
token BOOLEAN 1 /true|false/
token IDENTIFIER 1 /[_a-zA-Z]+/
ignore / +/
"""

# --- brute-force pattern oracle ---------------------------------------------

def translate_to_re(source: str) -> str:
    """Rewrite a subset pattern into Python re syntax.

    The subset is already valid `re` except that ^ $ { and } are plain
    literals here, so those get escaped; everything else (including the
    escape forms and class syntax) carries over with identical meaning.
    """
    out = []
    i = 0
    in_class = False
    while i < len(source):
        ch = source[i]
        if ch == "\\":
            out.append(source[i:i + 2])
            i += 2
            continue
        if in_class:
            if ch == "]":
                in_class = False
            out.append(ch)
        elif ch == "[":
            in_class = True
            out.append(ch)
        elif ch in "^${}":
            out.append("\\" + ch)
        else:
            out.append(ch)
        i += 1
    return "".join(out)


def longest_by_re(source: str, text: str, pos: int) -> int | None:
    """Longest anchored match by trying every candidate length with re.fullmatch."""
    prog = re.compile(translate_to_re(source))
    best = None
    for length in range(1, len(text) - pos + 1):
        if prog.fullmatch(text, pos, pos + length):
            best = length
    return best


def walk_longest(automaton, text: str, pos: int, live: int) -> list[tuple[int, int]]:
    """``(k, length)`` of the longest match at ``pos`` of each matcher ``k`` in
    ``live``, ascending in ``k``: steps ``automaton`` from its start state one
    character class at a time, through `Automaton.step` alone, until no
    matcher in ``live`` is alive, and keeps each such matcher's last
    accepting length.  The text is translated to classes in chunks that
    double from 16 characters, so a walk translates at most twice what it
    reads, or 16 characters."""
    state = automaton.start
    lengths = {}
    length, chunk = 0, 16
    while pos + length < len(text):
        for c in automaton.classes(text[pos + length:pos + length + chunk]):
            state = automaton.step(state, c)
            if not state.alive & live:
                return sorted(lengths.items())
            length += 1
            for k in range(live.bit_length()):
                if (state.accepts & live) >> k & 1:
                    lengths[k] = length
        chunk *= 2
    return sorted(lengths.items())


# --- random generators -------------------------------------------------------

INPUT_ALPHABET = "ab01x&/+-. \t"

_LITERAL_POOL = "ab01x&/. +-"
_CLASS_POOL = ("[0-9]", "[a-x]", "[^ab]", "[01]", "[\\t a]", "[a-c0-3]", "[^0-9 ]", "[ab\\-]")
_IGNORE_POOL = (" +", "( |\\t)+", "\\t+", "[ \\t]+")


def _render_literal(ch: str) -> str:
    if ch in ".\\/()[]|*+?":
        return "\\" + ch
    return ch


def _random_atom(rng) -> str:
    roll = rng.random()
    if roll < 0.55:
        return _render_literal(rng.choice(_LITERAL_POOL))
    if roll < 0.8:
        return rng.choice(_CLASS_POOL)
    if roll < 0.9:
        return "."
    return rng.choice(("\\t", "\\&", "\\+", "\\-"))


def random_pattern(rng, depth: int = 0) -> str:
    """A construct-covering pattern: literals, escapes, classes, groups,
    alternation, and the three repetitions, to bounded depth."""
    roll = rng.random()
    if depth >= 2 or roll < 0.4:
        return _random_atom(rng)
    if roll < 0.65:
        return "".join(random_pattern(rng, depth + 1) for _ in range(rng.randint(2, 3)))
    if roll < 0.85:
        branches = (random_pattern(rng, depth + 1) for _ in range(2))
        return "(" + "|".join(branches) + ")"
    return "(" + random_pattern(rng, depth + 1) + ")" + rng.choice("*+?")


def random_spec_text(rng) -> str:
    count = rng.randint(1, 6)
    lines = [f"token T{j} {rng.randint(1, 3)} /{random_pattern(rng)}/" for j in range(count)]
    if rng.random() < 0.6:
        lines.insert(rng.randint(0, len(lines)), f"ignore /{rng.choice(_IGNORE_POOL)}/")
    if rng.random() < 0.15:
        lines.insert(rng.randint(0, len(lines)), f"ignore /{rng.choice(_IGNORE_POOL)}/")
    return "\n".join(lines) + "\n"


def random_input(rng, max_length: int = 200) -> str:
    length = rng.randint(0, max_length)
    return "".join(rng.choice(INPUT_ALPHABET) for _ in range(length))


def random_interval_result(rng, max_tokens: int = 40, field: int = 50) -> ScanResult:
    """A synthetic token list with duplicates, nestings, and overlaps."""
    wanted = rng.randint(0, max_tokens)
    seen = set()
    raw = []
    for _ in range(wanted):
        start = rng.randint(0, field)
        length = rng.randint(1, 10)
        type_name = rng.choice(("T0", "T1", "T2"))
        key = (type_name, start, length)
        if key in seen:
            continue
        seen.add(key)
        raw.append((start, type_name, length))
    raw.sort(key=lambda r: r[0])
    tokens = tuple(
        Token(i, ty, "x" * ln, s, s + ln - 1) for i, (s, ty, ln) in enumerate(raw)
    )
    input_length = max((t.end + 1 for t in tokens), default=0)
    return ScanResult(tokens, input_length, ())


_PARSE_TERMINALS = ("X", "Y", "Z")
_PARSE_DUMMY_SPEC = LexSpec(
    tuple(TokenDef(n, 1, n.lower(), i) for i, n in enumerate(_PARSE_TERMINALS)), ()
)


def _random_rhs(rng, lhs_index: int, nonterminal_count: int) -> tuple[str, ...]:
    length = rng.randint(1, 3)
    symbols = []
    for _ in range(length):
        if rng.random() < 0.55:
            symbols.append(rng.choice(_PARSE_TERMINALS))
        else:
            symbols.append(f"N{rng.randrange(nonterminal_count)}")
    if length == 1 and symbols[0].startswith("N") and int(symbols[0][1:]) <= lhs_index:
        symbols[0] = rng.choice(_PARSE_TERMINALS)  # keep unit productions acyclic
    return tuple(symbols)


def random_parse_case(rng):
    """(ScanResult, Grammar) pair: <= 12 tokens, <= 5 rules, always valid."""
    wanted = rng.randint(1, 12)
    seen = set()
    raw = []
    for _ in range(wanted):
        start = rng.randint(0, 12)
        length = rng.randint(1, 3)
        type_name = rng.choice(_PARSE_TERMINALS)
        key = (type_name, start, length)
        if key in seen:
            continue
        seen.add(key)
        raw.append((start, type_name, length))
    raw.sort(key=lambda r: r[0])
    tokens = tuple(
        Token(i, ty, ty.lower() * ln, s, s + ln - 1) for i, (s, ty, ln) in enumerate(raw)
    )
    result = ScanResult(tokens, max((t.end + 1 for t in tokens), default=0), ())

    nonterminal_count = rng.randint(1, 3)
    rules = [
        GrammarRule(f"N{i}", _random_rhs(rng, i, nonterminal_count))
        for i in range(nonterminal_count)
    ]
    while len(rules) < rng.randint(nonterminal_count, 5):
        i = rng.randrange(nonterminal_count)
        rules.append(GrammarRule(f"N{i}", _random_rhs(rng, i, nonterminal_count)))
    grammar = Grammar(tuple(rules), "N0")
    assert not validate(_PARSE_DUMMY_SPEC, grammar)
    return result, grammar


# Patterns whose labels reach the ends of the alphabet, ``.`` and astral ranges.
EDGE_SOURCES = (".", r"[^\n]+", "[\x00-\t]", "[\U0010fff0-\U0010ffff]+", "\U0001f600|[\U0001f600-\U0001f602]+",
                "[^a-z]", "\x0b.?", "[\ud7ff-\ue000]")


def boundary_characters(patterns) -> list[str]:
    """``lo - 1``, ``lo``, ``hi`` and ``hi + 1`` of every label, plus newline,
    vertical tab, the last code point and astral characters."""
    chars = {"\n", "\x0b", "\U0010ffff", "\U00010000", "\U0001f600"}
    for p in patterns:
        for out in p._edges:
            for (ranges, _), _ in out:
                for lo, hi in ranges:
                    for c in (ord(lo) - 1, ord(lo), ord(hi), ord(hi) + 1):
                        if 0 <= c <= 0x10FFFF:
                            chars.add(chr(c))
    return sorted(chars)


# --- brute-force parse oracle -------------------------------------------------

def brute_accepted_trees(graph, grammar) -> set:
    """Every whole-input derivation, by trying each token sequence and then
    every split of it, exhaustively.  Trees are canonical nested tuples with
    token ids at the leaves."""
    paths, truncated = enumerate_sequences(graph, 200000) if graph.tokens else ([], False)
    assert not truncated
    rules_by_lhs: dict[str, list[GrammarRule]] = {}
    for rule in grammar.rules:
        rules_by_lhs.setdefault(rule.lhs, []).append(rule)

    out: set = set()
    for path in paths:
        seq = [graph.tokens[i] for i in path]
        memo: dict = {}

        def derive(symbol: str, i: int, j: int):
            key = (symbol, i, j)
            if key in memo:
                return memo[key]
            found = set()
            if j - i == 1 and seq[i].type_name == symbol:
                found.add(seq[i].id)
            for rule in rules_by_lhs.get(symbol, ()):
                width = len(rule.rhs)
                if width > j - i:
                    continue
                for cuts in itertools.combinations(range(i + 1, j), width - 1):
                    bounds = (i, *cuts, j)
                    child_sets = [
                        derive(rule.rhs[q], bounds[q], bounds[q + 1]) for q in range(width)
                    ]
                    for combo in itertools.product(*child_sets):
                        found.add((rule.lhs, combo))
            memo[key] = found
            return found

        out |= derive(grammar.start_symbol, 0, len(seq))
    return out


def forest_accepted_trees(forest) -> set:
    """Every tree of a packed forest's accepted nodes, in the canonical tuple
    form of brute_accepted_trees."""
    memo: dict = {}

    def trees(iid: int) -> set:
        if iid not in memo:
            inst = forest.instances[iid]
            memo[iid] = {inst.id} if not inst.alternatives else {
                (inst.type_name, combo)
                for children in inst.alternatives
                for combo in itertools.product(*(trees(c) for c in children))
            }
        return memo[iid]

    return set().union(*(trees(root) for root in forest.accepted))


# --- reference fixpoint parser ------------------------------------------------
# A literal copy of the original fixpoint parser: adjacency by scanning every
# token, candidates by walking the whole instance store, one instance per
# derivation.  Packed by `pack_literal`, it must give exactly the nodes and
# alternatives of the parser under test.

def literal_follows(a, b, g) -> bool:
    if b.start <= a.end:
        return False
    return not any(c.start > a.end and c.end < b.start for c in g.tokens)


def _literal_match_rule_from(rule, first, store, g):
    if first.type_name != rule.rhs[0]:
        return []
    out = []

    def extend(children, k):
        if k == len(rule.rhs):
            out.append(children)
            return
        prev = store[children[-1]]
        for inst in store:
            if inst.type_name == rule.rhs[k] and literal_follows(prev, inst, g):
                extend(children + (inst.id,), k + 1)

    extend((first.id,), 1)
    return out


def _literal_spans_whole_input(inst, g) -> bool:
    return not any(t.end < inst.start or t.start > inst.end for t in g.tokens)


@dataclass(frozen=True)
class LiteralInstance:
    id: int
    type_name: str
    start: int
    end: int
    children: tuple[int, ...]  # empty for terminals
    rule: GrammarRule | None   # None for terminals
    text: str | None = None    # lexeme, terminals only


@dataclass(frozen=True)
class LiteralForest:
    instances: tuple[LiteralInstance, ...]  # instances[i].id == i
    accepted: tuple[int, ...]


def literal_parse(g, grammar) -> LiteralForest:
    instances = [
        LiteralInstance(t.id, t.type_name, t.start, t.end, (), None, t.text)
        for t in g.tokens
    ]
    seen = {}
    changed = True
    while changed:
        changed = False
        for rule in grammar.rules:
            idx = 0
            while idx < len(instances):
                first = instances[idx]
                idx += 1
                if first.type_name != rule.rhs[0]:
                    continue
                for children in _literal_match_rule_from(rule, first, instances, g):
                    key = (rule.lhs, children)
                    if key in seen:
                        continue
                    new_id = len(instances)
                    seen[key] = new_id
                    last = instances[children[-1]]
                    instances.append(
                        LiteralInstance(new_id, rule.lhs, first.start, last.end, children, rule)
                    )
                    changed = True
    accepted = tuple(
        inst.id
        for inst in instances
        if inst.type_name == grammar.start_symbol and _literal_spans_whole_input(inst, g)
    )
    return LiteralForest(tuple(instances), accepted)


def _literal_key(inst):
    return inst.id if not inst.children else (inst.type_name, inst.start, inst.end)


def pack_literal(forest) -> tuple[dict, set]:
    """`literal_parse`'s forest packed by hand: ``(nodes, accepted)``.

    ``nodes`` maps a token id to its ``(type, start, end, text)`` and a
    ``(symbol, start, end)`` triple to the set of its alternatives, each a
    ``(rule, child keys)`` pair; ``accepted`` is the set of accepted keys.
    Instances that share a triple are merged, which is exact because the
    parser's adjacency depends on offsets alone."""
    instances = forest.instances
    nodes: dict = {}
    for inst in instances:
        if not inst.children:
            nodes[inst.id] = (inst.type_name, inst.start, inst.end, inst.text)
            continue
        alternative = (inst.rule, tuple(_literal_key(instances[c]) for c in inst.children))
        nodes.setdefault(_literal_key(inst), set()).add(alternative)
    return nodes, {_literal_key(instances[i]) for i in forest.accepted}


def packed_view(forest) -> tuple[dict, set]:
    """`parse`'s packed forest in the form `pack_literal` gives, checking on
    the way that no two nodes share a key and no node lists an alternative
    twice.  Each alternative's rule is derived from the node's and its
    children's types."""
    instances = forest.instances

    def key(inst):
        return inst.id if not inst.alternatives else (inst.type_name, inst.start, inst.end)

    nodes: dict = {}
    for inst in instances:
        assert key(inst) not in nodes, inst
        if not inst.alternatives:
            nodes[inst.id] = (inst.type_name, inst.start, inst.end, inst.text)
            continue
        alternatives = [
            (GrammarRule(inst.type_name, tuple(instances[c].type_name for c in children)),
             tuple(key(instances[c]) for c in children))
            for children in inst.alternatives
        ]
        assert len(set(alternatives)) == len(alternatives), inst
        nodes[key(inst)] = set(alternatives)
    return nodes, {key(instances[i]) for i in forest.accepted}


def render_literal_trees(forest) -> str:
    """`literal_parse`'s accepted instances as indented trees, in id order,
    rendered recursively: the text `render_trees` must give when there is at
    most one tree."""

    def lines(iid, pad):
        inst = forest.instances[iid]
        if not inst.children:
            return [f"{pad}{inst.type_name} {json.dumps(inst.text, ensure_ascii=False)} [{inst.start}-{inst.end}]"]
        out = [f"{pad}{inst.type_name} [{inst.start}-{inst.end}]"]
        for child in inst.children:
            out += lines(child, pad + "  ")
        return out

    blocks = ["\n".join(lines(root, "")) for root in forest.accepted]
    return "\n\n".join(blocks) + ("\n" if blocks else "")


# --- numbers-list documents -----------------------------------------------------

NUMBERS_LIST_GRAMMAR = "start S\nS ::= E | E S\n" + NUMBERS_GRAMMAR


def numbers_list_input(rng, groups: int) -> str:
    """``groups`` copies of the numbers example shape with random digits."""

    def digits():
        return "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 4)))

    return " ".join(f"&{digits()}.{digits()}& /{digits()}.{digits()}/" for _ in range(groups))
