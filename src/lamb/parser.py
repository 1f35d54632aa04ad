"""Chart parsing over a lexical analysis graph, into a packed forest.

A node is a symbol over a span of offsets, ``(symbol, start, end)``: one per
token, and one per nonterminal and span that some rule derives.  A node holds
every way the grammar derives it, each an *alternative*: the ids of its child
nodes.  The grammar lists each rule once, so the symbols of node and children
name it.  A sub-derivation shared by many readings is built once, as in the
shared forests of Billot & Lang (1989).  Packing is exact because adjacency
depends on offsets alone: two symbols may be adjacent in a rule body when the
second starts after the first ends and no *terminal* token lies strictly
between them; on terminals this is exactly the graph's following-relation.  A
parse is accepted when a start-symbol node spans the whole tokenized input: no
terminal ends before it starts or starts after it ends.  Both tests are O(1)
lookups in the graph's token starts and suffix minima of token ends (see
`lexgraph.LexGraph`), and the parser reads nothing of the graph but its
tokens and those two lists: it never computes the graph's edges.

The chart grows bottom-up from an agenda of nodes, left to right.  Rules
come compiled into chains of dotted items, ``(lhs, wanted symbol, next item)``
down to the complete ``(lhs, None, None)``; the first `parse` with a grammar
builds them and the grammar keeps them as ``Grammar.item_chains``, keyed by
each rule's first symbol.  A partial match is an item with the children
matched so far.  It waits under ``(wanted symbol, s)`` for each token start
``s`` that may follow its last child.  When a node leaves the agenda, it
starts the chains of the rules whose body begins with its symbol, and
advances each item waiting for it, by unpacking the item's tuple; a node that
nothing waits for costs one lookup there.  The list of items waiting for a
node cannot grow while the node advances them: a node ends no earlier than it
starts, and every start that may follow it lies past its end.  The starts
that may follow an end are asked of the graph once per distinct end.  A
complete item becomes an alternative of the node for its rule's left-hand
side and span, which joins the agenda if it is new; only these nonterminal
nodes keep a list of alternatives.

The agenda is a stack, and tokens leave it in ascending start order; of the
tokens with one start, the highest id leaves first: the agenda starts as the
token ids sorted by descending start, in a stable sort that keeps equal
starts in id order.  The sort is cheap: every graph numbers its tokens in
start order (see `lexgraph.LexGraph`).  Every node that ends before ``s``
leaves the agenda before the first token starting at ``s``.  An item waiting
at ``s`` was therefore made before any node starting at ``s``, and meets each
of them once, when the node leaves the agenda: every alternative is found
once, and nothing needs recursion.  Tokens keep their ids; the other nodes
are numbered as the chart creates them, and their alternatives are listed in
the order the chart finds them.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from decimal import Decimal
from functools import partial
from itertools import chain, repeat
from json.encoder import encode_basestring as _json_string
from math import prod
from typing import NamedTuple

from .lexgraph import LexGraph, _dot_escape, _dot_token_label
from .spec_io import Grammar, GrammarRule

__all__ = [
    "ParseForest",
    "SymbolInstance",
    "extended_follows",
    "forest_to_dot",
    "forest_to_json",
    "match_rule_from",
    "parse",
    "render_trees",
]


class SymbolInstance(NamedTuple):
    """One node of the packed forest; an alternative is a tuple of child ids.

    A named tuple: immutable and hashable, and equal to the plain tuple of
    its fields.
    """

    id: int
    type_name: str
    start: int
    end: int
    alternatives: tuple[tuple[int, ...], ...]  # empty for terminals
    text: str | None = None  # lexeme, terminals only


@dataclass(frozen=True)
class ParseForest:
    instances: tuple[SymbolInstance, ...]  # instances[i].id == i
    accepted: tuple[int, ...]


def extended_follows(a: SymbolInstance, b: SymbolInstance, g: LexGraph) -> bool:
    """True when ``b`` may directly continue ``a``: it starts after ``a`` ends
    and no terminal token sits strictly between the two.  `parse` inlines this
    test; the function is kept for perfbench, which wraps it by name."""
    return a.end < b.start <= g.suffix_min_end[bisect_right(g.starts, a.end)]


def match_rule_from(
    rule: GrammarRule, first: SymbolInstance, store: Sequence[SymbolInstance], g: LexGraph
) -> list[tuple[int, ...]]:
    """Every way to satisfy ``rule`` starting at ``first`` with instances of
    ``store``, as child-id tuples, depth first.  Each next child is an instance
    of the next body symbol that starts at a token start in the follows window
    of the previous child; candidates are tried in ``store`` order.  `parse`
    does not call it; it is kept for perfbench, which wraps it by name."""
    if first.type_name != rule.rhs[0]:
        return []
    starts, window = g.starts, g.window
    out: list[tuple[int, ...]] = []
    stack = [((first.id,), first.end)]
    while stack:
        children, end = stack.pop()
        if len(children) == len(rule.rhs):
            out.append(children)
            continue
        lo, hi = window(end)
        allowed, symbol = set(starts[lo:hi]), rule.rhs[len(children)]
        stack.extend(
            (children + (c.id,), c.end)
            for c in reversed(store)
            if c.type_name == symbol and c.start in allowed
        )
    return out


def parse(g: LexGraph, grammar: Grammar) -> ParseForest:
    """Build the packed forest of ``grammar`` over ``g``; accepted are the
    whole-input start-symbol nodes, in id order.

    Requires a validated grammar: with no empty productions and no cycles of
    single-symbol rules, the forest is acyclic and every node has finitely
    many trees.  A rule listed twice counts once.
    """
    starts, window = g.starts, g.window
    ids, names, texts, _, ends = zip(*g.tokens) if g.tokens else ((),) * 5
    spans = list(zip(names, starts, ends))  # by node id
    chains = grammar.item_chains
    nodes: dict[tuple[str, int, int], list[tuple[int, ...]]] = {}  # nonterminal span -> alternatives
    waiting: dict[tuple[str, int], list[tuple[tuple, tuple[int, ...]]]] = {}
    next_starts: dict[int, dict[int, None]] = {}  # end -> distinct starts in window(end)
    agenda = sorted(range(len(spans)), key=starts.__getitem__, reverse=True)
    while agenda:
        nid = agenda.pop()
        symbol, start, end = spans[nid]
        firsts = chains.get(symbol, ())
        waits = waiting.get((symbol, start), ())
        if not firsts and not waits:
            continue
        successors = next_starts.get(end)
        if successors is None:
            lo, hi = window(end)
            successors = next_starts[end] = dict.fromkeys(starts[lo:hi])
        # Both lists pair an item with the children matched before this node;
        # neither grows in this loop.
        for entries in (firsts, waits):
            for (lhs, wanted, item), done in entries:
                children = done + (nid,)
                if wanted is not None:
                    entry = (item, children)
                    for s in successors:
                        waiting.setdefault((wanted, s), []).append(entry)
                    continue
                span = (lhs, spans[children[0]][1], end)
                alternatives = nodes.get(span)
                if alternatives is None:
                    nodes[span] = [children]
                    agenda.append(len(spans))
                    spans.append(span)
                else:
                    alternatives.append(children)
    # tuple.__new__ builds each node from the tuple of its fields, without
    # the named tuple's per-field __new__.
    node = partial(tuple.__new__, SymbolInstance)
    instances = tuple(map(node, chain(
        zip(ids, names, starts, ends, repeat(()), texts),
        ((i, *span, tuple(alts), None) for i, (span, alts) in enumerate(nodes.items(), len(ids))),
    )))
    whole, root = g.spans_all, grammar.start_symbol
    accepted = tuple(i for i, (symbol, start, end) in enumerate(spans) if symbol == root and whole(start, end))
    return ParseForest(instances, accepted)


def render_trees(f: ParseForest) -> str:
    """Every accepted tree as an indented outline, a blank line between two
    trees; '' when there is none.

    Roots come in id order.  A tree picks one alternative at each nonterminal
    it prints; the trees of one root come in lexicographic order of their
    picks, taken in print order, so the first nonterminal varies slowest.  A
    token's text is written as a JSON string, so one node is one line.
    """
    nodes = f.instances
    blocks = []
    for root in f.accepted:
        lines: list[str] = []
        # ``todo`` links the (node id, depth, alternative) triples still to
        # print.  A pick keeps the tail that followed it and the index of its
        # line, so the next tree reprints only what comes after the pick it
        # changes.
        picks: list[tuple[int, int, int, tuple | None, int]] = []
        todo: tuple | None = ((root, 0, 0), None)
        while True:
            while todo is not None:
                (nid, depth, k), todo = todo
                _, type_name, start, end, alternatives, text = nodes[nid]
                pad = "  " * depth
                if not alternatives:
                    lines.append(f"{pad}{type_name} {_json_string(text)} [{start}-{end}]")
                    continue
                picks.append((nid, depth, k, todo, len(lines)))
                lines.append(f"{pad}{type_name} [{start}-{end}]")
                for child in reversed(alternatives[k]):
                    todo = ((child, depth + 1, 0), todo)
            blocks.append("\n".join(lines))
            while picks and picks[-1][2] + 1 == len(nodes[picks[-1][0]].alternatives):
                picks.pop()
            if not picks:
                break
            nid, depth, k, todo, line = picks.pop()
            del lines[line:]
            todo = ((nid, depth, k + 1), todo)
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def _reachable(f: ParseForest) -> dict[int, None]:
    """The node ids reachable from ``f.accepted``, each after its children,
    as the keys of a dict; one walk of the acyclic forest, without recursion."""
    order: dict[int, None] = {}
    stack = list(f.accepted)
    while stack:
        nid = stack.pop()
        if nid in order:
            continue
        missing = [c for children in f.instances[nid].alternatives for c in children if c not in order]
        if missing:
            stack += [nid, *missing]
        else:
            order[nid] = None
    return order


def _tree_count(f: ParseForest) -> int:
    """The number of accepted trees, by a DP over `_reachable`'s order."""
    counts: dict[int, int] = {}
    for nid in _reachable(f):
        alternatives = f.instances[nid].alternatives
        counts[nid] = sum(prod(map(counts.get, kids)) for kids in alternatives) if alternatives else 1
    return sum(counts[root] for root in f.accepted)


def forest_to_json(f: ParseForest) -> str:
    """The forest as JSON: every node with its alternatives, the accepted node
    ids and the number of accepted trees."""
    types = [inst.type_name for inst in f.instances]
    payload = {
        "version": 2,
        "instances": [
            {
                "id": inst.id,
                "type": inst.type_name,
                "text": inst.text,
                "start": inst.start,
                "end": inst.end,
                "alternatives": [
                    {"rule": f"{inst.type_name} ::= {' '.join(types[c] for c in children)}",
                     "children": list(children)}
                    for children in inst.alternatives
                ],
            }
            for inst in f.instances
        ],
        "accepted": list(f.accepted),
    }
    # str() of an int longer than sys.get_int_max_str_digits() raises; a
    # Decimal writes every digit.
    trees = Decimal(_tree_count(f))
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":"))[:-1] + f',"trees":{trees}}}'


def forest_to_dot(f: ParseForest) -> str:
    """The nodes reachable from accepted nodes as a DOT digraph, parent to
    child.  A node with more than one alternative points to one small vertex
    per alternative, which points to that alternative's children."""
    reachable = sorted(_reachable(f))
    lines = ["digraph forest {"]
    for iid in reachable:
        inst = f.instances[iid]
        if inst.alternatives:
            label = _dot_escape(f"{inst.type_name}@{inst.start}-{inst.end}")
        else:
            label = _dot_token_label(inst)
        lines.append(f'  i{iid} [label="{label}"];')
    for iid in reachable:
        alternatives = f.instances[iid].alternatives
        if len(alternatives) == 1:
            lines += (f"  i{iid} -> i{c};" for c in alternatives[0])
            continue
        for k, children in enumerate(alternatives):
            lines += (f"  i{iid}a{k} [shape=point];", f"  i{iid} -> i{iid}a{k};")
            lines += (f"  i{iid}a{k} -> i{c};" for c in children)
    lines.append("}")
    return "\n".join(lines) + "\n"
