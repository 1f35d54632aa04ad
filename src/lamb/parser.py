"""Fixpoint parsing over a lexical analysis graph.

Grammar rules are applied exhaustively to the growing pool of symbol
instances (terminals first, then derived nonterminals) until a full pass adds
nothing new.  Two instances may be adjacent in a rule body when the second
starts after the first ends and no *terminal* token lies strictly between
them; on terminals this is exactly the graph's following-relation.  A parse
is accepted when a start-symbol instance spans the whole tokenized input: no
terminal ends before it starts or starts after it ends.

Both tests are O(1) lookups in the graph's adjacency index (see
`lexgraph.AdjacencyIndex`).  Candidates for the next position of a rule body
come from an index keyed by symbol and start offset, limited to the offsets
the index says may follow; a rule's first position walks only the instances
of its first symbol.

The passes are semi-naive (Bancilhon & Ramakrishnan, 1986): each rule keeps
a *mark*, the pool size when its previous visit began, and a visit only
looks for matches with at least one child whose id is at or above the mark.
A match whose children all lie below the mark was already enumerated by
that previous visit, because all of them existed when it began and every
match search sees the whole pool; so it is already known, and skipping it
changes nothing.  The visiting order is that of exhaustive passes: pass,
rule, first instance by ascending id, then candidates by ascending id, so
instance ids and every rendering are the same as with full passes.

Every distinct derivation is kept as its own instance, so ambiguous inputs
yield one accepted instance per reading.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass

from .lexgraph import LexGraph, _dot_escape
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


@dataclass(frozen=True)
class SymbolInstance:
    id: int
    type_name: str
    start: int
    end: int
    children: tuple[int, ...]        # empty for terminals
    rule: GrammarRule | None         # None for terminals
    text: str | None = None          # lexeme, terminals only


@dataclass(frozen=True)
class ParseForest:
    instances: tuple[SymbolInstance, ...]  # instances[i].id == i
    accepted: tuple[int, ...]


def extended_follows(a: SymbolInstance, b: SymbolInstance, g: LexGraph) -> bool:
    """True when ``b`` may directly continue ``a``: it starts after ``a`` ends
    and no terminal token sits strictly between the two."""
    return g.index.follows(a.end, b.start)


class _Pool:
    """The instance store plus the two lookups the fixpoint needs.

    ``by_symbol`` lists a symbol's instances by ascending id, for the first
    position of a rule body; ``by_start`` maps ``(symbol, start offset)`` to
    ``(id, end)`` pairs by ascending id, for every later position.
    """

    def __init__(self, g: LexGraph):
        self.index = g.index
        self.instances: list[SymbolInstance] = []
        self.by_symbol: dict[str, list[int]] = {}
        self.by_start: dict[tuple[str, int], list[tuple[int, int]]] = {}

    def add(self, inst: SymbolInstance) -> None:
        self.instances.append(inst)
        self.by_symbol.setdefault(inst.type_name, []).append(inst.id)
        self.by_start.setdefault((inst.type_name, inst.start), []).append((inst.id, inst.end))

    def fresh_from(self, rule: GrammarRule, mark: int) -> list[bool]:
        """``flags[k]`` tells whether some symbol of ``rule.rhs[k:]`` has an
        instance with id ``>= mark``; ``flags[len(rhs)]`` is False."""
        flags = [False] * (len(rule.rhs) + 1)
        for k in range(len(rule.rhs) - 1, -1, -1):
            ids = self.by_symbol.get(rule.rhs[k])
            flags[k] = flags[k + 1] or (ids is not None and ids[-1] >= mark)
        return flags

    def matches(
        self, rule: GrammarRule, first: SymbolInstance, mark: int = 0, fresh: Sequence[bool] = ()
    ) -> list[tuple[int, ...]]:
        """Every way to satisfy ``rule`` starting at ``first`` with at least one
        child id ``>= mark``, as child-id tuples; ``fresh`` is
        ``fresh_from(rule, mark)``.  With ``mark`` 0 every instance counts.

        Depth first, with each position's candidates in ascending id order:
        the ``by_start`` entries for every token start in the follows window
        of the previous child.  Every instance starts where some token starts,
        so these are exactly the instances `extended_follows` accepts.  While
        the children so far are all below ``mark``, a position after which no
        symbol has an instance at or above it takes only such instances.
        """
        rhs = rule.rhs
        if first.type_name != rhs[0]:
            return []
        starts, window, by_start = self.index.starts, self.index.window, self.by_start
        out: list[tuple[int, ...]] = []
        stack = [((first.id,), first.end, first.id >= mark)]
        while stack:
            children, end, has_fresh = stack.pop()
            k = len(children)
            if k == len(rhs):
                out.append(children)
                continue
            lo, hi = window(end)
            candidates = sorted(c for s in set(starts[lo:hi]) for c in by_start.get((rhs[k], s), ()))
            if not has_fresh and not fresh[k + 1]:
                candidates = candidates[bisect_left(candidates, (mark,)):]
            stack.extend(
                (children + (iid,), iend, has_fresh or iid >= mark) for iid, iend in reversed(candidates)
            )
        return out


def match_rule_from(
    rule: GrammarRule,
    first: SymbolInstance,
    store: list[SymbolInstance] | tuple[SymbolInstance, ...],
    g: LexGraph,
) -> list[tuple[int, ...]]:
    """Every way to satisfy ``rule`` starting at ``first``, as child-id tuples.

    Tuples come out in depth-first order with candidates tried by ascending
    instance id, so the result is deterministic for a given store.
    """
    pool = _Pool(g)
    for inst in store:
        pool.add(inst)
    return pool.matches(rule, first)


def parse(g: LexGraph, grammar: Grammar) -> ParseForest:
    """Apply the grammar to a fixpoint and collect whole-input start instances.

    Requires a validated grammar (no empty productions, no single-symbol rule
    cycles); under those conditions the instance pool is finite and the loop
    terminates.  Distinct derivations stay distinct: an instance is deduped
    only on (rule lhs, exact child ids).

    Semi-naive: a rule's visit tries only matches that use an instance made
    since its previous visit began (``marks``).  When no later body symbol
    has such an instance, the old first instances are skipped outright; by
    induction none of them can yield a new match, so nothing they would have
    added is missed.  ``seen`` stays, because left recursion can rediscover
    within one visit an instance its previous visit made.  Only the rule's
    own lhs gains instances during a visit, so its freshness flags are
    computed again once, after the first instance the visit adds.
    """
    pool = _Pool(g)
    for t in g.tokens:
        pool.add(SymbolInstance(t.id, t.type_name, t.start, t.end, (), None, t.text))
    instances = pool.instances
    seen: dict[tuple[str, tuple[int, ...]], int] = {}
    marks = [0] * len(grammar.rules)
    changed = True
    while changed:
        changed = False
        for r, rule in enumerate(grammar.rules):
            mark, marks[r] = marks[r], len(instances)
            fresh = pool.fresh_from(rule, mark)
            firsts = pool.by_symbol.get(rule.rhs[0], [])
            stale = True  # until this visit adds an instance of rule.lhs
            idx = 0 if fresh[1] else bisect_left(firsts, mark)
            while idx < len(firsts):  # grows while the rule runs when it is left-recursive
                first = instances[firsts[idx]]
                idx += 1
                for children in pool.matches(rule, first, mark, fresh):
                    key = (rule.lhs, children)
                    if key in seen:
                        continue
                    new_id = len(instances)
                    seen[key] = new_id
                    last = instances[children[-1]]
                    pool.add(SymbolInstance(new_id, rule.lhs, first.start, last.end, children, rule))
                    changed = True
                if stale and len(instances) > marks[r]:
                    fresh, stale = pool.fresh_from(rule, mark), False
    spans_all = g.index.spans_all
    accepted = tuple(
        inst.id
        for inst in instances
        if inst.type_name == grammar.start_symbol and spans_all(inst.start, inst.end)
    )
    return ParseForest(tuple(instances), accepted)


def render_trees(f: ParseForest) -> str:
    """Each accepted instance as an indented tree, in id order; '' when none."""
    instances = f.instances
    blocks = []
    for root in f.accepted:
        lines: list[str] = []
        # One child iterator per open level, so depth is not bound by the recursion limit.
        stack = [(iter((root,)), "")]
        while stack:
            children, pad = stack[-1]
            for iid in children:
                inst = instances[iid]
                if inst.children:
                    lines.append(f"{pad}{inst.type_name} [{inst.start}-{inst.end}]")
                    stack.append((iter(inst.children), pad + "  "))
                    break
                lines.append(f'{pad}{inst.type_name} "{inst.text}" [{inst.start}-{inst.end}]')
            else:
                stack.pop()
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def forest_to_json(f: ParseForest) -> str:
    payload = {
        "instances": [
            {
                "id": inst.id,
                "type": inst.type_name,
                "text": inst.text,
                "start": inst.start,
                "end": inst.end,
                "children": list(inst.children),
                "rule": str(inst.rule) if inst.rule is not None else None,
            }
            for inst in f.instances
        ],
        "accepted": list(f.accepted),
    }
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":"))


def forest_to_dot(f: ParseForest) -> str:
    """Accepted trees as a DOT digraph (parent to child, reachable nodes only)."""
    reachable: set[int] = set()
    stack = list(f.accepted)
    while stack:
        iid = stack.pop()
        if iid in reachable:
            continue
        reachable.add(iid)
        stack.extend(f.instances[iid].children)
    lines = ["digraph forest {"]
    for iid in sorted(reachable):
        inst = f.instances[iid]
        if inst.children:
            label = f"{inst.type_name}@{inst.start}-{inst.end}"
        else:
            label = f'{inst.type_name}\n"{inst.text}"@{inst.start}-{inst.end}'
        lines.append(f'  i{iid} [label="{_dot_escape(label)}"];')
    for iid in sorted(reachable):
        for child in f.instances[iid].children:
            lines.append(f"  i{iid} -> i{child};")
    lines.append("}")
    return "\n".join(lines) + "\n"
