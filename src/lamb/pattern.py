r"""Regular-expression subset with anchored longest-match queries.

Supported syntax: literal characters; the escapes \. \/ \\ \+ \- \* \? \( \)
\[ \] \| \& \n \t; character classes ``[...]`` with ranges and leading ``^``
negation; grouping ``(...)``; alternation ``|``; the repetitions ``*`` ``+``
``?``; and ``.`` for any character except newline.  No anchors, no
backreferences, no counted repetition.

A pattern compiles to a small Thompson-style NFA, and `Pattern` is that NFA
alone.  Its edge labels have one shape, ``(ranges, negated)``: a literal
``c`` is ``(((c, c),), False)``, a class keeps its ranges as written, and
``.`` is `_ANY`.  ``Automaton(patterns)`` puts one or more patterns, the
matchers, into one DFA, as RE2's ``Set`` does.  Each DFA state records, as
bitmasks, which matchers accept in it and which are alive in it, so one walk
from the one start state gives the longest match of every matcher it wants,
keeping only their accepts, and stops where none of them is alive: that is
how the scanner tries a whole spec.

The automaton's DFA is built lazily by subset construction (Thompson, 1968;
Cox, "Regular Expression Matching Can Be Simple And Fast", 2007): a DFA state
is the set of NFA states reachable so far, ε-closure included, and is itself a
dict, its own transition table, as in RE2: a transition missing from it is
computed the first time a walk reads it, ``state[c]``, then stored there.  The
ε-closure is found when a DFA state is made, by one search over ε-edges, so no
closure is kept per NFA state and building an automaton stays linear in the
patterns' size.  Transitions are keyed by character class, as in RE2's DFA
(Cox, "Regular Expression Matching in the Wild", 2010): the code points at
which some edge label of the NFA starts or stops holding cut the alphabet into
classes, two characters of one class satisfy the same labels, and so every
state moves to the same state on both.  A walk maps its text to classes by one
``str.translate``, then costs one lookup ``state[c]`` per character once the
states it visits exist, and never more than one subset step per character, so
it stays linear in the remaining input regardless of the pattern.  A state
holds at most one transition per class, and the patterns fix the classes, so
one bound suffices: each automaton keeps at most ``_DFA_CACHE_LIMIT`` states,
past which it empties its cache, which only it decides, and rebuilds on
demand.  Memory so stays bounded on patterns whose full DFA is exponential and
on inputs of many distinct characters, even for an automaton that lives as
long as the process.

Matching is anchored at the query position, every alternation branch
competes, and the longest hit wins.  Zero-length matches are never reported.
"""

from __future__ import annotations

from bisect import bisect_right

__all__ = ["Automaton", "Pattern", "PatternError", "compile"]

_ESCAPES = {
    ".": ".", "/": "/", "\\": "\\", "+": "+", "-": "-", "*": "*", "?": "?",
    "(": "(", ")": ")", "[": "[", "]": "]", "|": "|", "&": "&",
    "n": "\n", "t": "\t",
}

_ANY = ((("\n", "\n"),), True)  # the label of ``.``


class PatternError(ValueError):
    """Raised when a pattern source does not conform to the supported subset."""

    def __init__(self, message: str, source: str, position: int):
        super().__init__(f"{message} in pattern {source!r} at position {position}")
        self.message = message
        self.source = source
        self.position = position

    def __reduce__(self):
        # As `ValueError`'s, but rebuilt from the constructor's arguments, not
        # from ``args``, which hold the formatted text.  pickle and copy use it.
        return type(self), (self.message, self.source, self.position), self.__dict__


def _label_matches(label: tuple, ch: str) -> bool:
    """Whether ``ch`` lies in one of the label's ranges, or in none if it is negated."""
    ranges, negated = label
    for lo, hi in ranges:
        if lo <= ch <= hi:
            return not negated
    return negated


_MAX_CHAR = chr(0x10FFFF)
_DFA_CACHE_LIMIT = 4096  # DFA states kept per automaton before its cache is emptied


def _class_bounds(edges) -> list[str]:
    """The sorted code points at which some edge label starts or stops holding,
    and ``"\\0"``: class ``k`` holds the characters from ``bounds[k - 1]`` up
    to the next bound, so every character's class is at least 1, and the
    characters of one class satisfy exactly the same labels."""
    bounds = {"\0"}
    for out in edges:
        for (ranges, _), _ in out:
            for lo, hi in ranges:
                bounds.add(lo)
                if hi < _MAX_CHAR:
                    bounds.add(chr(ord(hi) + 1))
    return sorted(bounds)


class _DState(dict):
    """One DFA state: a set of NFA states, and its own transition table.

    As a dict, it maps a character class, as `Automaton.classes` writes it,
    to the state this one moves to on the characters of that class.  A class
    not read before is missing, and ``state[c]`` then computes the move with
    ``automaton``, stores it and returns it.  Bit ``k`` of ``accepts`` is set
    when matcher ``k``'s accept state is in the set, and of ``alive`` when
    matcher ``k`` owns an NFA state of the set; the empty set is the dead
    state, where both are 0 and every class leads back.  ``id`` numbers the
    states of one automaton in the order they were made, never reusing a
    number, so a caller can key what it learns of a state by ``id`` without
    keeping the state alive past a flush of the cache.  States compare and
    hash by identity: the DFA has cycles, so comparing by content would
    recurse.
    """

    __slots__ = ("nfa", "accepts", "alive", "id", "automaton")

    def __init__(self, nfa: frozenset[int], accepts: int, alive: int, id: int, automaton: Automaton):
        self.id = id
        self.nfa = nfa
        self.accepts = accepts
        self.alive = alive
        self.automaton = automaton

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __missing__(self, c: str) -> _DState:
        automaton = self.automaton
        nxt = self[c] = automaton._subset_step(self, automaton._bounds[ord(c) - 1])
        return nxt


class Automaton:
    """A DFA built lazily over the Thompson NFAs of one or more matchers,
    matcher ``k`` being ``patterns[k]``.

    Every walk takes the one start state ``start``, the ε-closure of all the
    matchers' NFA start states, and moves on by the class ``c`` of each
    character, from `classes`, to ``state[c]``, which is computed on the
    class's first character and kept.  ``state.accepts`` masks the matchers
    whose match ends where the walk stands.  A walk that wants the matchers
    of a mask ``live`` keeps ``accepts & live``, and is over where ``alive &
    live`` is 0.

    ``_dfa`` maps each NFA state set to its DFA state: a cache that only
    gains states equal by content to ones it could have built, or is emptied
    past ``_DFA_CACHE_LIMIT`` states, so answers never depend on earlier
    walks.  The automaton alone decides when to empty it, and makes ``start``
    anew with it.  A walk that reads ``start`` afresh each time, and holds no
    state but the one it stands on, keeps no emptied state alive.
    """

    __slots__ = ("_edges", "_eps", "_heads", "_accepting", "_owners", "_dfa", "start", "_bounds", "_made")

    def __init__(self, patterns: list[Pattern]):
        """Matcher ``k`` is ``patterns[k]``, its NFA states numbered after
        those of ``patterns[:k]``; builds the start state only."""
        edges: list[tuple] = []
        eps: list[tuple[int, ...]] = []
        heads = []
        accepting = set()
        owners: list[int] = []
        for k, p in enumerate(patterns):
            base = len(edges)
            edges += [tuple((label, t + base) for label, t in out) for out in p._edges]
            eps += [tuple(t + base for t in out) for out in p._eps]
            heads.append(p._start + base)
            accepting.add(p._accept + base)
            owners += [1 << k] * len(p._edges)
        self._edges = edges
        self._eps = eps
        self._heads = tuple(heads)  # the NFA start state of each matcher
        self._accepting = accepting  # the NFA accept states, one per matcher
        self._owners = owners  # NFA state -> the bit of its matcher
        self._dfa: dict[frozenset[int], _DState] = {}
        self._bounds = _class_bounds(edges)
        self._made = 0  # DFA states made, the next state's id
        self.start: _DState = self._intern(self._closure(heads))

    def classes(self, text: str) -> str:
        """``text`` with each character replaced by its class, ``chr(k)`` for class ``k``."""
        bounds = self._bounds
        # A table of the text's own characters lives no longer than the call.
        return text.translate({ord(ch): bisect_right(bounds, ch) for ch in set(text)})

    def _closure(self, seeds: list[int]) -> frozenset[int]:
        """``seeds`` and every NFA state reachable from them over ε-edges."""
        eps = self._eps
        seen = set(seeds)
        stack = list(seen)
        while stack:
            for t in eps[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)

    def _intern(self, nfa: frozenset[int]) -> _DState:
        state = self._dfa.get(nfa)
        if state is None:
            if len(self._dfa) >= _DFA_CACHE_LIMIT:
                self._clear()
            accepting, owners = self._accepting, self._owners
            accepts = sum(owners[s] for s in nfa if s in accepting)  # one accept state per matcher
            alive = sum({owners[s] for s in nfa})  # each owner's one bit, once
            state = self._dfa[nfa] = _DState(nfa, accepts, alive, self._made, self)
            self._made += 1
        return state

    def _clear(self) -> None:
        # Old states stay reachable only from a walk still running.
        self._dfa.clear()
        self.start = self._intern(self._closure(self._heads))

    def _subset_step(self, state: _DState, ch: str) -> _DState:
        """The DFA state for the NFA states that ``state`` reaches on ``ch``."""
        edges = self._edges
        moved = [target for s in state.nfa for label, target in edges[s] if _label_matches(label, ch)]
        return self._intern(self._closure(moved))


class Pattern:
    """The Thompson NFA of one pattern, immutable: ``_edges[s]`` holds the labelled
    edges ``(label, target)`` out of state ``s`` and ``_eps[s]`` its ε-edge
    targets.  It is matched by an `Automaton`."""

    __slots__ = ("source", "_edges", "_eps", "_start", "_accept")

    def __init__(self, source, edges, eps, start, accept):
        self.source, self._edges, self._eps, self._start, self._accept = source, edges, eps, start, accept

    def __repr__(self) -> str:
        return f"Pattern({self.source!r})"

    def match_longest_at(self, text: str, pos: int) -> int | None:
        """Length of the longest match anchored exactly at ``pos``, or None.

        Returns None when nothing (or only the empty string) matches; a
        reported length is always >= 1.  `scanner.scan` does not call it; it
        is kept for perfbench, which wraps it by name.
        """
        n = len(text)
        if not 0 <= pos <= n:
            raise ValueError(f"position {pos} outside input of length {n}")
        automaton = Automaton([self])
        state = automaton.start
        longest = None
        for length, c in enumerate(automaton.classes(text[pos:]), 1):
            state = state[c]
            if not state.alive:
                break
            if state.accepts:
                longest = length
        return longest


class _Compiler:
    """Compiler emitting NFA fragments (start, accept).

    Open groups are kept on an explicit stack rather than in Python frames,
    so nesting depth is bounded by memory, not by the recursion limit.
    """

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.edges: list[list[tuple]] = []
        self.eps: list[list[int]] = []

    def fail(self, message: str, position: int | None = None):
        raise PatternError(message, self.source, self.pos if position is None else position)

    def peek(self) -> str | None:
        return self.source[self.pos] if self.pos < len(self.source) else None

    def take(self) -> str:
        ch = self.source[self.pos]
        self.pos += 1
        return ch

    def new_state(self) -> int:
        self.edges.append([])
        self.eps.append([])
        return len(self.edges) - 1

    def link(self, a: int, b: int) -> None:
        self.eps[a].append(b)

    def edge(self, label: tuple) -> tuple[int, int]:
        s, a = self.new_state(), self.new_state()
        self.edges[s].append((label, a))
        return s, a

    def compile(self) -> Pattern:
        if not self.source:
            self.fail("empty pattern", 0)
        groups: list[tuple[list, list, int]] = []  # enclosing (branches, sequence, '(' position)
        branches: list[tuple[int, int]] = []  # finished branches of the innermost open group
        frags: list[tuple[int, int]] = []     # fragments of its current branch
        while (ch := self.peek()) is not None:
            if ch == "(":
                groups.append((branches, frags, self.pos))
                self.take()
                branches, frags = [], []
                continue
            if ch == "|":
                self.take()
                branches.append(self.sequence(frags))
                frags = []
                continue
            if ch == ")":
                if not groups:
                    self.fail("unmatched ')'")
                self.take()
                branches.append(self.sequence(frags))
                frag = self.alternation(branches)
                branches, frags, _ = groups.pop()
            else:
                frag = self.atom()
            frags.append(self.repetition(frag))
        if groups:
            self.fail("unbalanced group", groups[-1][2])
        branches.append(self.sequence(frags))
        start, accept = self.alternation(branches)
        edges = tuple(tuple(e) for e in self.edges)
        eps = tuple(tuple(e) for e in self.eps)
        return Pattern(self.source, edges, eps, start, accept)

    def alternation(self, frags: list[tuple[int, int]]) -> tuple[int, int]:
        if len(frags) == 1:
            return frags[0]
        s, a = self.new_state(), self.new_state()
        for fs, fa in frags:
            self.link(s, fs)
            self.link(fa, a)
        return s, a

    def sequence(self, frags: list[tuple[int, int]]) -> tuple[int, int]:
        if not frags:
            s = self.new_state()
            return s, s
        for (_, left_end), (right_start, _) in zip(frags, frags[1:]):
            self.link(left_end, right_start)
        return frags[0][0], frags[-1][1]

    def repetition(self, frag: tuple[int, int]) -> tuple[int, int]:
        ch = self.peek()
        if ch in ("*", "+", "?"):
            self.take()
            frag = self._repeat(frag, ch)
            if self.peek() in ("*", "+", "?"):
                self.fail("multiple repeat")
        return frag

    def _repeat(self, frag: tuple[int, int], op: str) -> tuple[int, int]:
        fs, fa = frag
        s, a = self.new_state(), self.new_state()
        self.link(s, fs)
        self.link(fa, a)
        if op in "*?":
            self.link(s, a)
        if op in "*+":
            self.link(fa, fs)
        return s, a

    def atom(self) -> tuple[int, int]:
        """One character, class or ``.``; groups are handled in `compile`."""
        ch = self.peek()
        if ch == "[":
            return self.char_class()
        if ch in ("*", "+", "?"):
            self.fail("nothing to repeat")
        if ch == ".":
            self.take()
            return self.edge(_ANY)
        ch = self.escape() if ch == "\\" else self.take()
        return self.edge((((ch, ch),), False))

    def escape(self) -> str:
        at = self.pos
        self.take()  # backslash
        ch = self.peek()
        if ch is None:
            self.fail("incomplete escape", at)
        if ch not in _ESCAPES:
            self.fail(f"unsupported escape '\\{ch}'", at)
        self.take()
        return _ESCAPES[ch]

    def char_class(self) -> tuple[int, int]:
        opened = self.pos
        self.take()  # [
        negated = False
        if self.peek() == "^":
            self.take()
            negated = True
        ranges: list[tuple[str, str]] = []
        while True:
            ch = self.peek()
            if ch is None:
                self.fail("unterminated character class", opened)
            if ch == "]":
                if not ranges:
                    self.fail("empty character class", opened)
                self.take()
                break
            lo = self.class_char()
            if (
                self.peek() == "-"
                and self.pos + 1 < len(self.source)
                and self.source[self.pos + 1] != "]"
            ):
                dash = self.pos
                self.take()
                hi = self.class_char()
                if lo > hi:
                    self.fail(f"bad character range {lo!r}-{hi!r}", dash)
                ranges.append((lo, hi))
            else:
                ranges.append((lo, lo))
        return self.edge((tuple(ranges), negated))

    def class_char(self) -> str:
        if self.peek() == "\\":
            return self.escape()
        return self.take()


def compile(source: str) -> Pattern:
    """Compile ``source``; raises PatternError with a position on bad syntax."""
    return _Compiler(source).compile()
