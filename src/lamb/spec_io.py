"""Parsing and validation of lexical-spec files and grammar files.

Lexical spec (UTF-8, line based)::

    token <NAME> <PRIORITY> /<REGEX>/
    ignore /<REGEX>/

PRIORITY is an integer >= 1 in ASCII decimal digits (lower value wins at a
shared start position; ignored patterns act at priority 0).  The regex is
delimited by unescaped slashes, so ``\\/`` stands for a slash inside.  ``#``
starts a comment, blank lines are skipped.  In both kinds of file a line
ends at ``\\n``, ``\\r\\n`` or ``\\r``, and at no other character.  Spaces
and tabs, and no other character, separate the fields of a line and are
trimmed from its ends: other whitespace, such as U+001C, U+0085 or U+3000,
is part of the field it stands in.

Grammar (UTF-8, line based)::

    start <NAME>              # optional, at most once
    <LHS> ::= <SYM> <SYM> ... # `|` separates alternatives on one line

`parse_lex_spec` and `parse_grammar` check only the syntax a `LexSpec` or
`Grammar` cannot hold, then raise the first problem `validate` lists for the
model they built, so every other rule is checked in one place.  A syntax
error anywhere in a file is reported before any other problem; next comes
the earliest faulty definition or rule, and only then a spec without
tokens, a missing start rule or a unit cycle.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field, fields

from . import pattern

__all__ = [
    "Diagnostic",
    "Grammar",
    "GrammarRule",
    "IgnoreDef",
    "LexSpec",
    "SpecError",
    "TokenDef",
    "parse_grammar",
    "parse_lex_spec",
    "render_lex_spec",
    "validate",
]

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INTEGER = re.compile(r"-?[0-9]+\Z")  # ASCII digits only, unlike int()
_BLANKS = re.compile(r"[ \t]+")  # the field separator, unlike str.split()
_REGEX = re.compile(r"/((?:\\.|[^\\/])*)/(.*)", re.S)  # slash, pattern, unescaped slash, tail
_SLASH = re.compile(r"(\\.)|/", re.S)  # an escape pair, kept as it is, or a slash to escape


class SpecError(ValueError):
    """A spec or grammar file problem, pinned to a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message

    def __reduce__(self):
        # As `pattern.PatternError`: rebuilt from the constructor's arguments.
        return type(self), (self.line, self.message), self.__dict__


@dataclass(frozen=True)
class Diagnostic:
    line: int
    message: str


class _cached:
    """A cached property written out by hand: the method runs on first use and
    its result is kept in the instance ``__dict__``, which also works on a
    frozen dataclass and never takes part in its comparisons.  Every lazy
    attribute of lamb uses it, `lexgraph.LexGraph`'s included.

    `functools.cached_property` takes a lock and re-checks its cache on every
    first access (Python 3.11), which added about 5% to loading the numbers
    spec and grammar.
    """

    def __init__(self, build):
        self.build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        obj.__dict__[self.name] = value = self.build(obj)
        return value


def _fields_only(self) -> dict:
    """The dataclass fields alone, for pickle and `copy`.  A value kept by
    `_cached` can nest deeper than a copy may recurse (a scanned spec's DFA
    states, a long rule's item chain); a copy builds its own on first use."""
    return {f.name: getattr(self, f.name) for f in fields(self)}


@_cached
def _compiled(d) -> pattern.Pattern:
    """``d.pattern_source`` compiled on first use and kept on ``d``.

    For a parsed spec that use is while validating; the spec's automaton
    reuses the result.
    """
    return pattern.compile(d.pattern_source)


@dataclass(frozen=True)
class TokenDef:
    name: str
    priority: int
    pattern_source: str
    ordinal: int
    line: int = field(default=0, compare=False)
    compiled = _compiled


@dataclass(frozen=True)
class IgnoreDef:
    pattern_source: str
    ordinal: int
    line: int = field(default=0, compare=False)
    priority = 0  # ignored patterns act at priority 0; not a field
    compiled = _compiled


@dataclass(frozen=True)
class LexSpec:
    token_defs: tuple[TokenDef, ...]
    ignore_defs: tuple[IgnoreDef, ...]

    @_cached
    def matchers(self) -> tuple[tuple[TokenDef | IgnoreDef, bool, int], ...]:
        """Matcher ``k``'s row ``(definition, ignored, moved)``, in scanning
        order: priority ascending, then definition order; ignored means priority
        0.  A match of ``k`` moves ``k`` past its start and drags along the
        matchers of strictly lower precedence: ``moved`` holds their bits and
        ``k``'s.  Built by the first `scan`."""
        defs = sorted([*self.token_defs, *self.ignore_defs], key=lambda d: (d.priority, d.ordinal))
        priorities = [d.priority for d in defs]
        return tuple((d, not d.priority, 1 << k | (1 << len(defs)) - (1 << bisect_right(priorities, d.priority)))
                     for k, d in enumerate(defs))

    @_cached
    def automaton(self) -> pattern.Automaton:
        """One lazily built DFA over every pattern, matcher ``k`` being the
        definition in ``matchers[k]``.  Built on first use, which is the first `scan`."""
        return pattern.Automaton([d.compiled for d, *_ in self.matchers])

    __getstate__ = _fields_only


@dataclass(frozen=True)
class GrammarRule:
    lhs: str
    rhs: tuple[str, ...]
    line: int = field(default=0, compare=False)

    def __str__(self) -> str:
        return f"{self.lhs} ::= {' '.join(self.rhs)}"


@dataclass(frozen=True)
class Grammar:
    """Rules and a start symbol.  ``item_chains``, the rules compiled for the
    parser, is built on first use, which is the first `parse`, and kept."""

    rules: tuple[GrammarRule, ...]
    start_symbol: str
    start_line: int = field(default=1, compare=False)  # of the ``start`` directive, if any

    @_cached
    def item_chains(self) -> dict[str, list[tuple[tuple, tuple[()]]]]:
        """Per first body symbol, the rules it starts, in listed order and
        each once, as the pair ``(item, ())``: the rule's chain of dotted
        items past its first symbol, and no child matched before it.

        An item ``(lhs, wanted, next)`` is a rule with its body matched up to
        the symbol ``wanted``; ``next`` is the item once that is matched too.
        A complete item is ``(lhs, None, None)``.  Chains are built from the
        end, without recursion, and the parser never hashes or compares an
        item, so a long body does not meet the recursion limit.
        """
        chains: dict[str, list[tuple[tuple, tuple[()]]]] = {}
        for rule in dict.fromkeys(self.rules):
            item = (rule.lhs, None, None)
            for symbol in reversed(rule.rhs[1:]):
                item = (rule.lhs, symbol, item)
            chains.setdefault(rule.rhs[0], []).append((item, ()))
        return chains

    __getstate__ = _fields_only


def _lines(text: str) -> list[str]:
    """The lines of ``text``, ended by ``\\n``, ``\\r\\n`` or ``\\r`` alone, unlike `str.splitlines`."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _take_regex(rest: str, lineno: int) -> str:
    """Extract the pattern between unescaped slashes; the tail may only hold a comment."""
    if not rest.startswith("/"):
        raise SpecError(lineno, "expected /REGEX/")
    match = _REGEX.match(rest)
    if match is None:
        raise SpecError(lineno, "unterminated /REGEX/")
    source, trailer = match[1], match[2].strip(" \t")
    if not source:
        raise SpecError(lineno, "empty pattern")
    if trailer and not trailer.startswith("#"):
        raise SpecError(lineno, f"unexpected text after pattern: {trailer!r}")
    return source


def parse_lex_spec(text: str) -> LexSpec:
    """Parse a lexical spec file into a LexSpec; raises SpecError on the first problem."""
    token_defs: list[TokenDef] = []
    ignore_defs: list[IgnoreDef] = []
    ordinal = 0
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.strip(" \t")
        if not line or line.startswith("#"):
            continue
        keyword = _BLANKS.split(line, maxsplit=1)[0]
        if keyword == "token":
            parts = _BLANKS.split(line, maxsplit=3)
            if len(parts) != 4:
                raise SpecError(lineno, "expected 'token NAME PRIORITY /REGEX/'")
            _, name, prio_text, rest = parts
            if not _INTEGER.match(prio_text):
                raise SpecError(lineno, f"priority must be an integer, got {prio_text!r}")
            try:
                priority = int(prio_text)
            except ValueError:  # more digits than int() converts
                raise SpecError(lineno, f"priority too long: {len(prio_text)} characters") from None
            token_defs.append(TokenDef(name, priority, _take_regex(rest, lineno), ordinal, lineno))
        elif keyword == "ignore":
            parts = _BLANKS.split(line, maxsplit=1)
            if len(parts) != 2:
                raise SpecError(lineno, "expected 'ignore /REGEX/'")
            ignore_defs.append(IgnoreDef(_take_regex(parts[1], lineno), ordinal, lineno))
        else:
            raise SpecError(lineno, f"unrecognized directive {keyword!r}")
        ordinal += 1
    spec = LexSpec(tuple(token_defs), tuple(ignore_defs))
    _raise_first(_spec_diagnostics(spec))
    return spec


def _escape_slashes(source: str) -> str:
    return _SLASH.sub(lambda m: m[1] or "\\/", source)


def render_lex_spec(spec: LexSpec) -> str:
    """Canonical text for a LexSpec; re-parsing it yields an equal model."""
    defs = sorted([*spec.token_defs, *spec.ignore_defs], key=lambda d: d.ordinal)
    lines = []
    for d in defs:
        if isinstance(d, TokenDef):
            lines.append(f"token {d.name} {d.priority} /{_escape_slashes(d.pattern_source)}/")
        else:
            lines.append(f"ignore /{_escape_slashes(d.pattern_source)}/")
    return "\n".join(lines) + "\n"


def parse_grammar(text: str, spec: LexSpec) -> Grammar:
    """Parse a grammar file against ``spec``; raises SpecError on the first problem."""
    rules: list[GrammarRule] = []
    start: str | None = None
    start_line = 0
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.split("#", 1)[0].strip(" \t")
        if not line:
            continue
        if "::=" not in line:
            parts = _BLANKS.split(line)
            if parts[0] == "start":
                if len(parts) != 2 or not _NAME.match(parts[1]):
                    raise SpecError(lineno, "expected 'start NAME'")
                if start is not None:
                    raise SpecError(lineno, f"duplicate start directive (first on line {start_line})")
                start, start_line = parts[1], lineno
                continue
            raise SpecError(lineno, "expected 'LHS ::= SYM SYM ...'")
        lhs_text, rhs_text = line.split("::=", 1)
        lhs = lhs_text.strip(" \t")
        if not _NAME.match(lhs):
            raise SpecError(lineno, f"bad rule name {lhs!r}")
        for alternative in rhs_text.split("|"):
            symbols = [sym for sym in _BLANKS.split(alternative) if sym]
            for sym in symbols:
                if not _NAME.match(sym):
                    raise SpecError(lineno, f"bad symbol {sym!r}")
            rules.append(GrammarRule(lhs, tuple(symbols), lineno))
    if not rules:
        raise SpecError(1, "no grammar rules")
    if start is None:
        grammar = Grammar(tuple(rules), rules[0].lhs)
    else:
        grammar = Grammar(tuple(rules), start, start_line)
    _raise_first(_grammar_diagnostics(grammar, spec))
    return grammar


def _raise_first(problems: list[Diagnostic]) -> None:
    if problems:
        raise SpecError(problems[0].line, problems[0].message)


def _spec_diagnostics(spec: LexSpec) -> list[Diagnostic]:
    """Every spec problem, in definition order, so the first is the earliest line."""
    out: list[Diagnostic] = []
    first_line: dict[str, int] = {}
    for d in sorted([*spec.token_defs, *spec.ignore_defs], key=lambda d: d.ordinal):
        if isinstance(d, TokenDef):
            if not _NAME.match(d.name):
                out.append(Diagnostic(d.line, f"bad token name {d.name!r}"))
            if d.priority < 1:
                out.append(Diagnostic(d.line, f"priority must be >= 1, got {d.priority}"))
            if d.name in first_line:
                out.append(Diagnostic(d.line, f"duplicate token name {d.name!r} (first defined on line {first_line[d.name]})"))
            first_line.setdefault(d.name, d.line)
        try:
            d.compiled  # compiles the pattern once and keeps it for scanning
        except pattern.PatternError as exc:
            out.append(Diagnostic(d.line, f"bad pattern: {exc}"))
    if not spec.token_defs:
        out.append(Diagnostic(1, "no token definitions"))
    return out


def _unit_cycle(rules: tuple[GrammarRule, ...], nonterminals: set[str]) -> list[str] | None:
    """Find a cycle among single-symbol productions over nonterminals, if any."""
    successors: dict[str, list[str]] = {}
    for r in rules:
        if len(r.rhs) == 1 and r.rhs[0] in nonterminals:
            successors.setdefault(r.lhs, []).append(r.rhs[0])
    state: dict[str, int] = {}  # 1 = on the current path, 2 = done
    for root in successors:
        if state.get(root, 0):
            continue
        # Depth-first search with the path and its successor iterators held
        # in lists, so a long chain of unit rules cannot exhaust the stack.
        trail = [root]
        pending = [iter(successors[root])]
        state[root] = 1
        while pending:
            for nxt in pending[-1]:
                if state.get(nxt) == 1:
                    return trail[trail.index(nxt):] + [nxt]
                if state.get(nxt, 0) == 0:
                    state[nxt] = 1
                    trail.append(nxt)
                    pending.append(iter(successors.get(nxt, ())))
                    break
            else:
                pending.pop()
                state[trail.pop()] = 2
    return None


def _grammar_diagnostics(grammar: Grammar, spec: LexSpec) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    token_names = {d.name for d in spec.token_defs}
    lhs_names = {r.lhs for r in grammar.rules}
    for r in grammar.rules:
        if r.lhs in token_names:
            out.append(Diagnostic(r.line, f"rule name {r.lhs!r} collides with a token name"))
        if not r.rhs:
            out.append(Diagnostic(r.line, f"empty rhs in rule for {r.lhs!r}"))
        for sym in r.rhs:
            if sym not in token_names and sym not in lhs_names:
                out.append(Diagnostic(r.line, f"undefined symbol {sym!r}"))
    if grammar.start_symbol not in lhs_names:
        out.append(Diagnostic(grammar.start_line, f"start symbol {grammar.start_symbol!r} has no rule"))
    cycle = _unit_cycle(grammar.rules, lhs_names - token_names)
    if cycle:
        line = next((r.line for r in grammar.rules if r.lhs == cycle[0]), 1)
        out.append(Diagnostic(line, "unit-production cycle: " + " -> ".join(cycle)))
    return out


def validate(spec: LexSpec, grammar: Grammar | None = None) -> list[Diagnostic]:
    """Return every invariant violation at once; an empty list means ok."""
    out = _spec_diagnostics(spec)
    if grammar is not None:
        out.extend(_grammar_diagnostics(grammar, spec))
    return out
