import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from lamb import oracles, parse_lex_spec, pattern, scan
from lamb.pattern import PatternError, compile as compile_pattern


SOURCES_THAT_COMPILE = [
    r"(-|\+)?[0-9]+",
    r"(-|\+)?[0-9]+\.[0-9]+",
    r"\.",
    r"\/",
    r"\&",
    r"[_a-zA-Z]+",
    r"true|false",
    r"if",
    r"while",
    r" +",
    r".",
    r"a.c",
    r"[^0-9]",
    r"[ab\-]",
    r"(a(b|c)*d)?",
    r"\t\n",
]


@pytest.mark.parametrize("source", SOURCES_THAT_COMPILE)
def test_compiles(source):
    assert compile_pattern(source).source == source


@pytest.mark.parametrize(
    "source",
    [
        "(ab",        # unbalanced group
        "ab)",        # stray close
        "a**",        # stacked repeat
        "*a",         # nothing to repeat
        "a|*",        # repeat heading a branch
        "[abc",       # unterminated class
        "[]",         # empty class
        "[z-a]",      # inverted range
        "\\d",        # escape outside the supported set
        "a\\",        # dangling backslash
        "",           # empty source
    ],
)
def test_compile_errors(source):
    with pytest.raises(PatternError) as excinfo:
        compile_pattern(source)
    assert excinfo.value.position >= 0


def test_error_position_points_at_problem():
    with pytest.raises(PatternError) as excinfo:
        compile_pattern("ab(cd")
    assert excinfo.value.position == 2


# Expected lengths below were computed with the brute-force recognizer
# (every candidate length tried via re.fullmatch); the assertions also
# re-check against it so the two routes stay in agreement.
@pytest.mark.parametrize(
    "source,text,pos,expected",
    [
        (r"(-|\+)?[0-9]+\.[0-9]+", "25.20", 0, 5),
        (r"(-|\+)?[0-9]+", "25.20", 0, 2),
        (r"x?", "y", 0, None),
        (r"[0-9]+", "&", 0, None),
        (r"a|ab", "ab", 0, 2),
        (r"(ab)+", "ababab", 0, 6),
        (r"(-|\+)?[0-9]+", "+42x", 0, 3),
        (r"\&", "&5.2&", 0, 1),
        (r"\&", "&5.2&", 4, 1),
        (r".", "\n", 0, None),
        (r"[^a]", "\n", 0, 1),
        (r"\t+", "\t\t ", 0, 2),
    ],
)
def test_match_longest_at(source, text, pos, expected):
    p = compile_pattern(source)
    assert p.match_longest_at(text, pos) == expected
    assert support.longest_by_re(source, text, pos) == expected


def test_match_is_anchored_not_searched():
    p = compile_pattern("b")
    assert p.match_longest_at("ab", 0) is None
    assert p.match_longest_at("ab", 1) == 1


def test_match_at_end_of_input():
    p = compile_pattern("a")
    assert p.match_longest_at("a", 1) is None


def test_position_out_of_range():
    p = compile_pattern("a")
    with pytest.raises(ValueError):
        p.match_longest_at("a", 2)
    with pytest.raises(ValueError):
        p.match_longest_at("a", -1)


def test_match_is_deterministic():
    p = compile_pattern(r"(a|ab)(c|bc)?")
    results = {p.match_longest_at("abc", 0) for _ in range(50)}
    assert results == {3}


def test_unicode_offsets_count_characters():
    p = compile_pattern("[^x]+")
    text = "ééx"
    assert p.match_longest_at(text, 0) == 2


@st.composite
def subset_patterns(draw, depth=0):
    roll = draw(st.integers(0, 99))
    if depth >= 2 or roll < 40:
        atom = draw(st.integers(0, 9))
        if atom < 5:
            ch = draw(st.sampled_from(support._LITERAL_POOL))
            return support._render_literal(ch)
        if atom < 8:
            return draw(st.sampled_from(support._CLASS_POOL))
        if atom == 8:
            return "."
        return draw(st.sampled_from(("\\t", "\\&", "\\+", "\\-")))
    if roll < 65:
        parts = draw(st.lists(subset_patterns(depth=depth + 1), min_size=2, max_size=3))
        return "".join(parts)
    if roll < 85:
        left = draw(subset_patterns(depth=depth + 1))
        right = draw(subset_patterns(depth=depth + 1))
        return f"({left}|{right})"
    inner = draw(subset_patterns(depth=depth + 1))
    op = draw(st.sampled_from("*+?"))
    return f"({inner}){op}"


@settings(max_examples=200, deadline=None)
@given(
    source=subset_patterns(),
    text=st.text(alphabet=support.INPUT_ALPHABET, max_size=24),
    pos=st.integers(0, 24),
)
def test_longest_match_agrees_with_brute_force(source, text, pos):
    pos = min(pos, len(text))
    p = compile_pattern(source)
    assert p.match_longest_at(text, pos) == support.longest_by_re(source, text, pos)


def test_seeded_sweep_against_brute_force():
    rng = random.Random(20260810)
    for _ in range(300):
        source = support.random_pattern(rng)
        text = support.random_input(rng, max_length=30)
        pos = rng.randint(0, len(text))
        p = compile_pattern(source)
        expected = support.longest_by_re(source, text, pos)
        assert p.match_longest_at(text, pos) == expected, (source, text, pos)
        assert oracles.match_longest_oracle(p, text, pos) == expected, (source, text, pos)


def test_nesting_deeper_than_the_recursion_limit_compiles():
    p = compile_pattern("(" * 3000 + "a" + ")" * 3000 + "b?")
    assert p.match_longest_at("ab", 0) == 2


def test_unbalanced_deep_nesting_is_a_pattern_error():
    with pytest.raises(PatternError) as excinfo:
        compile_pattern("(" * 3000 + "a" + ")" * 2999)
    assert excinfo.value.position == 0  # the outermost group is the one left open


# --- the lazily built DFA, against the oracle's breadth-first NFA engine ------

def test_compile_builds_no_dfa_state():
    p = compile_pattern(r"(-|\+)?[0-9]+\.[0-9]+")
    assert not hasattr(p, "_dfa")  # a pattern is its NFA alone
    automaton = pattern.union([p])
    assert automaton._dfa == {automaton.start.nfa: automaton.start}
    assert support.walk_longest(automaton, "1.5", 0, 1) == [(0, 3)]
    assert automaton._dfa and automaton._dfa[automaton.start.nfa] is automaton.start


def _longest(automaton, text, pos):
    """The one matcher's longest match at ``pos``, as `match_longest_oracle` gives it."""
    hit = support.walk_longest(automaton, text, pos, 1)
    return hit[0][1] if hit else None


def _mixed_text(length: int) -> str:
    rng = random.Random(20261018)
    alphabet = "aab01 .\n\t&éßжω中😀"
    return "".join(rng.choice(alphabet) for _ in range(length))


@pytest.mark.parametrize("cache_limit", [pattern._DFA_CACHE_LIMIT, 2])
def test_reused_pattern_agrees_with_nfa_at_every_position(monkeypatch, cache_limit):
    monkeypatch.setattr(pattern, "_DFA_CACHE_LIMIT", cache_limit)
    text = _mixed_text(5000)
    for source in (r".+", r"[^ab\n]+", r"(a|é)+b?", r"[α-ω]+|[0-9]+(\.[0-9]+)?",
                   r"[^0-9 a]*(ж|中)", r"(a|ab)(\n|\t)?", r"\n|.\.?"):
        p = compile_pattern(source)
        automaton = pattern.union([p])
        for pos in range(len(text) + 1):
            assert _longest(automaton, text, pos) == oracles.match_longest_oracle(p, text, pos), (
                source, pos,
            )
        assert len(automaton._dfa) <= cache_limit


class _WatchedCache(dict):
    """A DFA cache that records its largest size and how often it was emptied."""

    largest = 0
    clears = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.largest = max(self.largest, len(self))

    def clear(self):
        self.clears += 1
        super().clear()


def test_dfa_cache_is_bounded_and_answers_survive_flushes():
    # The DFA of (a|b)*a(a|b){12} has 2**13 states; a long random ab input
    # visits more of them than the cache keeps.
    p = compile_pattern("(a|b)*a" + "(a|b)" * 12)
    automaton = pattern.union([p])
    automaton._dfa = cache = _WatchedCache(automaton._dfa)  # the start state stays cached
    rng = random.Random(7)
    text = "".join(rng.choice("ab") for _ in range(12000))
    for pos in (0, 1, 2, 5000, 11980):
        assert _longest(automaton, text, pos) == oracles.match_longest_oracle(p, text, pos), pos
        # After a flush the next query starts from a fresh state, never an old one.
        assert automaton._dfa.get(automaton.start.nfa) is automaton.start
    assert cache.clears >= 1
    assert cache.largest == pattern._DFA_CACHE_LIMIT


# --- one automaton over several patterns, and arbitrary pattern text ----------

@pytest.mark.parametrize("cache_limit", [pattern._DFA_CACHE_LIMIT, 2])
def test_union_walk_gives_every_live_matchers_longest_match(monkeypatch, cache_limit):
    monkeypatch.setattr(pattern, "_DFA_CACHE_LIMIT", cache_limit)
    rng = random.Random(20261019)
    for _ in range(60):
        patterns = [compile_pattern(support.random_pattern(rng)) for _ in range(rng.randint(1, 5))]
        automaton = pattern.union(patterns)
        text = support.random_input(rng, max_length=30)
        for pos in range(len(text) + 1):
            live = rng.randrange(1, 1 << len(patterns))
            expected = []
            for k, p in enumerate(patterns):
                length = oracles.match_longest_oracle(p, text, pos)
                if live >> k & 1 and length is not None:
                    expected.append((k, length))
            assert support.walk_longest(automaton, text, pos, live) == expected, (
                [p.source for p in patterns], text, pos, live,
            )
        assert len(automaton._dfa) <= cache_limit


def test_alive_names_the_matchers_that_own_an_nfa_state():
    # Matcher k owns an NFA state of the walk's DFA state exactly when its own
    # NFA, simulated alone on the same text with the oracle's closure, has one,
    # and accepts in it exactly when that set holds its accept state.
    rng = random.Random(20261023)
    for _ in range(100):
        patterns = [compile_pattern(support.random_pattern(rng)) for _ in range(rng.randint(1, 5))]
        automaton = pattern.union(patterns)
        text = support.random_input(rng, max_length=20)
        current = [oracles._eps_closure(p, {p._start}) for p in patterns]
        state = automaton.start
        for ch, c in zip(text, automaton.classes(text)):
            assert state.alive == sum(1 << k for k, states in enumerate(current) if states), (patterns, text)
            assert state.accepts == sum(1 << k for k, (p, states) in enumerate(zip(patterns, current))
                                        if p._accept in states), (patterns, text)
            state = automaton.step(state, c)
            current = [oracles._eps_closure(p, {t for s in states for label, t in p._edges[s]
                                                if oracles._label_matches(label, ch)})
                       for p, states in zip(patterns, current)]
            if not state.alive:
                assert not any(current), (patterns, text)
                # The empty set is one interned state, the dead state, and steps to itself.
                assert state.accepts == 0 and automaton._dfa[frozenset()] is state
                assert automaton.step(state, c) is state
                break


@pytest.mark.parametrize("cache_limit", [pattern._DFA_CACHE_LIMIT, 2])
def test_union_agrees_with_nfa_on_character_class_boundaries(monkeypatch, cache_limit):
    monkeypatch.setattr(pattern, "_DFA_CACHE_LIMIT", cache_limit)
    rng = random.Random(20261020)
    for _ in range(80):
        sources = [rng.choice(support.EDGE_SOURCES) if rng.random() < 0.4 else support.random_pattern(rng)
                   for _ in range(rng.randint(1, 4))]
        patterns = [compile_pattern(source) for source in sources]
        automaton = pattern.union(patterns)
        alphabet = support.boundary_characters(patterns)
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        for pos in range(len(text) + 1):
            live = rng.randrange(1, 1 << len(patterns))
            expected = [(k, length) for k, p in enumerate(patterns)
                        if live >> k & 1
                        and (length := oracles.match_longest_oracle(p, text, pos)) is not None]
            assert support.walk_longest(automaton, text, pos, live) == expected, (sources, text, pos, live)


def test_transitions_are_computed_once_per_character_class(monkeypatch):
    spec = parse_lex_spec("token D 1 /[0-9]+/\n")
    steps = []
    subset_step = pattern.Automaton._subset_step

    def counted(self, state, ch):
        steps.append(ch)
        return subset_step(self, state, ch)

    monkeypatch.setattr(pattern.Automaton, "_subset_step", counted)
    assert [t.text for t in scan(spec, "0123456789").tokens] == ["0123456789"]
    # The start state and the state after a digit: one step each, not one per
    # digit, each on the digit class's first character.
    assert len(spec.automaton._dfa) == 2
    assert steps == ["0", "0"]


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.one_of(st.sampled_from("()[]^-|*+?.\\/ntab&"), st.characters()), max_size=20))
def test_compile_raises_only_pattern_error(source):
    try:
        p = compile_pattern(source)
    except PatternError:
        return
    text = "ab" + source
    assert p.match_longest_at(text, 0) == oracles.match_longest_oracle(p, text, 0)
