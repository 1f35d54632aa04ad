import gc
import random
import weakref
from itertools import groupby
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from lamb import IgnoreDef, LexSpec, TokenDef, parse_lex_spec, pattern, scan, scan_oracle, uncovered_spans
from lamb.scanner import ScanResult, Token, render_tokens_text

# (id, type, text, start, end) for "&5.2& /25.20/" under shared priorities.
EXPECTED_NUMBERS_TOKENS = [
    (0, "Ampersand", "&", 0, 0),
    (1, "Integer", "5", 1, 1),
    (2, "Real", "5.2", 1, 3),
    (3, "Point", ".", 2, 2),
    (4, "Integer", "2", 3, 3),
    (5, "Ampersand", "&", 4, 4),
    (6, "Slash", "/", 6, 6),
    (7, "Integer", "25", 7, 8),
    (8, "Real", "25.20", 7, 11),
    (9, "Point", ".", 9, 9),
    (10, "Integer", "20", 10, 11),
    (11, "Slash", "/", 12, 12),
]


def _tuples(result):
    return [(t.id, t.type_name, t.text, t.start, t.end) for t in result.tokens]


def test_numbers_input_yields_all_twelve_tokens(numbers_scan):
    assert _tuples(numbers_scan) == EXPECTED_NUMBERS_TOKENS
    assert numbers_scan.input_length == len(support.NUMBERS_INPUT)
    assert numbers_scan.ignored == ((5, 5),)


def test_integer_favored_collapses_to_ten_token_chain():
    spec = parse_lex_spec(support.numbers_spec_text(favored="Integer"))
    result = scan(spec, support.NUMBERS_INPUT)
    assert [t.type_name for t in result.tokens] == [
        "Ampersand", "Integer", "Point", "Integer", "Ampersand",
        "Slash", "Integer", "Point", "Integer", "Slash",
    ]
    assert len(result.tokens) == 10


def test_real_favored_collapses_to_six_token_chain():
    spec = parse_lex_spec(support.numbers_spec_text(favored="Real"))
    result = scan(spec, support.NUMBERS_INPUT)
    assert [t.type_name for t in result.tokens] == [
        "Ampersand", "Real", "Ampersand", "Slash", "Real", "Slash",
    ]
    assert [(t.start, t.end) for t in result.tokens] == [
        (0, 0), (1, 3), (4, 4), (6, 6), (7, 11), (12, 12),
    ]


def test_empty_input():
    spec = parse_lex_spec(support.numbers_spec_text())
    result = scan(spec, "")
    assert result.tokens == ()
    assert result.input_length == 0


def test_single_character_single_matcher():
    spec = parse_lex_spec("token A 1 /a/\n")
    result = scan(spec, "a")
    assert _tuples(result) == [(0, "A", "a", 0, 0)]


def test_reserved_words_with_unique_priorities():
    spec = parse_lex_spec(support.RESERVED_SPEC_UNIQUE)
    result = scan(spec, support.RESERVED_INPUT)
    assert _tuples(result) == [
        (0, "IF", "if", 0, 1),
        (1, "WHILE", "while", 3, 7),
        (2, "IDENTIFIER", "foo", 9, 11),
        (3, "BOOLEAN", "true", 13, 16),
    ]


def test_reserved_words_with_shared_priorities_keep_identifier_readings():
    spec = parse_lex_spec(support.RESERVED_SPEC_SHARED)
    result = scan(spec, support.RESERVED_INPUT)
    assert _tuples(result) == [
        (0, "IF", "if", 0, 1),
        (1, "IDENTIFIER", "if", 0, 1),
        (2, "WHILE", "while", 3, 7),
        (3, "IDENTIFIER", "while", 3, 7),
        (4, "IDENTIFIER", "foo", 9, 11),
        (5, "BOOLEAN", "true", 13, 16),
        (6, "IDENTIFIER", "true", 13, 16),
    ]


def test_watermark_blocks_suffix_rematch():
    # "5" at offset 8 sits inside the Integer match "25"; the Integer matcher
    # must not fire again there.
    spec = parse_lex_spec(support.numbers_spec_text())
    result = scan(spec, support.NUMBERS_INPUT)
    assert not any(t.type_name == "Integer" and t.start == 8 for t in result.tokens)
    assert not any(t.type_name == "Integer" and t.start == 11 for t in result.tokens)


def test_tokens_sharing_a_start_share_a_priority():
    cases = [
        (support.numbers_spec_text(), support.NUMBERS_INPUT),
        (support.numbers_spec_text(favored="Real"), support.NUMBERS_INPUT),
        (support.RESERVED_SPEC_SHARED, support.RESERVED_INPUT),
        (support.RESERVED_SPEC_UNIQUE, support.RESERVED_INPUT),
    ]
    for text, input_text in cases:
        spec = parse_lex_spec(text)
        priorities = {d.name: d.priority for d in spec.token_defs}
        result = scan(spec, input_text)
        by_start = {}
        for t in result.tokens:
            by_start.setdefault(t.start, set()).add(priorities[t.type_name])
        assert all(len(p) == 1 for p in by_start.values()), by_start


def test_ignore_dominates_its_position():
    spec = parse_lex_spec("token Word 1 /[a-z]+/\ntoken Blank 2 / /\nignore / +/\n")
    result = scan(spec, "ab cd")
    assert [t.type_name for t in result.tokens] == ["Word", "Word"]
    assert result.ignored == ((2, 2),)


def test_watermark_lowered_by_a_drag():
    # IDENT matches "abc" at 0, then KW's "b" at 1 drags IDENT's watermark
    # down from 2 to 1, so IDENT matches again at 2; that match's watermark
    # keeps it from matching at 3 and 4.
    spec = parse_lex_spec("token KW 1 /b/\ntoken IDENT 2 /[a-z]([a-z][a-z]?)?/\n")
    result = scan(spec, "abcdefgh")
    assert _tuples(result) == [
        (0, "IDENT", "abc", 0, 2),
        (1, "KW", "b", 1, 1),
        (2, "IDENT", "cde", 2, 4),
        (3, "IDENT", "fgh", 5, 7),
    ]
    assert result == scan_oracle(spec, "abcdefgh")


def test_unmatched_characters_are_skipped_and_reported():
    spec = parse_lex_spec(support.numbers_spec_text())
    result = scan(spec, "&z5")
    assert _tuples(result) == [
        (0, "Ampersand", "&", 0, 0),
        (1, "Integer", "5", 2, 2),
    ]
    assert uncovered_spans(result) == [(1, 1)]


def test_uncovered_spans_merge_runs():
    spec = parse_lex_spec("token A 1 /a/\n")
    result = scan(spec, "zzaz")
    assert uncovered_spans(result) == [(0, 1), (3, 3)]


def _uncovered_by_offset(result):
    """Reference: test every offset against every span, then group the runs."""
    spans = [*((t.start, t.end) for t in result.tokens), *result.ignored]
    covered = [any(s <= k <= e for s, e in spans) for k in range(result.input_length)]
    out = []
    for flag, run in groupby(range(result.input_length), key=covered.__getitem__):
        if not flag:
            run = list(run)
            out.append((run[0], run[-1]))
    return out


def test_uncovered_spans_match_a_per_offset_reference():
    rng = random.Random(20261020)
    for _ in range(300):
        tokens = support.random_interval_result(rng, max_tokens=8, field=30).tokens
        ignored = sorted((s, s + rng.randint(0, 4)) for s in rng.sample(range(40), rng.randint(0, 4)))
        length = max([t.end + 1 for t in tokens] + [e + 1 for _, e in ignored] + [rng.randint(0, 45)])
        result = ScanResult(tokens, length, tuple(ignored))
        assert uncovered_spans(result) == _uncovered_by_offset(result), result


def test_scan_matches_oracle_on_fixture_corpus():
    corpus = [
        (support.numbers_spec_text(), support.NUMBERS_INPUT),
        (support.numbers_spec_text(favored="Integer"), support.NUMBERS_INPUT),
        (support.numbers_spec_text(favored="Real"), support.NUMBERS_INPUT),
        (support.RESERVED_SPEC_UNIQUE, support.RESERVED_INPUT),
        (support.RESERVED_SPEC_SHARED, support.RESERVED_INPUT),
        (support.numbers_spec_text(), ""),
        (support.numbers_spec_text(), "&&&"),
        (support.numbers_spec_text(), "12.34.56"),
    ]
    for text, input_text in corpus:
        spec = parse_lex_spec(text)
        assert scan(spec, input_text) == scan_oracle(spec, input_text)


def test_scan_matches_oracle_on_random_cases():
    rng = random.Random(4242)
    for _ in range(60):
        spec = parse_lex_spec(support.random_spec_text(rng))
        text = support.random_input(rng, max_length=80)
        result = scan(spec, text)
        assert result == scan_oracle(spec, text), (spec, text)
        triples = [(t.type_name, t.start, t.end) for t in result.tokens]
        assert len(triples) == len(set(triples))
        assert [t.id for t in result.tokens] == list(range(len(result.tokens)))


# Keyword and identifier patterns that overlap, plus random subset patterns.
_OVERLAPPING_PATTERNS = ("if", "in", "fi", "b", "[a-z]+", "[a-i]+", "i[a-z]*", "[a-z]([a-z][a-z]?)?",
                         "[0-9]+", "[0-9]+\\.[0-9]+", "\\.", "(a|b)*x", "a|ab", "b?a", " ")


@st.composite
def _scan_cases(draw):
    lines = []
    for j in range(draw(st.integers(1, 5))):
        source = draw(st.one_of(st.sampled_from(_OVERLAPPING_PATTERNS),
                                st.randoms(use_true_random=False).map(support.random_pattern)))
        lines.append(f"token T{j} {draw(st.integers(1, 3))} /{source}/")
    for _ in range(draw(st.integers(0, 2))):
        ignore = draw(st.sampled_from(support._IGNORE_POOL))
        lines.insert(draw(st.integers(0, len(lines))), f"ignore /{ignore}/")
    return "\n".join(lines) + "\n", draw(st.text(alphabet="abfinx01.& \t", max_size=40))


@pytest.mark.parametrize("cache_limit", [pattern._DFA_CACHE_LIMIT, 2])
@settings(max_examples=150, deadline=None)
@given(case=_scan_cases())
def test_scan_matches_oracle_on_generated_specs(case, cache_limit):
    spec_text, text = case
    spec = parse_lex_spec(spec_text)
    with mock.patch.object(pattern, "_DFA_CACHE_LIMIT", cache_limit):
        assert scan(spec, text) == scan_oracle(spec, text)
    assert len(spec.automaton._dfa) <= cache_limit


@pytest.mark.parametrize("cache_limit", [pattern._DFA_CACHE_LIMIT, 2])
def test_scan_matches_oracle_on_class_boundaries(monkeypatch, cache_limit):
    # Inputs from each spec's label boundaries, newline, U+10FFFF and astral
    # characters, so that the scan's walks cross every class edge.
    monkeypatch.setattr(pattern, "_DFA_CACHE_LIMIT", cache_limit)
    rng = random.Random(20261022)
    for _ in range(300):
        sources = [rng.choice(support.EDGE_SOURCES) if rng.random() < 0.4 else support.random_pattern(rng)
                   for _ in range(rng.randint(1, 5))]
        token_defs = [TokenDef(f"T{j}", rng.randint(1, 3), source, j) for j, source in enumerate(sources)]
        ignore_defs = [IgnoreDef(rng.choice(support._IGNORE_POOL), len(sources))] if rng.random() < 0.5 else []
        spec = LexSpec(tuple(token_defs), tuple(ignore_defs))
        alphabet = support.boundary_characters(d.compiled for d in (*token_defs, *ignore_defs))
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        assert scan(spec, text) == scan_oracle(spec, text), (sources, text)
        assert len(spec.automaton._dfa) <= cache_limit


def test_scan_matches_oracle_on_unvalidated_priorities():
    # Built without validation, a token may have priority 0, which makes it
    # ignored, or -1, which keeps it a token that goes before ignore patterns.
    spec = LexSpec((TokenDef("A", -1, "a", 0),), (IgnoreDef("[a ]+", 1),))
    assert _tuples(scan(spec, "ab a")) == [(0, "A", "a", 0, 0), (1, "A", "a", 3, 3)]
    rng = random.Random(20261019)
    for _ in range(300):
        sources = [rng.choice(_OVERLAPPING_PATTERNS) if rng.random() < 0.5 else support.random_pattern(rng)
                   for _ in range(rng.randint(1, 5))]
        token_defs = [TokenDef(f"T{j}", rng.choice((-1, 0, 1, 2)), source, j) for j, source in enumerate(sources)]
        ignore_defs = [IgnoreDef(rng.choice(support._IGNORE_POOL), len(sources))] if rng.random() < 0.5 else []
        spec = LexSpec(tuple(token_defs), tuple(ignore_defs))
        text = support.random_input(rng, max_length=40)
        assert scan(spec, text) == scan_oracle(spec, text), (spec, text)


def test_automaton_stays_bounded_on_many_distinct_characters():
    # Every character leads the start state to the dead state: one new state,
    # and no transition per character, since a state keeps one per class.
    spec = parse_lex_spec("token Integer 1 /[0-9]+/\n")
    text = "".join(map(chr, range(0x20000, 0x20000 + 57952)))  # ideographs of plane 2
    assert scan(spec, text) == scan_oracle(spec, text)
    automaton = spec.automaton
    assert len(automaton._dfa) <= pattern._DFA_CACHE_LIMIT
    assert all(len(s.next) <= len(automaton._bounds) + 1 for s in automaton._dfa.values())


def test_one_long_scan_keeps_the_dfa_bounded_across_flushes(monkeypatch):
    # The DFA of (a|b)*a(a|b){12} has 2**13 states, so with a small cache a
    # scan of random a/b text empties the cache many times.  The spaces end
    # the walks, so that many walks start after a flush.
    limit = 32
    monkeypatch.setattr(pattern, "_DFA_CACHE_LIMIT", limit)
    flushes = 0
    alive = []  # live DFA states, counted at each flush
    stale_reads = []  # (state made after flush g, read after flush f) with g < f - 1
    made = weakref.WeakSet()

    class WatchedNext(dict):
        """A state's transitions, recording each read of a state made before the flush before last."""

        def __init__(self, made_after):
            super().__init__()
            self.made_after = made_after

        def get(self, ch, default=None):
            if self.made_after < flushes - 1:
                stale_reads.append((self.made_after, flushes))
            return super().get(ch, default)

    class WatchedState(pattern._DState):
        def __init__(self, *args):
            super().__init__(*args)
            self.next = WatchedNext(flushes)
            made.add(self)

    clear = pattern.Automaton._clear

    def watched_clear(self):
        nonlocal flushes
        clear(self)
        flushes += 1
        gc.collect()
        alive.append(len(made))

    monkeypatch.setattr(pattern, "_DState", WatchedState)
    monkeypatch.setattr(pattern.Automaton, "_clear", watched_clear)
    spec = parse_lex_spec("token A 1 /(a|b)*a" + "(a|b)" * 12 + "/\n")
    rng = random.Random(41)
    text = " ".join("".join(rng.choice("ab") for _ in range(rng.randint(20, 300))) for _ in range(30))
    assert scan(spec, text) == scan_oracle(spec, text)
    assert flushes >= 50
    # Past a flush only the walk in progress holds states of the emptied
    # cache, and there were at most `limit` of them.
    assert max(alive) <= limit, alive
    # Each walk after a flush starts from a fresh start state, and the walk
    # in progress leaves the old states at its next step; so no state made
    # before the flush before last is read again.
    assert not stale_reads, stale_reads[:5]


@pytest.mark.parametrize("cache_limit", [pattern._DFA_CACHE_LIMIT, 2])
def test_scan_matches_oracle_where_long_walks_find_no_match(cache_limit):
    # Specs whose walks run on through long stretches that complete no match,
    # so that the failure memo stops many of them: a*b on a×n, (ab)*c on
    # (ab)×n, [a-z]*; on words, with the terminators late or missing.  From
    # a run of a, (aa)*b fails from every other offset only, so the memo must
    # tell the DFA states at an offset apart.
    rng = random.Random(20261019)
    stretches = ("a" * 40, "a" * 39, "ab" * 20, "abcab", "b", "c", ";", " ", "xyz" * 9, "ba")
    for _ in range(40):
        sources = rng.sample(["a*b", "(ab)*c", "[a-z]*;", "(aa)*b", "a", "ab", "[a-z]", "b|ba"],
                             rng.randint(2, 5))
        lines = [f"token T{j} {rng.randint(1, 3)} /{source}/" for j, source in enumerate(sources)]
        if rng.random() < 0.5:
            lines.insert(rng.randint(0, len(lines)), "ignore / +/")
        spec = parse_lex_spec("\n".join(lines) + "\n")
        text = "".join(rng.choice(stretches) for _ in range(rng.randint(1, 8))) + "a" * rng.randint(0, 30)
        with mock.patch.object(pattern, "_DFA_CACHE_LIMIT", cache_limit):
            assert scan(spec, text) == scan_oracle(spec, text), (lines, text)


# Patterns whose walks reach far, and short ones of other priorities whose
# matches drag the long ones' watermarks, so that the set of live matchers
# changes from position to position while walks run past _MEMO_AFTER.
_LONG_REACHING = ("((.)*)+", "[^ ]+", ".*x")
_DRAGGING = ("[a-c0-3]-.", "\\+", "[a-x]")


def _keyword(rng) -> str:
    return "".join(support._render_literal(rng.choice("ab01x.")) for _ in range(rng.randint(1, 4)))


@pytest.mark.parametrize("cache_limit", [pattern._DFA_CACHE_LIMIT, 2])
def test_scan_matches_oracle_on_long_walks_under_changing_live_sets(monkeypatch, cache_limit):
    monkeypatch.setattr(pattern, "_DFA_CACHE_LIMIT", cache_limit)
    rng = random.Random(20261021)
    cases = []
    for _ in range(200):
        sources = rng.sample(_LONG_REACHING, rng.randint(1, 2)) + rng.sample(_DRAGGING, rng.randint(1, 3))
        rng.shuffle(sources)
        cases.append(sources)
    for _ in range(4):  # specs of 100 or more definitions
        sources = [*_LONG_REACHING, *_DRAGGING]
        sources += [_keyword(rng) if rng.random() < 0.7 else support.random_pattern(rng) for _ in range(rng.randint(94, 120))]
        rng.shuffle(sources)
        cases.append(sources)
    for sources in cases:
        lines = [f"token T{j} {rng.randint(1, 3)} /{source}/" for j, source in enumerate(sources)]
        if len(sources) >= 100 or rng.random() < 0.5:
            lines.insert(rng.randint(0, len(lines)), "ignore / +/")
        spec = parse_lex_spec("\n".join(lines) + "\n")
        text = support.random_input(rng, max_length=300)
        assert scan(spec, text) == scan_oracle(spec, text), (lines, text)
        assert len(spec.automaton._dfa) <= cache_limit


def test_a_walk_stops_where_no_live_matcher_is_alive(monkeypatch):
    # w h×(n-1) is one IDENTIFIER.  From every later offset only the keywords
    # and the ignore pattern are live, and none of them is alive after one
    # character, so each of those walks reads the one transition it takes,
    # though IDENTIFIER is still alive in the state it reaches.
    reads = 0

    class CountedNext(dict):
        def get(self, c, default=None):
            nonlocal reads
            reads += 1
            return super().get(c, default)

    class CountedState(pattern._DState):
        def __init__(self, *args):
            super().__init__(*args)
            self.next = CountedNext()

    monkeypatch.setattr(pattern, "_DState", CountedState)
    spec = parse_lex_spec(support.RESERVED_SPEC_SHARED)
    n = 1000
    text = "w" + "h" * (n - 1)
    assert _tuples(scan(spec, text)) == [(0, "IDENTIFIER", text, 0, n - 1)]
    misses = sum(len(s.next) for s in spec.automaton._dfa.values())  # `step` reads ``next`` once more on each
    assert reads == n + (n - 1) + misses, (reads, misses)


def test_automaton_is_built_by_the_first_scan_and_kept():
    spec = parse_lex_spec(support.numbers_spec_text())
    assert "automaton" not in vars(spec)
    scan(spec, support.NUMBERS_INPUT)
    automaton = spec.automaton
    assert automaton._dfa
    scan(spec, "&1.2&")
    assert spec.automaton is automaton


def test_token_is_an_immutable_hashable_tuple():
    t = Token(3, "Real", "5.2", 1, 3)
    assert t == (3, "Real", "5.2", 1, 3)
    assert hash(t) == hash((3, "Real", "5.2", 1, 3))
    assert repr(t) == "Token(id=3, type_name='Real', text='5.2', start=1, end=3)"
    assert str(t) == 'Real "5.2"@1-3'
    with pytest.raises(AttributeError):
        t.start = 0


def test_token_str_writes_its_text_as_a_json_string():
    # A quote, line break or backslash in the text cannot fake a span or split the line.
    assert str(Token(0, "A", 'a"@0-0\nb\\', 0, 5)) == 'A "a\\"@0-0\\nb\\\\"@0-5'
    assert str(Token(1, "Real", "5.2 é", 1, 5)) == 'Real "5.2 é"@1-5'


def test_scan_is_deterministic(numbers_spec):
    first = scan(numbers_spec, support.NUMBERS_INPUT)
    second = scan(numbers_spec, support.NUMBERS_INPUT)
    assert first == second


def test_render_tokens_text(numbers_scan):
    lines = render_tokens_text(numbers_scan).splitlines()
    assert len(lines) == 12
    assert lines[0] == "0\tAmpersand\t0-0\t&"
    assert lines[8] == "8\tReal\t7-11\t25.20"


def test_scan_oracle_does_not_use_the_scanner_pattern_engine(monkeypatch, numbers_spec):
    expected = scan(numbers_spec, support.NUMBERS_INPUT)

    def refuse(self, text, pos):
        raise AssertionError("scan_oracle called Pattern.match_longest_at")

    monkeypatch.setattr(pattern.Pattern, "match_longest_at", refuse)
    assert scan_oracle(numbers_spec, support.NUMBERS_INPUT) == expected
