import random

import support
from lamb import parse_lex_spec, pattern, scan, scan_oracle, uncovered_spans
from lamb.scanner import render_tokens_text

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
