import copy
import inspect
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from lamb import (
    Grammar,
    GrammarRule,
    IgnoreDef,
    LexSpec,
    SpecError,
    TokenDef,
    parse_grammar,
    parse_lex_spec,
    render_lex_spec,
    scan,
    validate,
)
import lamb
from lamb import pattern


def test_parses_numbers_spec():
    spec = parse_lex_spec(support.numbers_spec_text())
    assert [d.name for d in spec.token_defs] == [
        "Integer", "Real", "Point", "Slash", "Ampersand",
    ]
    assert all(d.priority == 1 for d in spec.token_defs)
    assert [d.ordinal for d in spec.token_defs] == [0, 1, 2, 3, 4]
    assert len(spec.ignore_defs) == 1
    assert spec.ignore_defs[0].pattern_source == " +"
    assert spec.ignore_defs[0].ordinal == 5


def test_comments_and_blank_lines_are_skipped():
    text = "# heading\n\ntoken A 1 /a/\n  # indented comment\ntoken B 2 /b/ # trailing\n"
    spec = parse_lex_spec(text)
    assert [d.name for d in spec.token_defs] == ["A", "B"]
    assert [d.ordinal for d in spec.token_defs] == [0, 1]
    assert [d.line for d in spec.token_defs] == [3, 5]


def test_hash_inside_pattern_is_not_a_comment():
    spec = parse_lex_spec("token Hash 1 /#+/\n")
    assert spec.token_defs[0].pattern_source == "#+"


def test_escaped_slash_inside_pattern():
    spec = parse_lex_spec(r"token Slash 1 /\//" + "\n")
    assert spec.token_defs[0].pattern_source == r"\/"


def test_lines_end_only_at_newline_and_carriage_return():
    others = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # str.splitlines() also breaks at these
    spec = parse_lex_spec(f"token A 1 /a{others}/\r\ntoken B 1 /b/\rtoken C 1 /c/\n")
    assert spec.token_defs[0].pattern_source == "a" + others
    assert [d.line for d in spec.token_defs] == [1, 2, 3]


@pytest.mark.parametrize("blank", ["\x1c", "\x85", "\u3000"])  # each one str.split() breaks at
def test_spec_fields_are_separated_by_spaces_and_tabs_only(blank):
    for text, needle in [
        (f"token A{blank}1 /a/\n", "expected 'token NAME PRIORITY /REGEX/'"),
        (f"token{blank}B 2 /b/\n", "unrecognized directive"),
        (f"ignore{blank}/ +/\n", "unrecognized directive"),
        (f"token B 2 /b/{blank}\n", "unexpected text after pattern"),
        (f"{blank}token B 2 /b/\n", "unrecognized directive"),
    ]:
        with pytest.raises(SpecError) as excinfo:
            parse_lex_spec(text)
        assert excinfo.value.line == 1 and needle in excinfo.value.message, text
    spec = parse_lex_spec("\ttoken\tA \t1\t/a/\t# c \nignore\t/ +/\t\n")
    assert spec == parse_lex_spec("token A 1 /a/\nignore / +/\n")


@pytest.mark.parametrize(
    "text,line,needle",
    [
        ("", 1, "no token definitions"),
        ("ignore / +/\n", 1, "no token definitions"),
        ("token A 1 /a/\ntoken A 1 /b/\n", 2, "duplicate token name"),
        ("token A 0 /a/\n", 1, ">= 1"),
        ("token A -3 /a/\n", 1, ">= 1"),
        ("token A x /a/\n", 1, "integer"),
        ("token 9A 1 /a/\n", 1, "bad token name"),
        ("token A 1 /(a/\n", 1, "bad pattern"),
        ("token A 1 /a\n", 1, "unterminated"),
        ("token A 1 //\n", 1, "empty pattern"),
        ("token A 1 /a/ extra\n", 1, "unexpected text"),
        ("token A 1\n", 1, "expected"),
        ("frobnicate /a/\n", 1, "unrecognized directive"),
        ("token A 1 /a/\nignore\n", 2, "expected"),
        # a syntax error anywhere is reported before a semantic error
        ("token 9A 1 /a/\ntoken B 1 /b/\ntoken C 1 /c\n", 3, "unterminated"),
        # otherwise the earliest definition wins, ignores included
        ("token A 1 /a/\nignore /(/\ntoken A 1 /b/\n", 2, "bad pattern"),
        ("ignore /(/\n", 1, "bad pattern"),
        ("token A 1 /a/\ntoken B 1 /b/\ntoken A 1 /c/\n", 3, "(first defined on line 1)"),
        # priorities are ASCII decimal integers, not whatever int() accepts
        ("token A -1 /a/\n", 1, "priority must be >= 1, got -1"),
        ("token A \u0661 /a/\n", 1, "priority must be an integer"),
        ("token A 1_0 /a/\n", 1, "priority must be an integer"),
        ("token A +1 /a/\n", 1, "priority must be an integer"),
        # more digits than int() converts
        pytest.param("token A " + "1" * 5000 + " /a/\n", 1, "priority too long: 5000 characters",
                     id="priority-of-5000-digits"),
        # a form feed ends no line
        ("# comment\fmore\ntoken A x /a/\n", 2, "priority must be an integer"),
    ],
)
def test_spec_errors_carry_line_numbers(text, line, needle):
    with pytest.raises(SpecError) as excinfo:
        parse_lex_spec(text)
    assert excinfo.value.line == line
    assert needle in excinfo.value.message


def test_parse_is_deterministic():
    text = support.numbers_spec_text()
    assert parse_lex_spec(text) == parse_lex_spec(text)


def test_render_round_trip():
    spec = parse_lex_spec(support.numbers_spec_text())
    assert parse_lex_spec(render_lex_spec(spec)) == spec


def test_render_round_trip_with_interleaved_ignores():
    text = "ignore /\\t+/\ntoken A 1 /a(b|c)*/\nignore / +/\ntoken B 2 /[^a]+/\n"
    spec = parse_lex_spec(text)
    rendered = render_lex_spec(spec)
    assert parse_lex_spec(rendered) == spec
    assert rendered == text  # already canonical


def test_grammar_basic(numbers_spec):
    grammar = parse_grammar(support.NUMBERS_GRAMMAR, numbers_spec)
    assert grammar.start_symbol == "E"
    assert [r.lhs for r in grammar.rules] == ["E", "A", "B"]
    assert grammar.rules[1].rhs == ("Ampersand", "Real", "Ampersand")


def test_grammar_start_directive(numbers_spec):
    grammar = parse_grammar("start B\nE ::= A B\nA ::= Real\nB ::= Integer\n", numbers_spec)
    assert grammar.start_symbol == "B"


def test_grammar_alternatives_expand_in_order(numbers_spec):
    grammar = parse_grammar("E ::= Real | Integer Point Integer\n", numbers_spec)
    assert [r.rhs for r in grammar.rules] == [("Real",), ("Integer", "Point", "Integer")]
    assert all(r.lhs == "E" for r in grammar.rules)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("A ::= B\nB ::= A\n", "unit-production cycle"),
        ("E ::= Foo\n", "undefined symbol"),
        ("E ::= \n", "empty rhs"),
        ("E ::= Real |\n", "empty rhs"),
        ("Integer ::= Real\n", "collides"),
        ("start Q\nE ::= Real\n", "start symbol"),
        ("start A\nstart B\nA ::= Real\nB ::= Real\n", "duplicate start"),
        ("", "no grammar rules"),
        ("E = Real\n", "expected"),
        ("9E ::= Real\n", "bad rule name"),
        ("E ::= Real 9x\n", "bad symbol"),
    ],
)
def test_grammar_errors(numbers_spec, text, needle):
    with pytest.raises(SpecError) as excinfo:
        parse_grammar(text, numbers_spec)
    assert needle in excinfo.value.message


@pytest.mark.parametrize(
    "text,line,needle",
    [
        ("E ::= Real\nE ::= Real |\n", 2, "empty rhs"),
        # a syntax error anywhere is reported before a semantic error
        ("E ::= Foo\nA ::= Real\nB = Real\n", 3, "expected"),
        ("E ::= Foo\nA ::= Real\nB ::= Real 9x\n", 3, "bad symbol"),
        # otherwise the earliest rule wins
        ("E ::= A\nA ::= Foo\nA ::= Real |\n", 2, "undefined symbol"),
        # the start directive's own line
        ("E ::= Real\n\n\nstart Q\n", 4, "start symbol 'Q' has no rule"),
        # a form feed ends no line
        ("# comment\fmore\nE ::= Real |\n", 2, "empty rhs"),
    ],
)
def test_grammar_errors_carry_line_numbers(numbers_spec, text, line, needle):
    with pytest.raises(SpecError) as excinfo:
        parse_grammar(text, numbers_spec)
    assert excinfo.value.line == line
    assert needle in excinfo.value.message


def test_grammar_comments_allowed(numbers_spec):
    grammar = parse_grammar("# comment\nE ::= Real # trailing\n", numbers_spec)
    assert grammar.rules[0].rhs == ("Real",)


@pytest.mark.parametrize("blank", ["\x1c", "\x85", "\u3000"])  # each one str.split() breaks at
def test_grammar_fields_are_separated_by_spaces_and_tabs_only(numbers_spec, blank):
    for text, needle in [
        (f"E ::= Real{blank}Real\n", "bad symbol"),
        (f"E ::= Real{blank}\n", "bad symbol"),
        (f"E{blank}::= Real\n", "bad rule name"),
        (f"start{blank}E\nE ::= Real\n", "expected 'LHS ::= SYM SYM ...'"),
    ]:
        with pytest.raises(SpecError) as excinfo:
            parse_grammar(text, numbers_spec)
        assert excinfo.value.line == 1 and needle in excinfo.value.message, text
    grammar = parse_grammar("\tstart\tE\t\nE\t::=\tReal \tInteger\t|\tPoint\t# c\n", numbers_spec)
    assert grammar == parse_grammar("start E\nE ::= Real Integer | Point\n", numbers_spec)


def test_validate_ok(numbers_spec):
    grammar = parse_grammar(support.NUMBERS_GRAMMAR, numbers_spec)
    assert validate(numbers_spec, grammar) == []
    assert validate(numbers_spec) == []


def test_validate_reports_everything_at_once():
    spec = LexSpec(
        (
            TokenDef("A", 0, "a", 0, line=1),      # bad priority
            TokenDef("A", 1, "(b", 1, line=2),     # duplicate name, bad pattern
        ),
        (IgnoreDef("[", 2, line=3),),              # bad pattern
    )
    messages = [d.message for d in validate(spec)]
    assert len(messages) == 4
    assert any(">= 1" in m for m in messages)
    assert any("duplicate" in m for m in messages)
    assert sum("bad pattern" in m for m in messages) == 2


def test_validate_lists_spec_problems_in_definition_order():
    spec = LexSpec(
        (
            TokenDef("A", 1, "a", 0, line=1),
            TokenDef("A", 0, "b", 2, line=3),
            TokenDef("A", 1, "c", 3, line=4),
        ),
        (IgnoreDef("(", 1, line=2),),
    )
    diags = validate(spec)
    assert [d.line for d in diags] == [2, 3, 3, 4]
    assert diags[0].message.startswith("bad pattern: ")
    assert [d.message for d in diags[1:]] == [
        "priority must be >= 1, got 0",
        "duplicate token name 'A' (first defined on line 1)",
        "duplicate token name 'A' (first defined on line 1)",
    ]
    no_tokens = validate(LexSpec((), (IgnoreDef("(", 0, line=1),)))
    assert [d.message.split(":")[0] for d in no_tokens] == ["bad pattern", "no token definitions"]


def test_validate_programmatic_grammar():
    spec = LexSpec((TokenDef("X", 1, "x", 0, line=1),), ())
    grammar = Grammar((GrammarRule("S", ("X",), line=1),), "Nope")
    diags = validate(spec, grammar)
    assert len(diags) == 1
    assert "start symbol" in diags[0].message
    assert diags[0].line >= 1


def test_each_pattern_compiles_once_per_spec(monkeypatch):
    calls = []
    real_compile = pattern.compile

    def counting_compile(source):
        calls.append(source)
        return real_compile(source)

    monkeypatch.setattr(pattern, "compile", counting_compile)
    spec = parse_lex_spec(support.numbers_spec_text())
    for _ in range(3):
        scan(spec, support.NUMBERS_INPUT)
    assert len(calls) == 6  # five tokens and one ignore pattern
    hand_built = LexSpec((TokenDef("X", 1, "x", 0),), ())
    for _ in range(3):
        scan(hand_built, "xx")
    assert calls[6:] == ["x"]


def test_scanned_spec_pickles_and_copies():
    # A scan of 3,000 a's builds a chain of 3,000 DFA states, which the spec
    # keeps with its automaton and its matcher tables; copies leave both out.
    spec = parse_lex_spec("token A 1 /" + "a" * 3000 + "/\n")
    assert "matchers" not in vars(spec)  # built by the first scan, not by the load
    assert "automaton" not in vars(spec)
    text = "a" * 3000
    scanned = scan(spec, text)
    assert "matchers" in vars(spec)
    for copied in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec), copy.copy(spec)):
        assert copied == spec and "automaton" not in vars(copied) and "matchers" not in vars(copied)
        assert scan(copied, text) == scanned
    assert "automaton" in vars(spec)


def _unit_chain(length: int, last: str) -> str:
    return "".join(f"N{k} ::= N{k + 1}\n" for k in range(length - 1)) + f"N{length - 1} ::= {last}\n"


def test_long_unit_rule_chain_without_cycle(numbers_spec):
    grammar = parse_grammar(_unit_chain(3000, "Real"), numbers_spec)
    assert len(grammar.rules) == 3000


def test_long_unit_rule_chain_closed_into_a_cycle(numbers_spec):
    with pytest.raises(SpecError) as excinfo:
        parse_grammar(_unit_chain(3000, "N0"), numbers_spec)
    cycle = " -> ".join(f"N{k}" for k in range(3000))
    assert excinfo.value.line == 1
    assert excinfo.value.message == f"unit-production cycle: {cycle} -> N0"


# Line generators for the fuzz tests below.  Valid pieces outnumber broken
# ones, so that enough drawn files (about one in seven) are accepted for the
# accepted branch to be exercised too.
_SPEC_LINES = st.one_of(
    st.builds(
        "token {} {} {}".format,
        st.sampled_from(["A", "B", "C", "_b1", "A", "B", "9A"]),
        st.sampled_from(["1", "2", "+1", "01", "1", "2", "0", "x"]),
        st.sampled_from(["/a/", "/[0-9]+/", "/a|b/", r"/\//", "/a/ # c", "/b*a/", "/[^a]/", "/(a/", "/a", "/a/ x"]),
    ),
    st.builds("ignore {}".format, st.sampled_from(["/ +/", "/\\t+/", "/ +/", "/(a/", ""])),
    st.sampled_from(["", "# comment", "token", "token A 1 /a/", "frobnicate /a/"]),
)

_GRAMMAR_SYMBOLS = st.sampled_from(["Real", "Real", "Integer", "Point", "E", "S", "Foo", "9x"])
_GRAMMAR_LINES = st.one_of(
    st.builds(
        "{} ::= {}".format,
        st.sampled_from(["E", "E", "S", "S", "Real", "9E"]),
        st.lists(st.lists(_GRAMMAR_SYMBOLS, min_size=1, max_size=3).map(" ".join), min_size=1, max_size=3)
        .map(" | ".join),
    ),
    st.sampled_from(["", "# comment", "start E", "start S", "start", "start 9E", "E = Real", "E ::= Real |"]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_SPEC_LINES, max_size=4).map("\n".join))
def test_fuzzed_specs_raise_only_spec_error_and_accepted_ones_validate(text):
    try:
        spec = parse_lex_spec(text)
    except SpecError:
        return
    assert validate(spec) == []
    assert parse_lex_spec(render_lex_spec(spec)) == spec


@settings(max_examples=200, deadline=None)
@given(text=st.lists(_GRAMMAR_LINES, max_size=4).map("\n".join))
def test_fuzzed_grammars_raise_only_spec_error_and_accepted_ones_validate(numbers_spec, text):
    try:
        grammar = parse_grammar(text, numbers_spec)
    except SpecError:
        return
    assert validate(numbers_spec, grammar) == []


def test_all_public_names_are_exported_and_resolve():
    public = {name for name, value in vars(lamb).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(lamb.__all__)
    for name in lamb.__all__:
        assert getattr(lamb, name) is not None
