import io
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import lamb
import support
from lamb import cli, lexgraph, oracles
from lamb.cli import run

SAMPLES = Path(__file__).resolve().parents[1] / "samples"


@pytest.fixture
def files(tmp_path):
    spec = tmp_path / "numbers.lamb"
    spec.write_text(support.numbers_spec_text(), encoding="utf-8")
    grammar = tmp_path / "numbers.grammar"
    grammar.write_text(support.NUMBERS_GRAMMAR, encoding="utf-8")
    source = tmp_path / "numbers.txt"
    source.write_text(support.NUMBERS_INPUT, encoding="utf-8")
    return {"spec": str(spec), "grammar": str(grammar), "input": str(source), "dir": tmp_path}


def test_scan_text(files, capsys):
    code = run(["scan", "--spec", files["spec"], "--input", files["input"]])
    out, err = capsys.readouterr()
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 12
    assert lines[0] == "0\tAmpersand\t0-0\t&"
    assert err == ""


def test_scan_json(files, capsys):
    code = run(["scan", "--spec", files["spec"], "--input", files["input"], "--format", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    payload = json.loads(out)
    assert payload["input_length"] == 13
    assert len(payload["tokens"]) == 12
    assert payload["start"] == [0]


def test_scan_dot(files, capsys):
    code = run(["scan", "--spec", files["spec"], "--input", files["input"], "--format", "dot"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.startswith("digraph lexgraph {")


def test_sequences_text(files, capsys):
    code = run(["sequences", "--spec", files["spec"], "--input", files["input"]])
    out, err = capsys.readouterr()
    assert code == 0
    assert out.splitlines() == [
        "Ampersand Integer Point Integer Ampersand Slash Integer Point Integer Slash",
        "Ampersand Integer Point Integer Ampersand Slash Real Slash",
        "Ampersand Real Ampersand Slash Integer Point Integer Slash",
        "Ampersand Real Ampersand Slash Real Slash",
    ]
    assert err == ""


def test_sequences_limit_warns_when_truncated(files, capsys):
    code = run(["sequences", "--spec", files["spec"], "--input", files["input"], "--limit", "2"])
    out, err = capsys.readouterr()
    assert code == 0
    assert len(out.splitlines()) == 2
    assert err == "lamb: warning: sequence list truncated at 2 of 4\n"


def test_truncation_warning_states_a_total_of_any_length(files, capsys):
    spec = files["dir"] / "wide.lamb"
    spec.write_text("token F 1 /b/\ntoken X 1 /a/\ntoken Y 1 /a/\nignore / +/\n", encoding="utf-8")
    source = files["dir"] / "wide.txt"
    source.write_text("b" + " a" * 14400, encoding="utf-8")  # X or Y at each of 14400 places
    code = run(["sequences", "--spec", str(spec), "--input", str(source), "--limit", "1"])
    out, err = capsys.readouterr()
    assert code == 0
    assert out == "F" + " X" * 14400 + "\n"
    # str() of an int this long raises; Decimal() of an int is exact.
    assert err == f"lamb: warning: sequence list truncated at 1 of {Decimal(2 ** 14400)}\n"


def test_limit_past_sys_maxsize_lists_every_sequence(files, capsys):
    argv = ["sequences", "--spec", files["spec"], "--input", files["input"]]
    assert run(argv) == 0
    every, _ = capsys.readouterr()
    assert len(every.splitlines()) == 4
    for limit in (sys.maxsize, 10 ** 30):
        assert run([*argv, "--limit", str(limit)]) == 0
        assert capsys.readouterr() == (every, "")


def test_bad_limit_is_rejected_before_the_input_is_scanned(files, capsys):
    gappy = files["dir"] / "gappy.txt"
    gappy.write_text("&5.2& ?? /25.20/", encoding="utf-8")
    code = run(["sequences", "--spec", files["spec"], "--input", str(gappy), "--limit", "0"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "lamb: error: --limit must be >= 1\n"


def test_sequences_json(files, capsys):
    code = run([
        "sequences", "--spec", files["spec"], "--input", files["input"], "--format", "json",
    ])
    out, _ = capsys.readouterr()
    payload = json.loads(out)
    assert code == 0
    assert payload["truncated"] is False
    assert len(payload["sequences"]) == 4
    assert payload["sequences"][3]["types"] == ["Ampersand", "Real", "Ampersand", "Slash", "Real", "Slash"]


def test_parse_accepts(files, capsys):
    code = run([
        "parse", "--spec", files["spec"], "--grammar", files["grammar"],
        "--input", files["input"],
    ])
    out, err = capsys.readouterr()
    assert code == 0
    assert out.startswith("E [0-12]\n")
    assert err == ""


def test_parse_rejects_collapsed_spec(files, capsys):
    collapsed = files["dir"] / "collapsed.lamb"
    collapsed.write_text(support.numbers_spec_text(favored="Integer"), encoding="utf-8")
    code = run([
        "parse", "--spec", str(collapsed), "--grammar", files["grammar"],
        "--input", files["input"],
    ])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "no valid sentence" in err


def test_missing_spec_file(files, capsys):
    code = run(["scan", "--spec", str(files["dir"] / "absent.lamb"), "--input", files["input"]])
    _, err = capsys.readouterr()
    assert code == 1
    assert "error" in err


def test_bad_spec_reports_line(files, capsys):
    bad = files["dir"] / "bad.lamb"
    bad.write_text("token A 0 /a/\n", encoding="utf-8")
    code = run(["scan", "--spec", str(bad), "--input", files["input"]])
    _, err = capsys.readouterr()
    assert code == 1
    assert "line 1" in err


def test_bad_grammar_fails(files, capsys):
    bad = files["dir"] / "bad.grammar"
    bad.write_text("E ::= Nope\n", encoding="utf-8")
    code = run([
        "parse", "--spec", files["spec"], "--grammar", str(bad), "--input", files["input"],
    ])
    _, err = capsys.readouterr()
    assert code == 1
    assert "undefined symbol" in err


def test_parse_requires_grammar_flag(files, capsys):
    code = run(["parse", "--spec", files["spec"], "--input", files["input"]])
    _, err = capsys.readouterr()
    assert code == 1
    assert "--grammar" in err


def test_dot_format_is_invalid_for_sequences(files, capsys):
    code = run([
        "sequences", "--spec", files["spec"], "--input", files["input"], "--format", "dot",
    ])
    _, err = capsys.readouterr()
    assert code == 1
    assert "invalid choice" in err


def test_stdin_input(files, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(support.NUMBERS_INPUT.encode())))
    code = run(["sequences", "--spec", files["spec"], "--input", "-"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert len(out.splitlines()) == 4


def test_file_and_stdin_give_the_same_offsets(files, capsys, monkeypatch):
    # Line endings are kept and stdin is read as UTF-8 whatever its text
    # encoding: offsets count the same characters either way.
    spec = files["dir"] / "words.lamb"
    spec.write_text("token W 1 /[^ ]+/\nignore /[ \\n]+/\n", encoding="utf-8")
    data = "ab\r\ncé".encode()
    source = files["dir"] / "crlf.txt"
    source.write_bytes(data)
    outputs = []
    for path in (str(source), "-"):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="latin-1"))
        assert run(["scan", "--format", "json", "--spec", str(spec), "--input", path]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["input_length"] == 6
    assert [(t["start"], t["end"]) for t in payload["tokens"]] == [(0, 5), (4, 5)]


def test_stdin_that_is_not_utf8_is_an_error(files, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"&5\xff"), encoding="latin-1"))
    code = run(["scan", "--spec", files["spec"], "--input", "-"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "lamb: error: -: not valid UTF-8 at byte 2\n"


@pytest.mark.parametrize("stdin_flag", ["--input", "--spec", "--grammar"])
def test_closed_stdin_is_an_error(files, capsys, monkeypatch, stdin_flag):
    # With file descriptor 0 closed, Python starts with sys.stdin set to None.
    monkeypatch.setattr("sys.stdin", None)
    argv = ["parse", "--spec", files["spec"], "--grammar", files["grammar"], "--input", files["input"]]
    argv[argv.index(stdin_flag) + 1] = "-"
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "lamb: error: -: stdin is closed\n"


@pytest.mark.parametrize("stdin_flags", [("--spec", "--input"), ("--spec", "--grammar"),
                                         ("--grammar", "--input"), ("--spec", "--grammar", "--input")])
def test_stdin_for_more_than_one_file_is_an_error(files, capsys, monkeypatch, stdin_flags):
    stdin = io.BytesIO(support.numbers_spec_text().encode())
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(stdin))
    paths = {flag: "-" if flag in stdin_flags else files[flag[2:]] for flag in ("--spec", "--grammar", "--input")}
    command = "parse" if "--grammar" in stdin_flags else "scan"
    if command == "scan":
        del paths["--grammar"]
    code = run([command, *(arg for pair in paths.items() for arg in pair)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "lamb: error: only one of --spec, --grammar and --input can be - (stdin)\n"
    assert stdin.tell() == 0  # nothing was read


def test_unconsumed_input_warning(files, capsys):
    weird = files["dir"] / "weird.txt"
    weird.write_text("&z5", encoding="utf-8")
    code = run(["scan", "--spec", files["spec"], "--input", str(weird)])
    out, err = capsys.readouterr()
    assert code == 0
    assert "unconsumed input at 1-1" in err
    assert len(out.splitlines()) == 2


def test_oracle_check_keeps_payload_and_exit_code(files, capsys):
    plain = run(["scan", "--spec", files["spec"], "--input", files["input"]])
    plain_out, _ = capsys.readouterr()
    checked = run([
        "scan", "--spec", files["spec"], "--input", files["input"], "--oracle-check",
    ])
    checked_out, _ = capsys.readouterr()
    assert plain == checked == 0
    assert plain_out == checked_out


@pytest.mark.parametrize("oracle, cut, problem", [
    ("build_graph_oracle", lambda edges: edges._replace(following=((), *edges.following[1:])),
     "build_graph disagrees with build_graph_oracle"),
    ("build_graph_oracle", lambda edges: edges._replace(start_set=()),
     "build_graph disagrees with build_graph_oracle"),
    ("scan_oracle", lambda result: lamb.ScanResult(result.tokens[:-1], result.input_length, result.ignored),
     "scan disagrees with scan_oracle"),
], ids=["edge-cut", "start-set-changed", "scan-token-dropped"])
def test_oracle_check_reports_a_divergence(files, capsys, monkeypatch, oracle, cut, problem):
    reference = getattr(oracles, oracle)
    monkeypatch.setattr(oracles, oracle, lambda *args: cut(reference(*args)))
    code = run(["scan", "--spec", files["spec"], "--input", files["input"], "--oracle-check"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out.startswith("0\tAmpersand\t0-0\t&\n")  # the payload is written first
    assert err == f"lamb: oracle divergence: {problem}\n"


@pytest.mark.parametrize("command", [
    ["parse", "--grammar", "{grammar}"],
    ["scan", "--format", "text"],
    ["scan", "--format", "json"],
    ["scan", "--format", "dot"],
    ["sequences", "--format", "text"],
    ["sequences", "--format", "json"],
    ["sequences", "--limit", "1"],  # truncated: the warning counts every sequence
], ids=["parse", "scan-text", "scan-json", "scan-dot", "sequences-text", "sequences-json",
        "sequences-count"])
def test_command_leaves_the_edges_uncomputed(files, capsys, monkeypatch, command):
    graphs = []
    build = lexgraph.build_graph

    def recording(result):
        graphs.append(build(result))
        return graphs[-1]

    monkeypatch.setattr(lexgraph, "build_graph", recording)
    argv = [arg.format(**files) for arg in command]
    assert run([*argv, "--spec", files["spec"], "--input", files["input"]]) == 0
    capsys.readouterr()
    [graph] = graphs
    assert not {"following", "start_set"} & vars(graph).keys()
    assert graph.following[0] == (1, 2) and "following" in vars(graph)  # kept once read


@pytest.mark.parametrize("fmt, closed", [("text", "reader"), ("json", "reader"), ("json", "descriptor")])
def test_closed_stdout_is_an_error(files, fmt, closed):
    # Either the pipe's reader is gone before lamb starts, so every write to
    # it fails, or file descriptor 1 is closed and Python's sys.stdout is None.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(lamb.__file__).parents[1])}
    try:
        done = subprocess.run([sys.executable, "-m", "lamb.cli", "scan", "--format", fmt,
                               "--spec", files["spec"], "--input", files["input"]],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
                              preexec_fn=(lambda: os.close(1)) if closed == "descriptor" else None)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "lamb: error: stdout is closed\n")


def test_outputs_are_byte_stable(files, capsys):
    outputs = set()
    for _ in range(3):
        assert run([
            "scan", "--spec", files["spec"], "--input", files["input"], "--format", "json",
        ]) == 0
        out, _ = capsys.readouterr()
        outputs.add(out)
    assert len(outputs) == 1


def test_calls_in_one_process_match_fresh_processes(files, capsys):
    common = ["--spec", files["spec"], "--input", files["input"]]
    calls = [
        ["parse", *common],  # usage error: no --grammar
        ["scan", *common, "--format", "json"],
        ["sequences", *common, "--limit", "2"],
        ["parse", *common, "--grammar", files["grammar"], "--format", "dot"],
        ["scan", *common, "--format", "json"],
        # Defaults that the calls above set otherwise.
        ["scan", *common],
        ["sequences", *common],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(lamb.__file__).parents[1])}
    for argv in calls:
        code = run(argv)
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "lamb.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert cli._build_cli() is cli._build_cli()  # one argument parser per process


@pytest.mark.parametrize("flag", ["--input", "--spec", "--grammar"])
def test_file_that_is_not_utf8_is_an_error(files, capsys, flag):
    bad = files["dir"] / "bad.bin"
    bad.write_bytes(b"\xff\xfe&5")
    paths = {"--spec": files["spec"], "--grammar": files["grammar"], "--input": files["input"]}
    paths[flag] = str(bad)
    code = run(["parse", *(arg for pair in paths.items() for arg in pair)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == f"lamb: error: {bad}: not valid UTF-8 at byte 0\n"


def test_parse_rule_past_the_last_token_exits_2(files, capsys):
    spec = files["dir"] / "a.lamb"
    spec.write_text("token A 1 /a/\nignore / +/\n", encoding="utf-8")
    grammar = files["dir"] / "a.grammar"
    grammar.write_text("S ::= A A\n", encoding="utf-8")
    source = files["dir"] / "a.txt"
    source.write_text("a   ", encoding="utf-8")
    code = run(["parse", "--spec", str(spec), "--grammar", str(grammar), "--input", str(source)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "no valid sentence" in err


def test_text_formats_escape_token_texts(files, capsys):
    # A line break, tab, quote or backslash in a token's text is written as
    # in a JSON string, so each token stays on one line and reads back.  DEL
    # needs no escape in JSON and prints as it is.  U+0085, U+2028 and U+2029
    # need none either, but `str.splitlines` breaks lines at them: they are
    # escaped too.
    spec = files["dir"] / "any.lamb"
    spec.write_text("token A 1 /[^x]+/\n", encoding="utf-8")
    grammar = files["dir"] / "any.grammar"
    grammar.write_text("S ::= A\n", encoding="utf-8")
    source = files["dir"] / "any.txt"
    text = 'a\n\t"\\b\x7f\x85\u2028\u2029'
    source.write_bytes(text.encode("utf-8"))
    assert run(["scan", "--spec", str(spec), "--input", str(source)]) == 0
    out, _ = capsys.readouterr()
    assert out == '0\tA\t0-9\ta\\n\\t\\"\\\\b\x7f\\u0085\\u2028\\u2029\n'
    assert out.count("\n") == len(out.splitlines())
    field = out.rstrip("\n").split("\t")[3]
    assert json.loads(f'"{field}"') == text
    assert run(["parse", "--spec", str(spec), "--grammar", str(grammar), "--input", str(source)]) == 0
    out, _ = capsys.readouterr()
    assert out == 'S [0-9]\n  A "a\\n\\t\\"\\\\b\x7f\\u0085\\u2028\\u2029" [0-9]\n'
    assert out.count("\n") == len(out.splitlines())


def test_dot_labels_write_token_texts_as_json_strings(files, capsys):
    # In both DOT outputs a token's label holds its text as a JSON string,
    # U+2028 escaped too, then DOT-escaped.
    spec = files["dir"] / "any.lamb"
    spec.write_text("token A 1 /[^x]+/\n", encoding="utf-8")
    grammar = files["dir"] / "any.grammar"
    grammar.write_text("S ::= A\n", encoding="utf-8")
    source = files["dir"] / "any.txt"
    source.write_bytes('a\n\t"\\b\u2028'.encode("utf-8"))
    label = r'label="A\n\"a\\n\\t\\\"\\\\b\\u2028\"@0-6"'
    assert run(["scan", "--format", "dot", "--spec", str(spec), "--input", str(source)]) == 0
    out, _ = capsys.readouterr()
    assert f"  n0 [{label}, shape=doublecircle];\n" in out
    assert out.count("\n") == len(out.splitlines())
    assert run(["parse", "--format", "dot", "--spec", str(spec), "--grammar", str(grammar), "--input", str(source)]) == 0
    out, _ = capsys.readouterr()
    assert f"  i0 [{label}];\n" in out
    assert out.count("\n") == len(out.splitlines())


def test_deeply_nested_pattern_scans(files, capsys):
    spec = files["dir"] / "deep.lamb"
    spec.write_text("token A 1 /" + "(" * 3000 + "a" + ")" * 3000 + "/\n", encoding="utf-8")
    source = files["dir"] / "a.txt"
    source.write_text("aa", encoding="utf-8")
    code = run(["scan", "--spec", str(spec), "--input", str(source)])
    out, err = capsys.readouterr()
    assert code == 0
    assert out == "0\tA\t0-0\ta\n1\tA\t1-1\ta\n"
    assert err == ""


def test_priority_of_more_digits_than_int_converts_is_an_error(files, capsys):
    spec = files["dir"] / "long.lamb"
    spec.write_text("token A " + "1" * 5000 + " /a/\n", encoding="utf-8")
    code = run(["scan", "--spec", str(spec), "--input", files["input"]])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "lamb: error: line 1: priority too long: 5000 characters\n"


def test_deeply_nested_bad_pattern_is_an_error(files, capsys):
    spec = files["dir"] / "deep.lamb"
    spec.write_text("token A 1 /" + "(" * 3000 + "a" + ")" * 2999 + "/\n", encoding="utf-8")
    code = run(["scan", "--spec", str(spec), "--input", files["input"]])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("lamb: error: line 1: bad pattern: unbalanced group in pattern '((")
    assert err.endswith("' at position 0\n")


def _sample_calls(files):
    """Every command, format and ``--oracle-check`` setting on both samples."""
    reserved_input = files["dir"] / "reserved.txt"
    reserved_input.write_text("if while foo true\n", encoding="utf-8")
    reserved_grammar = files["dir"] / "reserved.grammar"
    reserved_grammar.write_text("S ::= IF WHILE IDENTIFIER BOOLEAN\n", encoding="utf-8")
    samples = [(SAMPLES / "numbers.lamb", SAMPLES / "numbers.grammar", SAMPLES / "numbers.txt"),
               (SAMPLES / "reserved.lamb", reserved_grammar, reserved_input)]
    commands = [("scan", ("text", "json", "dot")), ("sequences", ("text", "json")),
                ("parse", ("text", "json", "dot"))]
    for spec, grammar, source in samples:
        for command, formats in commands:
            for fmt in formats:
                for check in ([], ["--oracle-check"]):
                    argv = [command, "--spec", str(spec), "--input", str(source), "--format", fmt, *check]
                    yield argv + ["--grammar", str(grammar)] if command == "parse" else argv


def test_cold_and_warm_calls_give_the_same_bytes(files, capsys):
    for argv in _sample_calls(files):
        cli._load_spec.cache_clear()
        cli._load_grammar.cache_clear()
        outputs = []
        for _ in range(2):
            code = run(argv)
            out, err = capsys.readouterr()
            outputs.append((code, out, err))
        assert outputs[0] == outputs[1], argv
        assert outputs[0][0] == 0 and outputs[0][1], argv
        assert cli._load_spec.cache_info().misses == 1, argv  # the second call reused the spec


def test_rewritten_spec_is_loaded_afresh(files, capsys):
    spec = files["dir"] / "words.lamb"
    source = files["dir"] / "ab.txt"
    source.write_text("ab", encoding="utf-8")
    outputs = []
    for text in ("token A 1 /a/\ntoken B 1 /b/\n", "token W 1 /ab/\n"):
        spec.write_text(text, encoding="utf-8")
        assert run(["scan", "--spec", str(spec), "--input", str(source)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs == ["0\tA\t0-0\ta\n1\tB\t1-1\tb\n", "0\tW\t0-1\tab\n"]


def test_spec_and_grammar_errors_are_reported_on_every_call(files, capsys):
    bad_spec = files["dir"] / "bad.lamb"
    bad_spec.write_text("token A 0 /a/\n", encoding="utf-8")
    bad_grammar = files["dir"] / "bad.grammar"
    bad_grammar.write_text("E ::= Nope\n", encoding="utf-8")
    cases = [
        (["scan", "--spec", str(bad_spec), "--input", files["input"]], cli._load_spec,
         "lamb: error: line 1: priority must be >= 1, got 0\n"),
        (["parse", "--spec", files["spec"], "--grammar", str(bad_grammar), "--input", files["input"]],
         cli._load_grammar, "lamb: error: line 1: undefined symbol 'Nope'\n"),
    ]
    for argv, memo, message in cases:
        misses = memo.cache_info().misses
        for _ in range(3):
            assert run(argv) == 1
            assert capsys.readouterr() == ("", message)
        assert memo.cache_info().misses == misses + 3  # a failed load is never kept


def test_grammar_is_checked_against_each_spec(files, capsys):
    without_real = files["dir"] / "no-real.lamb"
    without_real.write_text(support.numbers_spec_text().replace("token Real", "# token Real"),
                            encoding="utf-8")
    results = []
    for spec in (files["spec"], str(without_real), files["spec"]):
        code = run(["parse", "--spec", spec, "--grammar", files["grammar"], "--input", files["input"]])
        results.append((code, capsys.readouterr().err))
    assert results == [(0, ""), (1, "lamb: error: line 2: undefined symbol 'Real'\n"), (0, "")]


def test_memo_keeps_at_most_its_bound(files, capsys):
    spec = files["dir"] / "a.lamb"
    grammar = files["dir"] / "a.grammar"
    source = files["dir"] / "a.txt"
    source.write_text("a", encoding="utf-8")
    for n in range(cli._MEMO_SIZE + 3):
        spec.write_text(f"token A{n} 1 /a/\n", encoding="utf-8")
        grammar.write_text(f"S ::= A{n}\n", encoding="utf-8")
        assert run(["parse", "--spec", str(spec), "--grammar", str(grammar), "--input", str(source)]) == 0
        assert capsys.readouterr().out == f"S [0-0]\n  A{n} \"a\" [0-0]\n"
    assert cli._load_spec.cache_info().currsize == cli._MEMO_SIZE
    assert cli._load_grammar.cache_info().currsize == cli._MEMO_SIZE


def test_memo_keeps_each_grammar_with_its_item_chains(files, capsys):
    cli._load_grammar.cache_clear()
    argv = ["parse", "--spec", files["spec"], "--grammar", files["grammar"], "--input", files["input"]]
    outputs = []
    for _ in range(2):
        outputs.append((run(argv), *capsys.readouterr()))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
    info = cli._load_grammar.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    spec_text = Path(files["spec"]).read_text(encoding="utf-8")
    kept = cli._load_grammar(support.NUMBERS_GRAMMAR, spec_text)
    assert cli._load_grammar.cache_info().hits == 2
    assert "item_chains" in vars(kept)
    fresh = lamb.parse_grammar(support.NUMBERS_GRAMMAR, lamb.parse_lex_spec(spec_text))
    assert kept == fresh and hash(kept) == hash(fresh)


def _usage_corpus(files):
    """Argument lists, valid and not, that reach the argument parser."""
    spec, grammar, source = files["spec"], files["grammar"], files["input"]
    common = ["--spec", spec, "--input", source]
    return [
        [], ["bogus", *common], ["pars", *common], ["--spec", spec, "scan"],
        ["scan", *common], ["sequences", *common, "--limit", "2"],
        ["parse", *common, "--grammar", grammar, "--format", "json", "--oracle-check"],
        ["parse", *common],  # no --grammar
        ["scan"], ["parse", *common, "--grammar"],
        ["parse", *common, "--grammar", grammar, "--format", "bad"],
        ["sequences", *common, "--format", "dot"],
        ["parse", "--spe", spec, "--input", source, "--gram", grammar],  # abbreviations
        ["scan", f"--spec={spec}", f"--input={source}"],
        ["scan", *common, "extra"], ["scan", *common, "--nope"],
        ["sequences", *common, "--limit", "x"], ["sequences", *common, "--limit", "0"],
        ["scan", *common, "--format", "json", "--format", "dot"],  # the last one wins
        ["scan", "--", *common], ["scan", *common, "--"], ["scan", *common, "--", "x"],
    ]


def _namespace_or_message(parse_args, argv):
    try:
        return parse_args(argv)
    except cli._UsageError as exc:
        return str(exc)


def test_one_argument_parse_matches_the_top_level_parser(files, capsys):
    reference = cli._build_cli().parse_args  # argparse handing argv to a subparser
    for argv in _usage_corpus(files):
        ours = _namespace_or_message(cli._parse_args, argv)
        assert ours == _namespace_or_message(reference, argv), argv
        if isinstance(ours, str):
            assert run(argv) == 1, argv
            assert capsys.readouterr() == ("", f"lamb: error: {ours}\n"), argv


def test_help_matches_the_top_level_parser():
    env = {**os.environ, "PYTHONPATH": str(Path(lamb.__file__).parents[1])}
    reference = "import sys; from lamb import cli; cli._build_cli().parse_args(sys.argv[1:])"
    for argv in (["-h"], ["parse", "-h"], ["sequences", "--help"]):
        ours = subprocess.run([sys.executable, "-m", "lamb.cli", *argv],
                              capture_output=True, text=True, env=env)
        theirs = subprocess.run([sys.executable, "-c", reference, *argv],
                                capture_output=True, text=True, env=env)
        assert ours.returncode == 0 and ours.stdout.startswith("usage: lamb"), argv
        assert (ours.returncode, ours.stdout, ours.stderr) == (
            theirs.returncode, theirs.stdout, theirs.stderr), argv
