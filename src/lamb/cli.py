"""Command-line front end: spec -> scan -> graph -> sequences or parse.

Exit codes: 0 on success (for ``parse``, at least one accepted tree), 2 when
``parse`` finds no valid sentence, 1 for spec/grammar/IO/usage errors and for
``--oracle-check`` divergences.  Diagnostics go to stderr, payload to stdout.

The argument parser is built once per process, on the first `run`, and
reused by every later call: ``parse_args`` leaves the parser unchanged and
returns a fresh namespace each time.  Each call runs one argument parse: an
argv that starts with a command name goes straight to that command's parser,
which is the one the top-level parser would hand it to; any other argv (none,
an unknown command, ``-h``) goes to the top-level parser.

Compiled specs and grammars are kept per process too, keyed by the contents
of their files, up to ``_MEMO_SIZE`` of each, least recently used dropped
first.  Files are still read on every call, so an edited file is loaded
afresh; a file that fails to load is never kept.  A kept spec keeps its
automaton, with the DFA states earlier scans built; those only ever equal
states a fresh automaton would build, so no output depends on earlier calls.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import Decimal
from functools import cache, lru_cache

from . import lexgraph, oracles, parser, scanner, spec_io

__all__ = ["main", "run"]


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for the parse contract
        raise _UsageError(message)


@cache
def _build_cli() -> _ArgumentParser:
    top = _ArgumentParser(prog="lamb", description="Ambiguity-aware lexical analysis")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, formats):
        p.add_argument("--spec", required=True, help="lexical spec file")
        p.add_argument("--input", required=True, help="input file, or - for stdin")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument(
            "--oracle-check",
            action="store_true",
            help="cross-check scan and graph against the reference implementations",
        )

    common(sub.add_parser("scan", help="list all tokens / emit the token graph"),
           ("text", "json", "dot"))
    seq = sub.add_parser("sequences", help="enumerate the possible token sequences")
    common(seq, ("text", "json"))
    seq.add_argument("--limit", type=int, default=1000, help="sequence cap (default 1000)")
    par = sub.add_parser("parse", help="parse the token graph against a grammar")
    common(par, ("text", "json", "dot"))
    par.add_argument("--grammar", required=True, help="grammar file")
    top.commands = sub.choices  # command name -> its parser
    return top


_MEMO_SIZE = 32  # compiled specs, and grammars, kept per process


@lru_cache(maxsize=_MEMO_SIZE)
def _load_spec(text: str) -> spec_io.LexSpec:
    return spec_io.parse_lex_spec(text)


@lru_cache(maxsize=_MEMO_SIZE)
def _load_grammar(text: str, spec_text: str) -> spec_io.Grammar:
    """Keyed by the spec's text as well: a grammar is checked against its spec."""
    return spec_io.parse_grammar(text, _load_spec(spec_text))


def _read(path: str) -> str:
    """The file's or stdin's bytes as UTF-8, line endings kept, so that token
    offsets count the same characters whichever way the input arrives."""
    if path == "-":
        if sys.stdin is None:  # Python's stdin when file descriptor 0 is closed
            raise OSError("-: stdin is closed")
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as f:
            data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:  # reported like any other unreadable file
        raise OSError(f"{path}: not valid UTF-8 at byte {exc.start}") from exc


def _warn(message: str) -> None:
    print(f"lamb: warning: {message}", file=sys.stderr)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``_build_cli().parse_args(argv)`` in one parse: an argv that starts
    with a command name goes to that command's parser alone."""
    cli = _build_cli()
    command = cli.commands.get(argv[0]) if argv else None
    if command is None:
        return cli.parse_args(argv)
    args = command.parse_args(argv[1:])
    args.command = argv[0]
    return args


def run(argv: list[str]) -> int:
    try:
        args = _parse_args(argv)
        if args.command == "sequences" and args.limit < 1:
            raise _UsageError("--limit must be >= 1")
        if [args.spec, args.input, getattr(args, "grammar", None)].count("-") > 1:
            raise _UsageError("only one of --spec, --grammar and --input can be - (stdin)")
        spec_text = _read(args.spec)
        spec = _load_spec(spec_text)
        grammar = None
        if args.command == "parse":
            grammar = _load_grammar(_read(args.grammar), spec_text)
        text = _read(args.input)
    except (_UsageError, OSError, spec_io.SpecError) as exc:
        print(f"lamb: error: {exc}", file=sys.stderr)
        return 1

    result = scanner.scan(spec, text)
    gaps = scanner.uncovered_spans(result)
    if gaps:
        where = ", ".join(f"{a}-{b}" for a, b in gaps)
        _warn(f"unconsumed input at {where}")
    graph = lexgraph.build_graph(result)

    status = 0
    if args.command == "scan":
        if args.format == "text":
            sys.stdout.write(scanner.render_tokens_text(result))
        elif args.format == "json":
            print(lexgraph.to_json(graph))
        else:
            sys.stdout.write(lexgraph.to_dot(graph))
    elif args.command == "sequences":
        paths, truncated = lexgraph.enumerate_sequences(graph, args.limit)
        if truncated:
            # A Decimal writes every digit of a count too long for str().
            total = Decimal(lexgraph.count_sequences(graph))
            _warn(f"sequence list truncated at {args.limit} of {total}")
        if args.format == "text":
            for path in paths:
                print(" ".join(graph.tokens[i].type_name for i in path))
        else:
            payload = {
                "sequences": [
                    {"ids": path, "types": [graph.tokens[i].type_name for i in path]}
                    for path in paths
                ],
                "truncated": truncated,
            }
            print(json.dumps(payload, ensure_ascii=False, separators=(",", ":")))
    else:  # parse
        forest = parser.parse(graph, grammar)
        if args.format == "text":
            sys.stdout.write(parser.render_trees(forest))
        elif args.format == "json":
            print(parser.forest_to_json(forest))
        else:
            sys.stdout.write(parser.forest_to_dot(forest))
        if not forest.accepted:
            print("lamb: no valid sentence", file=sys.stderr)
            status = 2

    if args.oracle_check:
        problems = []
        if oracles.scan_oracle(spec, text) != result:
            problems.append("scan disagrees with scan_oracle")
        edges = oracles.build_graph_oracle(result)
        if (edges.following, edges.start_set) != (graph.following, graph.start_set):
            problems.append("build_graph disagrees with build_graph_oracle")
        if problems:
            for p in problems:
                print(f"lamb: oracle divergence: {p}", file=sys.stderr)
            return 1
    return status


def main() -> None:
    if sys.stdout is None:  # Python's stdout when file descriptor 1 is closed
        sys.exit("lamb: error: stdout is closed")
    try:
        status = run(sys.argv[1:])
        sys.stdout.flush()  # a reader that closed stdout shows here at the latest
    except BrokenPipeError:  # as the Python docs advise: stdout to devnull, so the flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit("lamb: error: stdout is closed")
    sys.exit(status)


if __name__ == "__main__":
    main()
