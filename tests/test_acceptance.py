"""End-to-end acceptance suite.  Each test exercises one shipping criterion at
its stated tolerance and prints a single PASS/FAIL line (run with ``-s`` to
see them on a green run)."""

import gc
import json
import math
import random
import time
from pathlib import Path

import support
from lamb import (
    build_graph,
    build_graph_oracle,
    enumerate_sequences,
    forest_to_json,
    parse,
    parse_grammar,
    parse_lex_spec,
    scan,
    scan_oracle,
    to_dot,
    to_json,
)
from lamb.scanner import ScanResult, Token


def _report(number, description, ok, detail=""):
    print(f"criterion {number} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number} failed: {description}{detail and ' :: ' + detail}"


def test_criterion_1_token_capture():
    expected = {
        ("Ampersand", "&", 0, 0), ("Integer", "5", 1, 1), ("Real", "5.2", 1, 3),
        ("Point", ".", 2, 2), ("Integer", "2", 3, 3), ("Ampersand", "&", 4, 4),
        ("Slash", "/", 6, 6), ("Integer", "25", 7, 8), ("Real", "25.20", 7, 11),
        ("Point", ".", 9, 9), ("Integer", "20", 10, 11), ("Slash", "/", 12, 12),
    }
    spec = parse_lex_spec(support.numbers_spec_text())
    started = time.perf_counter()
    result = scan(spec, support.NUMBERS_INPUT)
    elapsed = time.perf_counter() - started
    got = {(t.type_name, t.text, t.start, t.end) for t in result.tokens}
    ok = got == expected and len(result.tokens) == 12 and elapsed < 1.0
    _report(1, "shared-priority scan captures exactly the 12 expected tokens", ok,
            f"got {sorted(got)} in {elapsed:.3f}s")


def test_criterion_2_four_sequences():
    spec = parse_lex_spec(support.numbers_spec_text())
    graph = build_graph(scan(spec, support.NUMBERS_INPUT))
    paths, truncated = enumerate_sequences(graph, 1000)
    got = {tuple(graph.tokens[i].type_name for i in path) for path in paths}
    expected = {
        ("Ampersand", "Integer", "Point", "Integer", "Ampersand",
         "Slash", "Integer", "Point", "Integer", "Slash"),
        ("Ampersand", "Integer", "Point", "Integer", "Ampersand", "Slash", "Real", "Slash"),
        ("Ampersand", "Real", "Ampersand", "Slash", "Integer", "Point", "Integer", "Slash"),
        ("Ampersand", "Real", "Ampersand", "Slash", "Real", "Slash"),
    }
    ok = not truncated and len(paths) == 4 and got == expected
    _report(2, "the graph enumerates exactly the 4 possible token sequences", ok, str(got))


def test_criterion_3_priority_collapse():
    integer_first = scan(
        parse_lex_spec(support.numbers_spec_text(favored="Integer")), support.NUMBERS_INPUT
    )
    real_first = scan(
        parse_lex_spec(support.numbers_spec_text(favored="Real")), support.NUMBERS_INPUT
    )
    ok = [t.type_name for t in integer_first.tokens] == [
        "Ampersand", "Integer", "Point", "Integer", "Ampersand",
        "Slash", "Integer", "Point", "Integer", "Slash",
    ] and [t.type_name for t in real_first.tokens] == [
        "Ampersand", "Real", "Ampersand", "Slash", "Real", "Slash",
    ]
    _report(3, "priority collapse reproduces the 10-token and 6-token chains", ok)


def test_criterion_4_context_sensitive_resolution():
    spec = parse_lex_spec(support.numbers_spec_text())
    grammar = parse_grammar(support.NUMBERS_GRAMMAR, spec)
    forest = parse(build_graph(scan(spec, support.NUMBERS_INPUT)), grammar)

    def shape(iid):
        inst = forest.instances[iid]
        if not inst.alternatives:
            return (inst.type_name, inst.text)
        (children,) = inst.alternatives
        return (inst.type_name, tuple(shape(c) for c in children))

    expected = (
        "E",
        (
            ("A", (("Ampersand", "&"), ("Real", "5.2"), ("Ampersand", "&"))),
            ("B", (("Slash", "/"), ("Integer", "25"), ("Point", "."),
                   ("Integer", "20"), ("Slash", "/"))),
        ),
    )
    ok = len(forest.accepted) == 1 and shape(forest.accepted[0]) == expected
    for favored in ("Integer", "Real"):
        collapsed = parse_lex_spec(support.numbers_spec_text(favored=favored))
        chain = parse(build_graph(scan(collapsed, support.NUMBERS_INPUT)), grammar)
        ok = ok and chain.accepted == ()
    _report(4, "grammar resolves the ambiguity to one tree; collapsed chains parse to none", ok)


def test_criterion_5_reserved_words():
    unique = scan(parse_lex_spec(support.RESERVED_SPEC_UNIQUE), support.RESERVED_INPUT)
    ok = [(t.type_name, t.start, t.end) for t in unique.tokens] == [
        ("IF", 0, 1), ("WHILE", 3, 7), ("IDENTIFIER", 9, 11), ("BOOLEAN", 13, 16),
    ]
    shared = scan(parse_lex_spec(support.RESERVED_SPEC_SHARED), support.RESERVED_INPUT)
    shared_graph = build_graph(shared)
    paths, truncated = enumerate_sequences(shared_graph, 1000)
    identifier_overlaps = {
        (t.start, t.end) for t in shared.tokens if t.type_name == "IDENTIFIER"
    }
    keyword_spans = {
        (t.start, t.end) for t in shared.tokens if t.type_name in ("IF", "WHILE", "BOOLEAN")
    }
    ok = ok and len(shared.tokens) == 7 and not truncated and len(paths) == 8
    ok = ok and keyword_spans <= identifier_overlaps
    _report(5, "reserved words: unique priorities give the 4-token chain, shared give 7 tokens / 8 sequences", ok,
            f"shared tokens={len(shared.tokens)} sequences={len(paths)}")


def test_criterion_6_oracle_equivalence():
    rng = random.Random(0xA11CE)
    scan_divergences = 0
    for _ in range(500):
        spec = parse_lex_spec(support.random_spec_text(rng))
        text = support.random_input(rng, max_length=200)
        if scan(spec, text) != scan_oracle(spec, text):
            scan_divergences += 1
    graph_divergences = 0
    for _ in range(500):
        result = support.random_interval_result(rng, max_tokens=40)
        graph = build_graph(result)
        oracle = build_graph_oracle(result)
        if (graph.following, graph.start_set) != (oracle.following, oracle.start_set):
            graph_divergences += 1
    ok = scan_divergences == 0 and graph_divergences == 0
    _report(6, "500 random scans and 500 random interval sets match their oracles", ok,
            f"scan={scan_divergences} graph={graph_divergences}")


def test_criterion_7_parser_completeness():
    rng = random.Random(0xBEEF)
    divergences = 0
    for _ in range(100):
        result, grammar = support.random_parse_case(rng)
        graph = build_graph(result)
        forest = parse(graph, grammar)
        if support.forest_accepted_trees(forest) != support.brute_accepted_trees(graph, grammar):
            divergences += 1
    _report(7, "100 random small cases: chart parse equals brute-force enumeration",
            divergences == 0, f"divergences={divergences}")


def _best_times(runs: dict, rounds: int = 5, repeats: int = 1) -> dict:
    """The best time of each run of ``runs`` over ``rounds`` rounds, each of
    ``repeats`` calls.  The collector is off while timing, as in timeit: a
    full collection scans every object in the process, so its cost follows
    the test runner's heap.  The runs alternate, so that all see the same
    load on the machine."""
    best = dict.fromkeys(runs, math.inf)
    gc.disable()
    try:
        for _ in range(rounds):
            for key, run in runs.items():
                t0 = time.perf_counter()
                for _ in range(repeats):
                    run()
                best[key] = min(best[key], time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


def _growth(best: dict) -> tuple[float, str]:
    """The ratio of the larger run's best time to the smaller's, and a line that shows both."""
    small, large = best.values()
    ratio = large / max(small, 1e-9)
    return ratio, f"x{ratio:.2f} ({small:.4f}s -> {large:.4f}s)"


def test_criterion_8_complexity_smoke():
    spec = parse_lex_spec(support.numbers_spec_text())
    base = "&5.2& /25.20/ "

    def scan_chars(n):
        text = (base * (n // len(base) + 1))[:n]
        return lambda: scan(spec, text)

    def chain(count):
        toks = tuple(Token(i, "T", "xx", 3 * i, 3 * i + 1) for i in range(count))
        result = ScanResult(toks, 3 * count, ())
        return lambda: build_graph(result)

    scan_ratio, scan_detail = _growth(_best_times({n: scan_chars(n) for n in (10_000, 20_000)}))
    # The graph build is short, so each round repeats it.
    graph_ratio, graph_detail = _growth(_best_times({n: chain(n) for n in (2_000, 4_000)}, repeats=20))
    ok = scan_ratio <= 5.0 and graph_ratio <= 5.0
    _report(8, "doubling input grows scan and graph build by at most 5x", ok,
            f"scan {scan_detail}, graph {graph_detail}")


_STARS_TEXT = ("aaab ab b aaaa " * 4)[:50]


def _load_and_scan_stars(count):
    """Load a spec of one pattern of ``count`` ``a*`` then ``b``, plus ``/a/``, and scan 50 characters."""
    return scan(parse_lex_spec(f"token A 1 /{'a*' * count}b/\ntoken B 2 /a/\n"), _STARS_TEXT)


def test_criterion_8_spec_of_4000_stars_loads_and_scans():
    t0 = time.perf_counter()
    result = _load_and_scan_stars(4000)
    elapsed = time.perf_counter() - t0
    # (a*){n}b is the language a*b for every n >= 1, so the tokens are those of /a*b/.
    expected = scan_oracle(parse_lex_spec("token A 1 /a*b/\ntoken B 2 /a/\n"), _STARS_TEXT)
    ok = result.tokens == expected.tokens and len(result.tokens) == 22 and elapsed < 2.0
    _report(8, "a pattern of 4,000 a* loads and scans 50 characters in under 2 s, with the oracle's tokens",
            ok, f"{elapsed:.3f}s, {len(result.tokens)} tokens")


def test_criterion_8_spec_load_growth():
    ratio, detail = _growth(_best_times({count: lambda count=count: _load_and_scan_stars(count)
                                         for count in (1000, 4000)}))
    _report(8, "spec load plus scan grows by at most 8x from 1,000 to 4,000 a*", ratio <= 8.0, detail)


_UNFINISHED_RUN = 1_200  # a×n at n and 4n: 1 s or more when the scan is quadratic here, ms when linear


def test_criterion_8_scan_is_linear_on_walks_that_find_no_match():
    # From every offset of a×n, /a*b/ reads on to the end of the text and
    # never matches; the failure memo stops each walk after a few characters.
    # Under /a+/ the one token a+ covers the whole text, so from every later
    # offset only /a*b/ is live, while /a+/ accepts at every character.
    for short in ("a", "a+"):
        spec = parse_lex_spec(f"token A 1 /a*b/\ntoken B 2 /{short}/\n")
        texts = ["a" * n for n in (_UNFINISHED_RUN, 4 * _UNFINISHED_RUN)]
        ratio, detail = _growth(_best_times({len(text): lambda text=text: scan(spec, text) for text in texts}))
        _report(8, f"a*b plus {short} on a×n: 4x the input grows the scan by at most 6.25x (2.5x per doubling)",
                ratio <= 6.25, detail)


_RESERVED_SPEC = (Path(__file__).resolve().parents[1] / "samples" / "reserved.lamb").read_text()


def test_criterion_8_scan_is_linear_on_one_long_identifier():
    # Under the reserved-word sample, w h×(n-1) is one IDENTIFIER.  From every
    # later offset only the keywords and the ignore pattern are live, and no
    # walk of theirs gets past one character; a walk that ran on through the
    # identifier's states would read to the end from every offset.
    spec = parse_lex_spec(_RESERVED_SPEC)
    texts = {n: "w" + "h" * (n - 1) for n in (2_000, 8_000)}
    for n, text in texts.items():
        assert scan(spec, text).tokens == (Token(0, "IDENTIFIER", text, 0, n - 1),)
    ratio, detail = _growth(_best_times({n: lambda text=text: scan(spec, text) for n, text in texts.items()}))
    _report(8, "one identifier of n characters among keywords: 4x the input grows the scan by at most 6.25x",
            ratio <= 6.25, detail)


def test_criterion_8_scan_per_token_does_not_grow_with_the_definitions():
    # Under m definitions /a/ of one priority, every offset of a×300 gives m
    # tokens, each of which joins the first one's watermark.  4x the
    # definitions is 4x the tokens; a scan that paid per token for every
    # definition would grow 16x.
    text = "a" * 300
    specs = {m: parse_lex_spec("".join(f"token T{j} 1 /a/\n" for j in range(m))) for m in (50, 200)}
    for m, spec in specs.items():
        assert len(scan(spec, text).tokens) == m * 300
    ratio, detail = _growth(_best_times({m: lambda spec=spec: scan(spec, text) for m, spec in specs.items()}))
    _report(8, "m definitions of /a/ on a×300: 4x the definitions grows the scan by at most 6.25x",
            ratio <= 6.25, detail)


def _keywords_and_words(count):
    """A spec of ``count`` literal keywords, ``/[a-z]+/`` and ignored spaces,
    and 4,000 words for it, 30% of them keywords."""
    rng = random.Random(count)

    def word():
        return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(3, 9)))

    keywords = set()
    while len(keywords) < count:
        keywords.add(word())
    keywords = sorted(keywords)
    spec = parse_lex_spec("".join(f"token K{j} 1 /{w}/\n" for j, w in enumerate(keywords))
                          + "token IDENTIFIER 1 /[a-z]+/\nignore / +/\n")
    return spec, " ".join(rng.choice(keywords) if rng.random() < 0.3 else word() for _ in range(4000))


def test_criterion_8_scan_per_character_grows_slowly_with_the_keywords():
    cases = {count: _keywords_and_words(count) for count in (64, 1024)}
    for spec, text in cases.values():
        scan(spec, text)  # builds the DFA states the timed scans read
    best = _best_times({count: lambda spec=spec, text=text: scan(spec, text)
                        for count, (spec, text) in cases.items()})
    per_char = {count: best[count] / len(text) for count, (_, text) in cases.items()}
    ratio = per_char[1024] / per_char[64]
    _report(8, "64 to 1,024 keywords grows the warm scan per character by at most 3x", ratio <= 3.0,
            f"x{ratio:.2f} ({per_char[64] * 1e6:.2f} -> {per_char[1024] * 1e6:.2f} µs per character)")


def test_criterion_8_scan_fixed_cost_does_not_grow_with_the_definitions():
    # K keywords /kNx/, /[a-z]+/ and ignored spaces: 64 and 4,096 definitions.
    # A warm scan of "ab" reads two characters, so its time is the fixed cost
    # of a call; a scan that built a table per matcher on each call would
    # grow with the definitions.
    specs = {count: parse_lex_spec("".join(f"token K{j} 1 /k{j}x/\n" for j in range(count - 2))
                                   + "token IDENTIFIER 1 /[a-z]+/\nignore / +/\n")
             for count in (64, 4096)}
    for spec in specs.values():
        assert scan(spec, "ab").tokens == (Token(0, "IDENTIFIER", "ab", 0, 1),)  # and warms the spec
    ratio, detail = _growth(_best_times({count: lambda spec=spec: scan(spec, "ab") for count, spec in specs.items()},
                                        repeats=300))
    _report(8, "64 to 4,096 definitions grows the fixed cost of a warm scan by at most 3x", ratio <= 3.0, detail)


def test_criterion_8_scan_per_character_does_not_grow_with_a_priority_ladder():
    # A ladder of R rungs, ``token Tj <j+1> /[a-z]+/``, plus ignored spaces:
    # every rung accepts at every letter of a word, and the one token T0
    # drags all the other rungs past the word.  A walk that carried each
    # accepting rung, or an accept loop that passed over each, would grow
    # with R.  Both ladders scan the same text, so the time ratio is the
    # ratio per character.
    rng = random.Random(2026)
    text = " ".join("".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(3, 9)))
                    for _ in range(4000))
    specs = {rungs: parse_lex_spec("".join(f"token T{j} {j + 1} /[a-z]+/\n" for j in range(rungs))
                                   + "ignore / +/\n")
             for rungs in (64, 1024)}
    for spec in specs.values():
        assert len(scan(spec, text).tokens) == 4000  # and builds the DFA states the timed scans read
    ratio, detail = _growth(_best_times({rungs: lambda spec=spec: scan(spec, text) for rungs, spec in specs.items()}))
    _report(8, "a ladder of 64 to 1,024 priorities grows the warm scan per character by at most 2x",
            ratio <= 2.0, detail)


def test_criterion_10_packed_ambiguity():
    spec = parse_lex_spec("token x 1 /x/\n")
    grammar = parse_grammar("E ::= E E | x\n", spec)

    def parse_x(count):
        graph = build_graph(scan(spec, "x" * count))
        return lambda: parse(graph, grammar)

    ratio, detail = _growth(_best_times({count: parse_x(count) for count in (50, 100)}, rounds=7))
    wrong = [
        n for n in range(3, 31)
        if json.loads(forest_to_json(parse_x(n)()))["trees"] != math.comb(2 * n - 2, n - 1) // n
    ]
    ok = ratio <= 10.0 and not wrong
    _report(10, "E ::= E E | x: 50 to 100 tokens grows parse by at most 10x; Catalan(n-1) trees for n = 3..30",
            ok, f"parse {detail}, wrong tree counts at n = {wrong}")


def test_criterion_9_serialization_stability():
    spec = parse_lex_spec(support.numbers_spec_text())
    jsons = set()
    dots = set()
    for _ in range(10):
        graph = build_graph(scan(spec, support.NUMBERS_INPUT))
        jsons.add(to_json(graph))
        dots.add(to_dot(graph))
    ok = len(jsons) == 1 and len(dots) == 1
    _report(9, "JSON and DOT renderings are byte-identical across 10 runs", ok)
