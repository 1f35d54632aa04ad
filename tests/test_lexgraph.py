import json
import random

import pytest

import support
from lamb import (
    LexGraph,
    build_graph,
    build_graph_oracle,
    enumerate_sequences,
    graph_from_json,
    to_dot,
    to_json,
)
from lamb.lexgraph import count_sequences
from lamb.scanner import ScanResult, Token

# Edge list for the numbers example, frozen from the triple-loop oracle.
EXPECTED_NUMBERS_EDGES = [
    (0, 1), (0, 2), (1, 3), (2, 5), (3, 4), (4, 5), (5, 6),
    (6, 7), (6, 8), (7, 9), (8, 11), (9, 10), (10, 11),
]


def _edges(graph):
    return [(a, b) for a in range(len(graph.tokens)) for b in graph.following[a]]


def _views(graph):
    """The graph's edges, comparable with `build_graph_oracle`'s triple: the
    ``following`` and ``start_set`` views, and the ``preceding`` lists that
    `to_json` writes."""
    preceding = tuple(tuple(rec["preceding"]) for rec in json.loads(to_json(graph))["tokens"])
    return graph.following, preceding, graph.start_set


def _intervals(spans, type_name="T"):
    toks = tuple(
        Token(i, type_name, "x" * (e - s + 1), s, e) for i, (s, e) in enumerate(spans)
    )
    length = max((t.end + 1 for t in toks), default=0)
    return ScanResult(toks, length, ())


def test_numbers_graph_edges(numbers_graph):
    assert _edges(numbers_graph) == EXPECTED_NUMBERS_EDGES
    assert numbers_graph.following[0] == (1, 2)
    assert numbers_graph.following[6] == (7, 8)
    assert numbers_graph.following[8] == (11,)
    assert numbers_graph.following[11] == ()
    assert numbers_graph.start_set == (0,)


def test_numbers_graph_equals_oracle(numbers_scan, numbers_graph):
    oracle = build_graph_oracle(numbers_scan)
    assert oracle == _views(numbers_graph) and _views(numbers_graph) == oracle
    assert (oracle.following, oracle.preceding, oracle.start_set) == _views(numbers_graph)
    # The comparison sees one cut edge, in any of the three views.
    cuts = (
        oracle._replace(following=(oracle.following[0][1:], *oracle.following[1:])),
        oracle._replace(preceding=(*oracle.preceding[:-1], oracle.preceding[-1][1:])),
        oracle._replace(start_set=()),
    )
    for cut in cuts:
        assert cut != _views(numbers_graph) and _views(numbers_graph) != cut
    # Graph equality compares tokens and input length; the edges follow from them.
    assert build_graph(numbers_scan) == numbers_graph
    assert LexGraph(numbers_scan.tokens, numbers_scan.input_length + 1) != numbers_graph
    assert LexGraph(numbers_scan.tokens[:-1], numbers_scan.input_length) != numbers_graph


def test_preceding_is_exact_inverse(numbers_graph):
    following, preceding, _ = _views(numbers_graph)
    for a in range(len(numbers_graph.tokens)):
        for b in following[a]:
            assert a in preceding[b]
    for b in range(len(numbers_graph.tokens)):
        for a in preceding[b]:
            assert b in following[a]


def test_empty_token_list():
    graph = build_graph(_intervals([]))
    assert graph.tokens == ()
    assert graph.start_set == ()


def test_single_token():
    graph = build_graph(_intervals([(3, 5)]))
    assert graph.start_set == (0,)
    assert graph.following == ((),)


def test_overlapping_spans_never_link():
    graph = build_graph(_intervals([(0, 1), (0, 3)]))
    assert _edges(graph) == []
    assert graph.start_set == (0, 1)


def test_gap_does_not_block_adjacency():
    graph = build_graph(_intervals([(0, 1), (5, 6)]))
    assert _edges(graph) == [(0, 1)]


def test_nested_long_token_does_not_hide_inner_blocker():
    # A@[2,10] must not link to D@[25,26]: C@[20,22] sits strictly between,
    # even though B@[3,21] (linked to D first under a naive minimum-tracking
    # cursor) overlaps everything.
    graph = build_graph(_intervals([(2, 10), (3, 21), (20, 22), (25, 26)]))
    oracle = build_graph_oracle(_intervals([(2, 10), (3, 21), (20, 22), (25, 26)]))
    assert _views(graph) == oracle
    assert graph.following == ((2,), (3,), (3,), ())


def test_build_graph_requires_start_order():
    out_of_order = (Token(0, "T", "xx", 5, 6), Token(1, "T", "x", 0, 0))
    misnumbered = (Token(1, "T", "x", 0, 0), Token(0, "T", "xx", 5, 6))
    for build in (build_graph, build_graph_oracle):
        for toks in (out_of_order, misnumbered):
            with pytest.raises(ValueError):
                build(ScanResult(toks, 7, ()))


def test_random_interval_sets_match_oracle():
    rng = random.Random(1337)
    for _ in range(80):
        result = support.random_interval_result(rng)
        fast = build_graph(result)
        slow = build_graph_oracle(result)
        assert _views(fast) == slow
        for a in range(len(fast.tokens)):
            for b in fast.following[a]:
                assert fast.tokens[a].end < fast.tokens[b].start


def test_no_edge_skips_over_a_chained_token():
    rng = random.Random(7)
    for _ in range(30):
        g = build_graph(support.random_interval_result(rng, max_tokens=15, field=20))
        for a in range(len(g.tokens)):
            for b in g.following[a]:
                for c in g.following[a]:
                    if c == b:
                        continue
                    # if a->c and c->b both hold, c sits strictly between, so
                    # a->b would contradict the adjacency definition
                    assert b not in g.following[c]


def test_sequences_for_numbers_example(numbers_graph):
    paths, truncated = enumerate_sequences(numbers_graph, 1000)
    assert not truncated
    assert paths == [
        [0, 1, 3, 4, 5, 6, 7, 9, 10, 11],
        [0, 1, 3, 4, 5, 6, 8, 11],
        [0, 2, 5, 6, 7, 9, 10, 11],
        [0, 2, 5, 6, 8, 11],
    ]
    names = [
        " ".join(numbers_graph.tokens[i].type_name for i in path) for path in paths
    ]
    assert names == [
        "Ampersand Integer Point Integer Ampersand Slash Integer Point Integer Slash",
        "Ampersand Integer Point Integer Ampersand Slash Real Slash",
        "Ampersand Real Ampersand Slash Integer Point Integer Slash",
        "Ampersand Real Ampersand Slash Real Slash",
    ]


def test_sequences_linear_chain():
    graph = build_graph(_intervals([(0, 0), (1, 1), (2, 2)]))
    paths, truncated = enumerate_sequences(graph, 10)
    assert paths == [[0, 1, 2]]
    assert not truncated


def test_sequences_empty_graph():
    graph = build_graph(_intervals([]))
    assert enumerate_sequences(graph, 5) == ([], False)


def test_count_sequences_matches_enumeration(numbers_graph):
    assert count_sequences(numbers_graph) == 4
    assert count_sequences(build_graph(_intervals([]))) == 0
    rng = random.Random(4)
    for _ in range(200):
        graph = build_graph(support.random_interval_result(rng, max_tokens=20, field=30))
        paths, truncated = enumerate_sequences(graph, 100_000)
        assert not truncated and count_sequences(graph) == len(paths)


def _count_over_oracle(result):
    """Maximal paths counted edge by edge over `build_graph_oracle`'s lists,
    with no window read: a successor starts after its predecessor ends, so
    its id is larger."""
    following, _, start_set = build_graph_oracle(result)
    paths = [0] * len(following)
    for a in reversed(range(len(following))):
        paths[a] = sum(paths[b] for b in following[a]) if following[a] else 1
    return sum(paths[s] for s in start_set)


def _copies(result, copies):
    """Each token of ``result`` ``copies`` times, under as many type names,
    so that runs of tokens share one span: dense windows, one end each."""
    tokens = tuple(Token(i, f"{t.type_name}.{c}", t.text, t.start, t.end)
                   for i, (t, c) in enumerate((t, c) for t in result.tokens for c in range(copies)))
    return ScanResult(tokens, result.input_length, ())


def test_count_sequences_matches_a_count_over_the_oracle_edges():
    rng = random.Random(26)
    for _ in range(150):
        result = _copies(support.random_interval_result(rng, max_tokens=12, field=24), rng.randint(1, 4))
        assert count_sequences(build_graph(result)) == _count_over_oracle(result)
    # a×n under d definitions /a/: every token follows all d at the offset before, d**n paths.
    for n, d in ((1, 1), (1, 5), (6, 1), (6, 5), (9, 3)):
        result = _copies(_intervals([(p, p) for p in range(n)]), d)
        assert count_sequences(build_graph(result)) == _count_over_oracle(result) == d ** n


def test_sequences_limit_and_truncation(numbers_graph):
    paths, truncated = enumerate_sequences(numbers_graph, 2)
    assert len(paths) == 2 and truncated
    paths, truncated = enumerate_sequences(numbers_graph, 4)
    assert len(paths) == 4 and not truncated
    with pytest.raises(ValueError):
        enumerate_sequences(numbers_graph, 0)


def test_dot_output(numbers_graph):
    dot = to_dot(numbers_graph)
    assert dot.startswith("digraph lexgraph {")
    node_lines = [l for l in dot.splitlines() if "label=" in l]
    edge_lines = [l for l in dot.splitlines() if "->" in l]
    assert len(node_lines) == 12
    assert len(edge_lines) == 13
    assert sum("doublecircle" in l for l in node_lines) == 1
    assert 'n0 [label="Ampersand\\n\\"&\\"@0-0", shape=doublecircle];' in dot


def test_dot_empty_graph():
    dot = to_dot(build_graph(_intervals([])))
    assert dot == "digraph lexgraph {\n  rankdir=LR;\n}\n"


def test_dot_single_token():
    dot = to_dot(build_graph(_intervals([(0, 2)])))
    assert "doublecircle" in dot
    assert "->" not in dot


def test_json_schema_and_round_trip(numbers_graph):
    text = to_json(numbers_graph)
    assert text.startswith('{"input_length":13,"tokens":[{"id":0,')
    assert text.endswith(',"start":[0]}')
    assert graph_from_json(text) == numbers_graph


def _edited(edit):
    def make(graph):
        data = json.loads(to_json(graph))
        edit(data)
        return json.dumps(data)
    return make


@pytest.mark.parametrize("make", [
    _edited(lambda data: data["tokens"].reverse()),
    _edited(lambda data: [rec.update(id=rec["id"] + 100) for rec in data["tokens"]]),
    _edited(lambda data: data["tokens"][0].update(following=[])),
    _edited(lambda data: data.update(start=[0, 1])),
    lambda graph: '{"tokens":[{"id":0}],"input_length":1,"start":[]}',
    lambda graph: '{"tokens":5,"input_length":1,"start":[]}',
    lambda graph: "[]",
    lambda graph: '{"input_length":1.0,"tokens":[],"start":[]}',
    lambda graph: "[" * 100_000,
    lambda graph: '{"input_length":-5,"tokens":[],"start":[]}',
    lambda graph: '{"input_length":5,"input_length":0,"tokens":[],"start":[]}',
    lambda graph: ('{"input_length":1,"tokens":[{"id":0,"type":"A","type":"B","text":"a",'
                   '"start":0,"end":0,"preceding":[],"following":[]}],"start":[0]}'),
], ids=["tokens-reversed", "ids-plus-100", "following-emptied", "start-edited",
        "missing-field", "tokens-not-a-list", "not-an-object", "float", "nested-too-deep",
        "negative-length", "repeated-length", "repeated-type"])
def test_graph_from_json_rejects_what_to_json_does_not_write(numbers_graph, make):
    with pytest.raises(ValueError, match="^token graph JSON: "):
        graph_from_json(make(numbers_graph))


@pytest.mark.parametrize("token, input_length", [
    (Token(1, "T", "", 4, 3), 9),      # end before start
    (Token(1, "T", "xyz", 4, 5), 9),   # text one character too long
    (Token(1, "T", "xy", 4, 5), 5),    # input_length short of the last end
], ids=["end-before-start", "wrong-text-length", "input-too-short"])
def test_graph_from_json_rejects_spans_no_scan_produces(token, input_length):
    graph = build_graph(ScanResult((Token(0, "T", "abc", 0, 2), token), input_length))
    with pytest.raises(ValueError, match="^token graph JSON: token 1 "):
        graph_from_json(to_json(graph))


def test_graph_from_json_writes_the_token_of_a_bad_span_on_one_line():
    # The text a"@0-0<newline>b holds what a raw quote would show as a false span.
    text = ('{"input_length":9,"tokens":[{"id":0,"type":"A","text":"a\\"@0-0\\nb","start":0,"end":5,'
            '"preceding":[],"following":[]}],"start":[0]}')
    with pytest.raises(ValueError) as caught:
        graph_from_json(text)
    assert str(caught.value) == ('token graph JSON: token 0 (A "a\\"@0-0\\nb"@0-5) needs 0 <= start <= end '
                                 '< input_length (9) and text of length end - start + 1')


def test_json_empty_graph():
    assert to_json(build_graph(_intervals([]))) == '{"input_length":0,"tokens":[],"start":[]}'


def _json_by_dumps(result):
    """Reference: the payload, with `build_graph_oracle`'s edges, through ``json.dumps``."""
    following, preceding, start_set = build_graph_oracle(result)
    payload = {
        "input_length": result.input_length,
        "tokens": [
            {"id": t.id, "type": t.type_name, "text": t.text, "start": t.start, "end": t.end,
             "preceding": list(preceding[t.id]), "following": list(following[t.id])}
            for t in result.tokens
        ],
        "start": list(start_set),
    }
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":"))


def _awkward(result, rng):
    """``result`` with texts and type names full of characters JSON escapes or keeps."""
    chars = 'ab"\\/\n\t\r\x00\x1f\x7f\u00e9\u4e2d\U0001f600\u2028'
    return ScanResult(tuple(
        t._replace(type_name=rng.choice(("T", 'Q"', "back\\slash", "\u00e9")),
                   text="".join(rng.choice(chars) for _ in range(t.end - t.start + 1)))
        for t in result.tokens
    ), result.input_length)


# Empty, only ignored text, one token alone and between gaps, equal starts with
# gaps and a token at the last offset, equal spans.
EDGE_CASES = [([], 0), ([], 4), ([(0, 0)], 1), ([(3, 5)], 9),
              ([(0, 1), (0, 3), (5, 5), (5, 6), (9, 9)], 10), ([(0, 0), (0, 0), (1, 1), (1, 1)], 2)]


def test_json_matches_json_dumps_byte_for_byte(numbers_scan, numbers_graph):
    assert to_json(numbers_graph) == _json_by_dumps(numbers_scan)
    rng = random.Random(20261021)
    cases = [ScanResult(_intervals(spans).tokens, length) for spans, length in EDGE_CASES]
    cases += [support.random_interval_result(rng) for _ in range(1000)]
    for case in cases:
        for result in (case, _awkward(case, rng)):
            graph = build_graph(result)
            assert to_json(graph) == _json_by_dumps(result)
            assert graph_from_json(to_json(graph)) == graph


def test_serialized_outputs_are_stable(numbers_scan):
    dots = {to_dot(build_graph(numbers_scan)) for _ in range(5)}
    jsons = {to_json(build_graph(numbers_scan)) for _ in range(5)}
    assert len(dots) == 1 and len(jsons) == 1
