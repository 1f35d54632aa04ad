import copy
import gc
import math
import pickle
import random

import pytest

import support
from lamb import (
    Grammar,
    GrammarRule,
    build_graph,
    build_graph_oracle,
    forest_to_json,
    graph_from_json,
    parse,
    parse_grammar,
    parse_lex_spec,
    render_trees,
    scan,
    to_json,
)
from lamb.parser import ParseForest, SymbolInstance, extended_follows, forest_to_dot, match_rule_from
from lamb.scanner import ScanResult, Token


def _inst(iid, type_name, start, end):
    return SymbolInstance(iid, type_name, start, end, ())


def test_symbol_instance_is_an_immutable_hashable_tuple():
    node = SymbolInstance(4, "E", 0, 12, ((0, 1),))
    assert node == (4, "E", 0, 12, ((0, 1),), None)
    assert hash(node) == hash((4, "E", 0, 12, ((0, 1),), None))
    assert repr(node) == ("SymbolInstance(id=4, type_name='E', start=0, end=12, "
                          "alternatives=((0, 1),), text=None)")
    assert SymbolInstance(0, "Real", 1, 3, (), "5.2").text == "5.2"
    with pytest.raises(AttributeError):
        node.start = 0


def test_extended_follows_spans_ignored_gaps(numbers_graph):
    a = _inst(100, "A", 0, 4)
    b = _inst(101, "B", 6, 12)
    assert extended_follows(a, b, numbers_graph)


def test_extended_follows_requires_strict_ordering(numbers_graph):
    slash = numbers_graph.tokens[6]
    b = _inst(101, "B", 6, 12)
    assert not extended_follows(_inst(6, "Slash", slash.start, slash.end), b, numbers_graph)


def test_extended_follows_blocked_by_terminal(numbers_graph):
    amp = _inst(0, "Ampersand", 0, 0)
    point = _inst(3, "Point", 2, 2)
    assert not extended_follows(amp, point, numbers_graph)


def test_extended_follows_matches_graph_on_terminals(numbers_graph):
    insts = [
        _inst(t.id, t.type_name, t.start, t.end) for t in numbers_graph.tokens
    ]
    for a in insts:
        expected = set(numbers_graph.following[a.id])
        got = {b.id for b in insts if extended_follows(a, b, numbers_graph)}
        assert got == expected


def test_match_rule_from_walks_the_graph(numbers_graph, numbers_grammar):
    rule_a = numbers_grammar.rules[1]  # A ::= Ampersand Real Ampersand
    store = [
        SymbolInstance(t.id, t.type_name, t.start, t.end, (), t.text)
        for t in numbers_graph.tokens
    ]
    assert match_rule_from(rule_a, store[0], store, numbers_graph) == [(0, 2, 5)]
    assert match_rule_from(rule_a, store[5], store, numbers_graph) == []
    assert match_rule_from(rule_a, store[6], store, numbers_graph) == []
    blocked = GrammarRule("Q", ("Ampersand", "Point"))  # Integer "5" lies between
    assert match_rule_from(blocked, store[0], store, numbers_graph) == []


def test_parse_numbers_example(numbers_graph, numbers_grammar):
    forest = parse(numbers_graph, numbers_grammar)
    assert len(forest.instances) == 15  # 12 terminals + A + B + E
    derived = {i.type_name: i for i in forest.instances[12:]}
    assert set(derived) == {"A", "B", "E"}
    assert derived["A"].alternatives == ((0, 2, 5),)
    assert (derived["A"].start, derived["A"].end) == (0, 4)
    assert derived["B"].alternatives == ((6, 7, 9, 10, 11),)
    assert (derived["B"].start, derived["B"].end) == (6, 12)
    assert derived["E"].alternatives == ((derived["A"].id, derived["B"].id),)
    assert forest.accepted == (derived["E"].id,)


def test_parse_accepts_only_whole_input_instances(numbers_graph, numbers_grammar):
    forest = parse(numbers_graph, numbers_grammar)
    for iid in forest.accepted:
        inst = forest.instances[iid]
        assert inst.start <= min(t.start for t in numbers_graph.tokens)
        assert inst.end >= max(t.end for t in numbers_graph.tokens)


@pytest.mark.parametrize("favored", ["Integer", "Real"])
def test_collapsed_chains_have_no_valid_sentence(favored, numbers_grammar):
    spec = parse_lex_spec(support.numbers_spec_text(favored=favored))
    graph = build_graph(scan(spec, support.NUMBERS_INPUT))
    forest = parse(graph, numbers_grammar)
    assert forest.accepted == ()


def test_single_token_sentence():
    spec = parse_lex_spec("token Ampersand 1 /\\&/\n")
    graph = build_graph(scan(spec, "&"))
    grammar = parse_grammar("start E\nE ::= Ampersand\n", spec)
    forest = parse(graph, grammar)
    assert len(forest.instances) == 2
    accepted = forest.instances[forest.accepted[0]]
    assert (accepted.type_name, accepted.start, accepted.end) == ("E", 0, 0)


def test_ambiguous_tokenization_yields_two_trees():
    spec = parse_lex_spec("token X 1 /a/\ntoken Y 1 /ab/\ntoken Z 1 /b/\n")
    graph = build_graph(scan(spec, "ab"))
    grammar = parse_grammar("S ::= X Z | Y\n", spec)
    forest = parse(graph, grammar)
    (root,) = forest.accepted  # both readings span the whole input: one node
    assert len(forest.instances[root].alternatives) == 2
    assert render_trees(forest).count("\n\n") == 1
    assert forest_to_dot(forest).count("[shape=point];") == 2  # one vertex per alternative
    shapes = support.forest_accepted_trees(forest)
    assert shapes == {("S", (0, 2)), ("S", (1,))}


def test_recursive_rules_reach_a_fixpoint():
    spec = parse_lex_spec("token X 1 /x/\n")
    graph = build_graph(scan(spec, "xxx"))
    grammar = parse_grammar("A ::= X | A X\n", spec)
    forest = parse(graph, grammar)
    # left-recursion gives exactly one whole-input reading of xxx
    assert support.forest_accepted_trees(forest) == {
        ("A", (("A", (("A", (0,)), 1)), 2)),
    }


def test_nonterminals_feed_later_passes(numbers_graph, numbers_grammar):
    # E is only reachable through A and B, themselves derived
    forest = parse(numbers_graph, numbers_grammar)
    (children,) = forest.instances[forest.accepted[0]].alternatives
    assert all(forest.instances[c].alternatives for c in children)


def test_render_trees_numbers_example(numbers_graph, numbers_grammar):
    text = render_trees(parse(numbers_graph, numbers_grammar))
    assert text == (
        "E [0-12]\n"
        "  A [0-4]\n"
        '    Ampersand "&" [0-0]\n'
        '    Real "5.2" [1-3]\n'
        '    Ampersand "&" [4-4]\n'
        "  B [6-12]\n"
        '    Slash "/" [6-6]\n'
        '    Integer "25" [7-8]\n'
        '    Point "." [9-9]\n'
        '    Integer "20" [10-11]\n'
        '    Slash "/" [12-12]\n'
    )
    assert len(text.strip().splitlines()) == 11  # 3 nonterminals + 8 terminals


def test_render_trees_empty_forest(numbers_grammar):
    spec = parse_lex_spec(support.numbers_spec_text(favored="Real"))
    graph = build_graph(scan(spec, support.NUMBERS_INPUT))
    forest = parse(graph, numbers_grammar)
    assert render_trees(forest) == ""


def test_forest_json(numbers_graph, numbers_grammar):
    import json

    forest = parse(numbers_graph, numbers_grammar)
    payload = json.loads(forest_to_json(forest))
    assert payload["version"] == 2
    assert payload["accepted"] == [14]
    assert payload["trees"] == 1
    assert len(payload["instances"]) == 15
    assert payload["instances"][0] == {
        "id": 0, "type": "Ampersand", "text": "&", "start": 0, "end": 0, "alternatives": [],
    }
    (alternative,) = payload["instances"][14]["alternatives"]
    assert alternative["rule"] == "E ::= A B"
    assert sorted(alternative["children"]) == [12, 13]
    assert forest_to_json(forest) == forest_to_json(parse(numbers_graph, numbers_grammar))


def test_forest_json_writes_every_digit_of_the_tree_count():
    # 14,400 nodes of two alternatives each give 2**14400 trees: 4,335 digits,
    # past the default limit on converting an int to str.
    import json
    from decimal import Decimal

    nodes = [SymbolInstance(0, "X", 0, 0, (), "a"), SymbolInstance(1, "Y", 0, 0, (), "a"),
             SymbolInstance(2, "N", 0, 0, ((0,), (1,)))]
    nodes += (SymbolInstance(i, "N", 0, 0, ((i - 1, 0), (i - 1, 1))) for i in range(3, 14402))
    payload = json.loads(forest_to_json(ParseForest(tuple(nodes), (14401,))), parse_int=Decimal)
    assert payload["trees"] == 2**14400
    assert payload["accepted"] == [14401]


def test_forest_dot(numbers_graph, numbers_grammar):
    dot = forest_to_dot(parse(numbers_graph, numbers_grammar))
    assert dot.count("->") == 10  # E->A, E->B, 3 + 5 terminal links
    assert 'i14 [label="E@0-12"];' in dot


def test_parse_matches_brute_force_on_random_cases():
    rng = random.Random(90125)
    for _ in range(30):
        result, grammar = support.random_parse_case(rng)
        graph = build_graph(result)
        forest = parse(graph, grammar)
        assert support.forest_accepted_trees(forest) == support.brute_accepted_trees(
            graph, grammar
        ), (result, grammar)


def test_instance_pool_is_deduplicated(numbers_graph, numbers_grammar):
    forest = parse(numbers_graph, numbers_grammar)
    derived = [i for i in forest.instances if i.alternatives]
    assert len({(i.type_name, i.start, i.end) for i in derived}) == len(derived)
    assert all(len(set(i.alternatives)) == len(i.alternatives) for i in derived)


def test_alternatives_are_not_tracked_by_the_collector():
    # An alternative holds only child ids, so the collector stops tracking it
    # once it has seen it, and a large forest does not slow every collection.
    spec = parse_lex_spec("token x 1 /x/\n")
    grammar = parse_grammar("E ::= E E | x\n", spec)
    forest = parse(build_graph(scan(spec, "x" * 40)), grammar)
    gc.collect()
    alternatives = [a for inst in forest.instances for a in inst.alternatives]
    assert len(alternatives) == math.comb(41, 3) + 40  # E ::= E E per split, E ::= x per token
    assert not any(map(gc.is_tracked, alternatives))


def _leaves(tree):
    """Token ids at the leaves of a tree in `support.forest_accepted_trees` form."""
    if isinstance(tree, int):
        return [tree]
    return [leaf for child in tree[1] for leaf in _leaves(child)]


def _is_maximal_path(graph, ids):
    if ids[0] not in graph.start_set or graph.following[ids[-1]]:
        return False
    return all(b in graph.following[a] for a, b in zip(ids, ids[1:]))


def test_accepted_leaves_replay_as_graph_paths(numbers_graph, numbers_grammar):
    (tree,) = support.forest_accepted_trees(parse(numbers_graph, numbers_grammar))
    leaves = _leaves(tree)
    assert leaves == [0, 2, 5, 6, 7, 9, 10, 11]
    assert _is_maximal_path(numbers_graph, leaves)


def test_accepted_leaves_replay_on_random_cases():
    rng = random.Random(555)
    for _ in range(25):
        result, grammar = support.random_parse_case(rng)
        graph = build_graph(result)
        for tree in support.forest_accepted_trees(parse(graph, grammar)):
            assert _is_maximal_path(graph, _leaves(tree))


def _outputs(forest):
    return forest_to_json(forest), render_trees(forest), forest_to_dot(forest)


def _same_forest(graph, grammar):
    """Check `parse` against `support.literal_parse`: the same packed nodes,
    alternatives and accepted nodes, and the same `render_trees` text when
    there is at most one tree, else the same trees in another order.
    Returns the forest."""
    forest, literal = parse(graph, grammar), support.literal_parse(graph, grammar)
    assert support.packed_view(forest) == support.pack_literal(literal), (graph.tokens, grammar)
    text, expected = render_trees(forest), support.render_literal_trees(literal)
    if len(literal.accepted) <= 1:
        assert text == expected, (graph.tokens, grammar)
    else:
        assert sorted(text[:-1].split("\n\n")) == sorted(expected[:-1].split("\n\n")), (graph.tokens, grammar)
    return forest


def test_extended_follows_matches_literal_definition():
    # Instances span several tokens or none, and offsets fall inside tokens
    # and in ignored gaps.
    rng = random.Random(4242)
    for _ in range(300):
        result = support.random_interval_result(rng, max_tokens=12, field=30)
        graph = build_graph(result)
        for _ in range(40):
            a_start, b_start = rng.randint(-2, 42), rng.randint(-2, 42)
            a = _inst(0, "A", a_start, a_start + rng.randint(0, 12))
            b = _inst(1, "B", b_start, b_start + rng.randint(0, 12))
            assert extended_follows(a, b, graph) == support.literal_follows(a, b, graph), (
                result, a, b)


def test_parse_matches_literal_parser_on_random_cases():
    rng = random.Random(0xF0E57)
    for _ in range(300):
        result, grammar = support.random_parse_case(rng)
        graph = build_graph(result)
        forest = _same_forest(graph, grammar)
        assert support.forest_accepted_trees(forest) == support.brute_accepted_trees(graph, grammar)


def test_parse_matches_literal_parser_on_numbers_lists(numbers_spec):
    grammar = parse_grammar(support.NUMBERS_LIST_GRAMMAR, numbers_spec)
    rng = random.Random(16)
    for groups in range(1, 17):
        graph = build_graph(scan(numbers_spec, support.numbers_list_input(rng, groups)))
        forest = _same_forest(graph, grammar)
        assert len(forest.accepted) == 1


@pytest.mark.parametrize("text", ["a", "a   "])
def test_rule_needing_a_successor_after_the_last_token(text):
    spec = parse_lex_spec("token A 1 /a/\nignore / +/\n")
    grammar = parse_grammar("S ::= A A\n", spec)
    graph = build_graph(scan(spec, text))
    forest = parse(graph, grammar)
    assert len(forest.instances) == 1
    assert forest.accepted == ()


def test_parse_empty_token_list(numbers_grammar):
    forest = parse(build_graph(ScanResult((), 0, ())), numbers_grammar)
    assert forest.instances == ()
    assert forest.accepted == ()


def test_parse_tokens_sharing_a_start():
    # X@0-0 and Y@0-1 share start 0, as do X@2-2 and Y@2-3; Z@1-1 follows only
    # X@0-0, and both tokens at 2 follow Z and Y@0-1.
    toks = (
        Token(0, "X", "x", 0, 0), Token(1, "Y", "xy", 0, 1),
        Token(2, "Z", "y", 1, 1), Token(3, "X", "z", 2, 2), Token(4, "Y", "zz", 2, 3),
    )
    graph = build_graph(ScanResult(toks, 4, ()))
    grammar = Grammar((
        GrammarRule("S", ("X", "Z", "P")), GrammarRule("S", ("Y", "P")),
        GrammarRule("P", ("X",)), GrammarRule("P", ("Y",)),
    ), "S")
    forest = _same_forest(graph, grammar)
    assert support.forest_accepted_trees(forest) == {
        ("S", (0, 2, ("P", (3,)))), ("S", (0, 2, ("P", (4,)))),
        ("S", (1, ("P", (3,)))), ("S", (1, ("P", (4,)))),
    }


def test_parse_takes_candidates_at_different_starts_in_id_order():
    # X@2-2 and Y@1-2 both follow Z@0-0.  N@2 (from X) gets its id before N@1
    # (from Y), so the candidates for S's second child, taken start by start,
    # come out of id order and have to be merged.
    toks = (Token(0, "Z", "z", 0, 0), Token(1, "Y", "yy", 1, 2), Token(2, "X", "x", 2, 2))
    graph = build_graph(ScanResult(toks, 3, ()))
    grammar = Grammar((
        GrammarRule("S", ("Z", "N")), GrammarRule("N", ("X",)), GrammarRule("N", ("Y",)),
    ), "S")
    forest = _same_forest(graph, grammar)
    assert support.forest_accepted_trees(forest) == {("S", (0, ("N", (2,)))), ("S", (0, ("N", (1,))))}


def test_parse_takes_tokens_of_one_start_highest_id_first():
    # X@0-0 and Z@0-0 tie on their start; Z leaves the agenda first, so the
    # one S node lists its alternative over Z first.
    toks = (Token(0, "X", "x", 0, 0), Token(1, "Z", "z", 0, 0))
    grammar = Grammar((GrammarRule("S", ("X",)), GrammarRule("S", ("Z",))), "S")
    forest = parse(build_graph(ScanResult(toks, 1, ())), grammar)
    assert forest.instances[2].alternatives == ((1,), (0,))
    assert forest.accepted == (2,)


def test_parse_starts_rules_before_advancing_waiting_items():
    # X@1-1 starts A ::= X and completes B ::= Y X, which waited for it since
    # Y@0-0 left the agenda; the node it starts is numbered first.
    toks = (Token(0, "Y", "y", 0, 0), Token(1, "X", "x", 1, 1))
    grammar = Grammar((GrammarRule("S", ("B",)), GrammarRule("B", ("Y", "X")),
                       GrammarRule("A", ("X",))), "S")
    forest = parse(build_graph(ScanResult(toks, 2, ())), grammar)
    assert [inst[1:] for inst in forest.instances[2:]] == [
        ("A", 1, 1, ((1,),), None), ("B", 0, 1, ((0, 1),), None), ("S", 0, 1, ((3,),), None)]
    assert forest.accepted == (4,)


def test_parse_tokens_listed_out_of_start_order():
    # Every graph numbers its tokens in start order, so the parser never sees
    # these: each way of building a graph rejects them.
    toks = (Token(0, "Y", "y", 2, 2), Token(1, "X", "x", 0, 0), Token(2, "Z", "z", 1, 1))
    for build in (build_graph, build_graph_oracle):
        with pytest.raises(ValueError):
            build(ScanResult(toks, 3, ()))


def test_parse_graph_round_tripped_through_json(numbers_spec):
    grammar = parse_grammar(support.NUMBERS_LIST_GRAMMAR, numbers_spec)
    graph = build_graph(scan(numbers_spec, support.numbers_list_input(random.Random(5), 3)))
    loaded = graph_from_json(to_json(graph))
    assert _outputs(parse(loaded, grammar)) == _outputs(_same_forest(graph, grammar))


# --- grammar shapes that stress the order in which derivations are found ---

def _x_case(grammar_text, tokens):
    spec = parse_lex_spec("token x 1 /x/\n")
    return build_graph(scan(spec, "x" * tokens)), parse_grammar(grammar_text, spec)


@pytest.mark.parametrize("grammar_text, tokens", [
    ("L ::= L x | x\n", 30),      # left recursion
    ("S ::= E S | E\nE ::= x\n", 12),  # right recursion through the last child
    ("P ::= E E\nE ::= x | x E\n", 8),  # one symbol twice in a body
    ("E ::= E E | x\n", 7),       # ambiguous: Catalan(n-1) readings per span
])
def test_semi_naive_parse_matches_literal_parser(grammar_text, tokens):
    _same_forest(*_x_case(grammar_text, tokens))


@pytest.mark.parametrize("grammar_text, tokens, trees", [
    ("E ::= x | x\n", 1, 1),
    ("E ::= x\nE ::= x\n", 1, 1),
    ("E ::= E E | x | E E\n", 3, 2),
])
def test_rule_listed_twice_gives_one_tree_per_derivation(grammar_text, tokens, trees):
    forest = _same_forest(*_x_case(grammar_text, tokens))
    assert len(support.forest_accepted_trees(forest)) == trees
    assert render_trees(forest).count("\n\n") == trees - 1


@pytest.mark.parametrize("grammar_text, sizes", [
    ("E ::= E E | x\n", range(1, 8)),
    ("L ::= L x | x\n", (1, 2, 3, 5, 8, 13, 21, 34)),
    ("L ::= x | x L\n", (1, 2, 3, 5, 8, 13, 21)),
])
def test_item_chains_match_literal_parser_as_the_input_grows(grammar_text, sizes):
    # One grammar for every size, so each parse after the first reuses the
    # item chains kept on the grammar.
    spec = parse_lex_spec("token x 1 /x/\n")
    grammar = parse_grammar(grammar_text, spec)
    for tokens in sizes:
        _same_forest(build_graph(scan(spec, "x" * tokens)), grammar)
    assert "item_chains" in vars(grammar)


def test_parsed_grammar_equals_and_hashes_like_a_fresh_one(numbers_spec, numbers_graph):
    used = parse_grammar(support.NUMBERS_GRAMMAR, numbers_spec)
    assert "item_chains" not in vars(used)
    forest = parse(numbers_graph, used)
    assert "item_chains" in vars(used)
    fresh = parse_grammar(support.NUMBERS_GRAMMAR, numbers_spec)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert parse(numbers_graph, used) == forest == parse(numbers_graph, fresh)


def test_grammar_built_from_rules_parses_the_numbers_example(numbers_graph, numbers_grammar):
    built = Grammar(tuple(GrammarRule(r.lhs, r.rhs) for r in numbers_grammar.rules), "E")
    forest = parse(numbers_graph, built)
    assert forest == parse(numbers_graph, numbers_grammar)
    assert render_trees(forest).startswith("E [0-12]\n  A [0-4]\n")


def test_long_rule_body_parses_past_the_recursion_limit():
    # One rule of 3,000 symbols, a then b repeated, over as many tokens: its
    # match is one chain of 3,000 steps.
    count = 3000
    spec = parse_lex_spec("token a 1 /a/\ntoken b 1 /b/\n")
    grammar = parse_grammar("S ::= a" + " b" * (count - 1) + "\n", spec)
    forest = parse(build_graph(scan(spec, "a" + "b" * (count - 1))), grammar)
    assert len(forest.accepted) == 1
    text = render_trees(forest)
    assert text.startswith(f"S [0-{count - 1}]\n")
    assert text.count("\n") == count + 1


def test_parsed_grammar_with_a_long_rule_pickles_and_copies():
    # The 3,000-symbol rule's item chain nests 3,000 deep; copies leave it out.
    count = 3000
    spec = parse_lex_spec("token a 1 /a/\ntoken b 1 /b/\n")
    grammar = parse_grammar("S ::= a" + " b" * (count - 1) + "\n", spec)
    graph = build_graph(scan(spec, "a" + "b" * (count - 1)))
    forest = parse(graph, grammar)
    for copied in (pickle.loads(pickle.dumps(grammar)), copy.deepcopy(grammar), copy.copy(grammar)):
        assert copied == grammar and "item_chains" not in vars(copied)
        assert parse(graph, copied) == forest
    assert "item_chains" in vars(grammar)


def test_semi_naive_parse_with_rules_feeding_earlier_rules(numbers_spec):
    # Reversed, every rule is fed by rules listed after it.
    listed = parse_grammar(support.NUMBERS_LIST_GRAMMAR, numbers_spec)
    grammar = Grammar(tuple(reversed(listed.rules)), listed.start_symbol)
    graph = build_graph(scan(numbers_spec, support.numbers_list_input(random.Random(44), 6)))
    forest = _same_forest(graph, grammar)
    assert len(forest.accepted) == 1


def test_semi_naive_parse_when_the_rule_makes_its_own_first_new_instance():
    # P ::= A B P recurses on its last child, and one B comes through the
    # unit chain B ::= D ::= y, listed before the rules it needs.
    toks = (
        Token(0, "b", "b", 0, 0), Token(1, "c", "c", 1, 1), Token(2, "a", "a", 2, 2),
        Token(3, "y", "y", 3, 3), Token(4, "y", "y", 4, 4),
    )
    graph = build_graph(ScanResult(toks, 5, ()))
    grammar = Grammar((
        GrammarRule("B", ("D",)), GrammarRule("A", ("a",)), GrammarRule("A", ("b",)),
        GrammarRule("B", ("c",)), GrammarRule("P", ("y",)), GrammarRule("P", ("A", "B", "P")),
        GrammarRule("D", ("y",)), GrammarRule("Q", ("B",)),
    ), "P")
    forest = _same_forest(graph, grammar)
    inner = ("P", (("A", (2,)), ("B", (("D", (3,)),)), ("P", (4,))))
    assert support.forest_accepted_trees(forest) == {("P", (("A", (0,)), ("B", (1,)), inner))}


def test_parse_matches_literal_parser_on_random_cases_by_seed():
    for seed in range(61000, 61300):
        result, grammar = support.random_parse_case(random.Random(seed))
        graph = build_graph(result)
        forest = _same_forest(graph, grammar)
        assert support.forest_accepted_trees(forest) == support.brute_accepted_trees(graph, grammar), seed


def test_render_trees_deep_forest():
    # A hand-built right-recursive tree, L ::= x | x L over 5000 tokens: one
    # level per token, far past the recursion limit.
    depth = 5000
    leaves = [SymbolInstance(i, "x", i, i, (), "x") for i in range(depth)]
    chain = [SymbolInstance(depth, "L", depth - 1, depth - 1, ((depth - 1,),))]
    for i in range(depth - 2, -1, -1):
        chain.append(SymbolInstance(depth + len(chain), "L", i, depth - 1, ((i, chain[-1].id),)))
    forest = ParseForest(tuple(leaves + chain), (chain[-1].id,))
    text = render_trees(forest)
    expected = "".join(
        f'{"  " * d}L [{d}-{depth - 1}]\n{"  " * (d + 1)}x "x" [{d}-{d}]\n' for d in range(depth)
    )
    assert text == expected


def test_render_trees_lists_every_tree_in_pick_order():
    # X@0 derives a or c, Y@1 derives b or d: four trees, X's pick slowest.
    tokens = [SymbolInstance(i, t, i // 2, i // 2, (), t) for i, t in enumerate("acbd")]
    derived = [
        SymbolInstance(4, "X", 0, 0, ((0,), (1,))),
        SymbolInstance(5, "Y", 1, 1, ((2,), (3,))),
        SymbolInstance(6, "S", 0, 1, ((4, 5),)),
    ]
    text = render_trees(ParseForest(tuple(tokens + derived), (6,)))
    trees = [
        f'S [0-1]\n  X [0-0]\n    {a} "{a}" [0-0]\n  Y [1-1]\n    {b} "{b}" [1-1]'
        for a in "ac" for b in "bd"
    ]
    assert text == "\n\n".join(trees) + "\n"
