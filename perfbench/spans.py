"""Per-layer spans and counters, recorded from outside lamb.

`Tracer.installed()` swaps lamb's public functions, as module attributes, for
wrappers and puts the originals back on exit; lamb's source is not touched.
Layer boundaries (`cli.run`, spec and grammar loading, `scan`,
`uncovered_spans`, `build_graph`, `parse` and the renderers) become spans.
The hot inner calls (`pattern.compile`, `Pattern.match_longest_at`,
`parser.match_rule_from`, `parser.extended_follows`) only add to counters
and, for the two pattern calls, to a total time charged to the enclosing
span, so the trace stays small.

A span's self time is its duration minus its child spans and minus the
pattern time charged to it.  Nothing is recorded outside a `cli.run` span, so
reference checks that share lamb's pattern engine are not counted.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from time import perf_counter_ns

import lamb.cli
import lamb.lexgraph
import lamb.parser
import lamb.pattern
import lamb.scanner
import lamb.spec_io

# Counters compared between two runs of the same seed: they must repeat exactly.
DETERMINISTIC = (
    "scanner.tokens",
    "lexgraph.edges",
    "pattern.compile_calls",
    "pattern.match_calls",
    "parser.follows_calls",
    "parser.instances",
)


def _count_scan(counts, result):
    counts["scanner.tokens"] += len(result.tokens)
    counts["scanner.ignored_spans"] += len(result.ignored)
    counts["scanner.chars"] += result.input_length


def _count_gaps(counts, gaps):
    counts["scanner.uncovered_spans"] += len(gaps)


def _count_graph(counts, graph):
    counts["lexgraph.edges"] += sum(map(len, graph.following))
    counts["lexgraph.start_set"] += len(graph.start_set)


def _count_forest(counts, forest):
    counts["parser.instances"] += len(forest.instances)
    counts["parser.accepted"] += len(forest.accepted)


def _count_parser_output(counts, text):
    counts["parser.output_bytes"] += len(text.encode())


# (module, attribute, span name, counter fed from the return value)
SPANS = (
    (lamb.spec_io, "parse_lex_spec", "spec_io", None),
    (lamb.spec_io, "parse_grammar", "spec_io", None),
    (lamb.scanner, "scan", "scan", _count_scan),
    (lamb.scanner, "uncovered_spans", "uncovered", _count_gaps),
    (lamb.lexgraph, "build_graph", "build_graph", _count_graph),
    (lamb.lexgraph, "to_json", "lexgraph_render", None),
    (lamb.lexgraph, "to_dot", "lexgraph_render", None),
    (lamb.parser, "parse", "parse", _count_forest),
    (lamb.parser, "render_trees", "parser_render", _count_parser_output),
    (lamb.parser, "forest_to_json", "parser_render", _count_parser_output),
    (lamb.parser, "forest_to_dot", "parser_render", _count_parser_output),
)


class Tracer:
    """Spans of the operations run while installed, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[int, str, str | None, int, int]] = []  # op, name, parent, dur, self
        self.counts: Counter = Counter()
        self._open: list[list] = []  # [name, child_ns, pattern_ns] per open span
        self._op = 0
        # Hot calls tally into list cells, cheaper per call than a Counter:
        # [calls, ns, non-None results] when timed, [calls, truthy results] when counted.
        self._tallies = {"compile": [0, 0, 0], "match": [0, 0, 0],
                         "match_rule": [0, 0], "follows": [0, 0]}

    def _span(self, name, fn, measure):
        open_spans, spans, counts = self._open, self.spans, self.counts

        def wrapper(*args, **kwargs):
            if not open_spans and name != "cli":
                return fn(*args, **kwargs)
            if not open_spans:
                self._op += 1
            frame = [name, 0, 0]
            open_spans.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                open_spans.pop()
                duration = end - start
                parent = open_spans[-1] if open_spans else None
                if parent:
                    parent[1] += duration
                spans.append((self._op, name, parent and parent[0], duration,
                              duration - frame[1] - frame[2]))
            if measure:
                measure(counts, result)
                if parent:  # counting is tracing cost, not the parent's work
                    parent[1] += perf_counter_ns() - end
            return result
        return wrapper

    def _timed(self, key, fn):
        open_spans, tally = self._open, self._tallies[key]

        def wrapper(*args):
            if not open_spans:
                return fn(*args)
            start = perf_counter_ns()
            result = fn(*args)
            duration = perf_counter_ns() - start
            open_spans[-1][2] += duration
            tally[0] += 1
            tally[1] += duration
            if result is not None:
                tally[2] += 1
            return result
        return wrapper

    def _counted(self, key, fn):
        open_spans, tally = self._open, self._tallies[key]

        def wrapper(*args):
            result = fn(*args)
            if open_spans:
                tally[0] += 1
                if result:
                    tally[1] += 1
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        patches = [(lamb.cli, "run", self._span("cli", lamb.cli.run, None))]
        patches += [(module, attr, self._span(name, getattr(module, attr), measure))
                    for module, attr, name, measure in SPANS]
        patches += [
            (lamb.pattern, "compile", self._timed("compile", lamb.pattern.compile)),
            (lamb.pattern.Pattern, "match_longest_at",
             self._timed("match", lamb.pattern.Pattern.match_longest_at)),
            (lamb.parser, "match_rule_from", self._counted("match_rule", lamb.parser.match_rule_from)),
            (lamb.parser, "extended_follows", self._counted("follows", lamb.parser.extended_follows)),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far."""
        dur: Counter = Counter()
        own: Counter = Counter()
        for _, name, _, duration, self_ns in self.spans:
            dur[name] += duration
            own[name] += self_ns
        c = self.counts
        compile_calls, compile_ns, _ = self._tallies["compile"]
        match_calls, match_ns, match_hits = self._tallies["match"]
        match_rule_calls, _ = self._tallies["match_rule"]
        follows, follows_true = self._tallies["follows"]
        chars = c["scanner.chars"]
        ns = 1e-9
        return {
            "spec_io.self_s": own["spec_io"] * ns,
            "pattern.compile_calls": compile_calls,
            "pattern.compile_s": compile_ns * ns,
            "pattern.match_calls": match_calls,
            "pattern.match_s": match_ns * ns,
            "pattern.match_hit_ratio": match_hits / match_calls if match_calls else 0.0,
            "pattern.match_calls_per_char": match_calls / chars if chars else 0.0,
            "scanner.self_s": (own["scan"] + own["uncovered"]) * ns,
            "scanner.us_per_char": dur["scan"] / 1e3 / chars if chars else 0.0,
            "scanner.tokens": c["scanner.tokens"],
            "scanner.ignored_spans": c["scanner.ignored_spans"],
            "scanner.uncovered_spans": c["scanner.uncovered_spans"],
            "lexgraph.build_s": dur["build_graph"] * ns,
            "lexgraph.edges": c["lexgraph.edges"],
            "lexgraph.start_set": c["lexgraph.start_set"],
            "lexgraph.render_s": dur["lexgraph_render"] * ns,
            "parser.self_s": own["parse"] * ns,
            "parser.follows_calls": follows,
            "parser.follows_true_ratio": follows_true / follows if follows else 0.0,
            "parser.match_rule_calls": match_rule_calls,
            "parser.instances": c["parser.instances"],
            "parser.accepted": c["parser.accepted"],
            "parser.render_s": dur["parser_render"] * ns,
            "parser.output_bytes": c["parser.output_bytes"],
            "cli.self_s": own["cli"] * ns,
        }
