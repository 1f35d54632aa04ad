"""lamb: lexical analysis that keeps every ambiguity on the table.

Instead of forcing one token per input position, the scanner collects all
admissible overlapping tokens (priorities optional, shared priorities mean
"keep both"), links them into a graph of immediate successors, and lets a
grammar decide which tokenization survives.
"""

from .lexgraph import (
    LexGraph,
    build_graph,
    enumerate_sequences,
    graph_from_json,
    to_dot,
    to_json,
)
from .oracles import build_graph_oracle, scan_oracle
from .parser import (
    ParseForest,
    SymbolInstance,
    forest_to_dot,
    forest_to_json,
    parse,
    render_trees,
)
from .pattern import Pattern, PatternError
from .pattern import compile as compile_pattern
from .scanner import (
    ScanResult,
    Token,
    render_tokens_text,
    scan,
    uncovered_spans,
)
from .spec_io import (
    Diagnostic,
    Grammar,
    GrammarRule,
    IgnoreDef,
    LexSpec,
    SpecError,
    TokenDef,
    parse_grammar,
    parse_lex_spec,
    render_lex_spec,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "Diagnostic",
    "Grammar",
    "GrammarRule",
    "IgnoreDef",
    "LexGraph",
    "LexSpec",
    "ParseForest",
    "Pattern",
    "PatternError",
    "ScanResult",
    "SpecError",
    "SymbolInstance",
    "Token",
    "TokenDef",
    "build_graph",
    "build_graph_oracle",
    "compile_pattern",
    "enumerate_sequences",
    "forest_to_dot",
    "forest_to_json",
    "graph_from_json",
    "parse",
    "parse_grammar",
    "parse_lex_spec",
    "render_lex_spec",
    "render_tokens_text",
    "render_trees",
    "scan",
    "scan_oracle",
    "to_dot",
    "to_json",
    "uncovered_spans",
    "validate",
]
