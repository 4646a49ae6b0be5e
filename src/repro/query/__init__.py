"""Query layer: predicates, engine, SQL/CADVIEW parser, aggregation."""

from repro.query.ast import (
    CreateCadViewStatement,
    DescribeStatement,
    DropCadViewStatement,
    HighlightSimilarStatement,
    OrderKey,
    ReorderRowsStatement,
    SelectStatement,
    ShowCadViewsStatement,
    Statement,
)
from repro.query.aggregate import AggregateSpec, GroupedResult, group_by
from repro.query.analyzer import Analyzer
from repro.query.diagnostics import (
    AnalysisReport, Diagnostic, Severity, levenshtein, suggest,
)
from repro.query.engine import QueryEngine
from repro.query.parser import parse, parse_predicate
from repro.query.predicates import (
    And, Between, Cmp, Eq, In, IsMissing, Ne, Not, Or, Predicate, TruePred,
)

__all__ = [
    "Predicate", "TruePred", "Eq", "Ne", "In", "Between", "Cmp",
    "IsMissing", "And", "Or", "Not",
    "QueryEngine",
    "AggregateSpec", "GroupedResult", "group_by",
    "parse", "parse_predicate",
    "Statement", "SelectStatement", "CreateCadViewStatement",
    "HighlightSimilarStatement", "ReorderRowsStatement", "OrderKey",
    "DescribeStatement", "ShowCadViewsStatement", "DropCadViewStatement",
    "Analyzer",
    "AnalysisReport", "Diagnostic", "Severity", "levenshtein", "suggest",
]
