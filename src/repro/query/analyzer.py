"""Semantic analysis of parsed statements — *before* anything executes.

The analyzer checks a parsed :class:`~repro.query.ast.Statement` against
a :class:`~repro.dataset.schema.Schema` (and, when available, the loaded
table and the CAD View registry) without executing it, producing
structured :class:`~repro.query.diagnostics.Diagnostic` records.  A
mistyped column or a `<` on a categorical attribute is caught in
microseconds instead of burning a full — possibly budgeted — CAD View
build; for an exploratory user iterating on queries, that is a latency
feature in itself.

Checks implemented (code table in :mod:`repro.query.diagnostics`):

* name resolution for every table, column and view reference, with a
  "did you mean" suggestion by edit distance over the schema;
* operator/type compatibility: no ordering comparison (`<`, BETWEEN)
  on categorical attributes, no non-numeric literal against numeric
  attributes;
* CADVIEW rules: pivot must be categorical or discretizable, LIMIT
  COLUMNS / IUNITS within fixed caps, in-view search targets
  (pivot value, IUnit id, threshold) must exist in the named view;
* predicate logic over interval/set constraints per column:
  contradictions (``price > 9 AND price < 5`` — always empty, an
  error: the statement cannot return anything), tautologies
  (``price < 5 OR price >= 5`` — the WHERE clause is dead weight) and
  duplicate conjuncts/disjuncts.

Usage::

    analyzer = Analyzer(engine=engine, views=views)
    report = analyzer.analyze(parse(sql), text=sql)
    if not report.ok:
        raise AnalysisError(report)
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.dataset.table import Table
from repro.query.ast import (
    CreateCadViewStatement,
    DescribeStatement,
    DropCadViewStatement,
    ExplainStatement,
    HighlightSimilarStatement,
    OrderKey,
    ReorderRowsStatement,
    SelectStatement,
    Statement,
)
from repro.query.diagnostics import AnalysisReport, Severity, suggest
from repro.query.predicates import (
    And, Between, Cmp, Eq, In, IsMissing, Ne, Not, Or, Predicate, TruePred,
)

__all__ = ["Analyzer"]

# Caps on the sizing clauses.  They bound the view to what the paper's
# front-end can usefully display (Table 1 shows 5 Compare Attributes and
# 3 IUnits per row).
MAX_COMPARE_COLUMNS = 24    # LIMIT COLUMNS above this is QA404
MAX_IUNITS = 16             # IUNITS above this is QA405
WIDE_PIVOT_WARNING = 30     # distinct pivot values above this warn QA406


def _is_float(value) -> bool:
    try:
        float(value)
        return True
    except (TypeError, ValueError):
        return False


class _Interval:
    """An open/closed numeric interval accumulated from conjuncts."""

    __slots__ = ("lo", "lo_open", "hi", "hi_open")

    def __init__(self):
        self.lo = float("-inf")
        self.lo_open = False
        self.hi = float("inf")
        self.hi_open = False

    def narrow_low(self, bound: float, open_: bool) -> None:
        if bound > self.lo or (bound == self.lo and open_):
            self.lo, self.lo_open = bound, open_

    def narrow_high(self, bound: float, open_: bool) -> None:
        if bound < self.hi or (bound == self.hi and open_):
            self.hi, self.hi_open = bound, open_

    @property
    def empty(self) -> bool:
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_open or self.hi_open)

    def contains(self, x: float) -> bool:
        if x < self.lo or (x == self.lo and self.lo_open):
            return False
        if x > self.hi or (x == self.hi and self.hi_open):
            return False
        return True

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo:g}, {self.hi:g}{right}"


class Analyzer:
    """Checks statements against a schema/catalog without executing.

    ``engine`` supplies the table catalog (anything with ``table(name)``
    and ``table_names``); ``views`` the named CAD View registry.  Both
    are optional — with neither, only catalog-free checks (predicate
    logic, sizing caps) run, so the analyzer is usable on bare parsed
    statements.
    """

    def __init__(
        self,
        engine=None,
        views: Optional[Mapping[str, object]] = None,
    ):
        self.engine = engine
        self.views = views

    # -- entry point ------------------------------------------------------

    def analyze(self, stmt: Statement, text: str = "") -> AnalysisReport:
        """Produce the :class:`AnalysisReport` for one parsed statement."""
        report = AnalysisReport(text=text)
        self._dispatch(stmt, report)
        return report

    def _dispatch(self, stmt: Statement, report: AnalysisReport) -> None:
        if isinstance(stmt, ExplainStatement):
            self._dispatch(stmt.inner, report)
        elif isinstance(stmt, SelectStatement):
            self._select(stmt, report)
        elif isinstance(stmt, CreateCadViewStatement):
            self._create_cadview(stmt, report)
        elif isinstance(stmt, HighlightSimilarStatement):
            self._highlight(stmt, report)
        elif isinstance(stmt, ReorderRowsStatement):
            self._reorder(stmt, report)
        elif isinstance(stmt, DescribeStatement):
            self._resolve_table(stmt.table, stmt, "table", report)
        elif isinstance(stmt, DropCadViewStatement):
            self._resolve_view(stmt.name, stmt, report)
        # ShowCadViewsStatement and unknown statements: nothing to check

    # -- shared helpers ---------------------------------------------------

    @staticmethod
    def _span(stmt: Statement, key: str) -> Optional[Tuple[int, int]]:
        spans = getattr(stmt, "spans", None)
        return spans.get(key) if spans else None

    def _resolve_table(
        self, name: str, stmt: Statement, key: str, report: AnalysisReport
    ) -> Optional[Table]:
        """The named table, or ``None`` (diagnosing when it is unknown)."""
        if self.engine is None:
            return None
        names = tuple(getattr(self.engine, "table_names", ()))
        if name in names:
            return self.engine.table(name)
        report.error(
            "QA101",
            f"unknown table {name!r}; registered: {sorted(names)}",
            span=self._span(stmt, key),
            suggestion=suggest(name, names),
        )
        return None

    def _check_column(
        self,
        name: str,
        table: Optional[Table],
        report: AnalysisReport,
        span: Optional[Tuple[int, int]],
        what: str = "column",
    ) -> bool:
        """True when ``name`` resolves (or no table is loaded)."""
        if table is None:
            return True
        if name in table.schema:
            return True
        report.error(
            "QA102",
            f"unknown {what} {name!r}",
            span=span,
            suggestion=suggest(name, table.schema.names),
        )
        return False

    def _resolve_view(
        self, name: str, stmt: Statement, report: AnalysisReport
    ):
        if self.views is None:
            return None
        if name in self.views:
            return self.views[name]
        report.error(
            "QA501",
            f"unknown CAD View {name!r}; have {sorted(self.views)}",
            span=self._span(stmt, "view"),
            suggestion=suggest(name, tuple(self.views)),
        )
        return None

    # -- SELECT -----------------------------------------------------------

    def _select(self, stmt: SelectStatement, report: AnalysisReport) -> None:
        table = self._resolve_table(stmt.table, stmt, "table", report)
        for i, col in enumerate(stmt.columns):
            self._check_column(
                col, table, report, self._span(stmt, f"select.{i}")
            )
        for i, key in enumerate(stmt.order_by):
            self._check_column(
                key.attribute, table, report, self._span(stmt, f"order.{i}"),
                what="ORDER BY attribute",
            )
        if stmt.where is not None:
            self._check_predicate(stmt.where, table, report)

    # -- CREATE CADVIEW ---------------------------------------------------

    def _create_cadview(
        self, stmt: CreateCadViewStatement, report: AnalysisReport
    ) -> None:
        table = self._resolve_table(stmt.table, stmt, "table", report)
        pivot_span = self._span(stmt, "pivot")
        if self._check_column(
            stmt.pivot, table, report, pivot_span, what="pivot attribute"
        ) and table is not None:
            attr = table.schema[stmt.pivot]
            col = table[stmt.pivot]
            if attr.kind.value == "numeric":
                report.warning(
                    "QA401",
                    f"pivot attribute {stmt.pivot!r} is numeric; it will "
                    f"be discretized into range bins — a categorical "
                    f"pivot usually reads better",
                    span=pivot_span,
                )
            if len(col) and col.missing_count() == len(col):
                report.error(
                    "QA402",
                    f"pivot attribute {stmt.pivot!r} has no non-missing "
                    f"values to pivot on",
                    span=pivot_span,
                )
            elif attr.is_categorical:
                distinct = len(col.distinct_values())
                if distinct > WIDE_PIVOT_WARNING:
                    report.warning(
                        "QA406",
                        f"pivot attribute {stmt.pivot!r} has {distinct} "
                        f"distinct values; the view will have one row "
                        f"(and one clustering pass) per value",
                        span=pivot_span,
                    )
        for i, col in enumerate(stmt.select):
            span = self._span(stmt, f"select.{i}")
            self._check_column(col, table, report, span)
            if col == stmt.pivot:
                report.warning(
                    "QA403",
                    f"pivot attribute {stmt.pivot!r} is also listed as a "
                    f"Compare Attribute; it would compare each pivot "
                    f"value with itself",
                    span=span,
                )
        if (
            stmt.limit_columns is not None
            and stmt.limit_columns > MAX_COMPARE_COLUMNS
        ):
            report.error(
                "QA404",
                f"LIMIT COLUMNS {stmt.limit_columns} exceeds the "
                f"cap of {MAX_COMPARE_COLUMNS}",
                span=self._span(stmt, "limit_columns"),
            )
        if stmt.iunits is not None and stmt.iunits > MAX_IUNITS:
            report.error(
                "QA405",
                f"IUNITS {stmt.iunits} exceeds the cap of {MAX_IUNITS}",
                span=self._span(stmt, "iunits"),
            )
        for i, key in enumerate(stmt.order_by):
            span = self._span(stmt, f"order.{i}")
            if not self._check_column(
                key.attribute, table, report, span,
                what="ORDER BY attribute",
            ):
                continue
            if table is not None and \
                    table.schema[key.attribute].is_categorical:
                report.error(
                    "QA407",
                    f"CADVIEW ORDER BY needs a numeric attribute; "
                    f"{key.attribute!r} is categorical",
                    span=span,
                )
            elif key.attribute not in stmt.select and stmt.select:
                report.warning(
                    "QA408",
                    f"ORDER BY attribute {key.attribute!r} is not in the "
                    f"SELECT list; the build fails unless it is "
                    f"auto-chosen as a Compare Attribute",
                    span=span,
                )
        if stmt.where is not None:
            self._check_predicate(stmt.where, table, report)

    # -- in-view search statements ----------------------------------------

    def _highlight(
        self, stmt: HighlightSimilarStatement, report: AnalysisReport
    ) -> None:
        view = self._resolve_view(stmt.view, stmt, report)
        if view is None:
            return
        self._check_pivot_value(stmt, view, report)
        row = dict(view.rows).get(stmt.pivot_value)
        if stmt.iunit_id < 1 or (
            row is not None and stmt.iunit_id > len(row)
        ):
            have = len(row) if row is not None else 0
            report.error(
                "QA503",
                f"IUnit id {stmt.iunit_id} out of range for pivot value "
                f"{stmt.pivot_value!r} (row has {have} IUnit(s))",
                span=self._span(stmt, "iunit_id"),
            )
        max_sim = len(view.compare_attributes)
        if stmt.threshold < 0 or stmt.threshold > max_sim:
            report.warning(
                "QA504",
                f"similarity threshold {stmt.threshold:g} is outside "
                f"[0, {max_sim}], the attainable range for "
                f"{max_sim} Compare Attribute(s)",
                span=self._span(stmt, "threshold"),
            )

    def _reorder(
        self, stmt: ReorderRowsStatement, report: AnalysisReport
    ) -> None:
        view = self._resolve_view(stmt.view, stmt, report)
        if view is None:
            return
        self._check_pivot_value(stmt, view, report)

    def _check_pivot_value(self, stmt, view, report: AnalysisReport) -> None:
        values = tuple(view.pivot_values)
        if stmt.pivot_value not in values:
            report.error(
                "QA502",
                f"pivot value {stmt.pivot_value!r} is not a row of view "
                f"{stmt.view!r}",
                span=self._span(stmt, "pivot_value"),
                suggestion=suggest(stmt.pivot_value, values),
            )

    # -- predicates -------------------------------------------------------

    def _check_predicate(
        self,
        pred: Predicate,
        table: Optional[Table],
        report: AnalysisReport,
    ) -> None:
        for leaf in self._leaves(pred):
            self._check_leaf(leaf, table, report)
        self._check_logic(pred, report, whole_and=True, whole_or=True)

    @staticmethod
    def _leaves(pred: Predicate) -> List[Predicate]:
        out: List[Predicate] = []
        stack = [pred]
        while stack:
            node = stack.pop()
            if isinstance(node, (And, Or)):
                stack.extend(node.children)
            elif isinstance(node, Not):
                stack.append(node.child)
            elif not isinstance(node, TruePred):
                out.append(node)
        return out

    def _check_leaf(
        self,
        leaf: Predicate,
        table: Optional[Table],
        report: AnalysisReport,
    ) -> None:
        attr_name = leaf.attributes()[0]
        span = getattr(leaf, "attr_span", None)
        if not self._check_column(attr_name, table, report, span):
            return
        if table is None:
            return
        attr = table.schema[attr_name]
        if not attr.queriable:
            report.warning(
                "QA205",
                f"attribute {attr_name!r} is hidden (not queriable); the "
                f"front-end query panel cannot express this predicate",
                span=span,
            )
        if isinstance(leaf, (Cmp, Between)) and attr.is_categorical:
            op = leaf.op if isinstance(leaf, Cmp) else "BETWEEN"
            report.error(
                "QA201",
                f"ordering comparison {op!r} on categorical attribute "
                f"{attr_name!r}; only = / <> / IN apply",
                span=span,
            )
            return
        values: Sequence = ()
        if isinstance(leaf, (Eq, Ne)):
            values = (leaf.value,)
        elif isinstance(leaf, In):
            values = leaf.values
        if not values:
            return
        if attr.is_numeric:
            bad = [v for v in values if not _is_float(v)]
            if bad:
                report.error(
                    "QA202",
                    f"non-numeric value(s) {bad!r} compared against "
                    f"numeric attribute {attr_name!r}",
                    span=span,
                )
        else:
            numeric = [v for v in values if not isinstance(v, str)]
            if numeric:
                report.warning(
                    "QA203",
                    f"numeric literal(s) {numeric!r} matched against "
                    f"categorical attribute {attr_name!r}; the match is "
                    f"textual",
                    span=span,
                )
            col = table[attr_name]
            missing = [
                v for v in values if col.code_of(str(v)) < 0
            ]
            if missing and isinstance(leaf, (Eq, In)) and \
                    len(missing) == len(values):
                report.warning(
                    "QA204",
                    f"value(s) {missing!r} never occur in "
                    f"{attr_name!r}; this predicate matches no row",
                    span=span,
                )

    # -- predicate logic: contradictions / tautologies --------------------

    def _check_logic(
        self,
        pred: Predicate,
        report: AnalysisReport,
        whole_and: bool,
        whole_or: bool,
    ) -> None:
        """Recursive contradiction/tautology scan.

        An empty And empties the whole WHERE only when every node above
        it is an And (``whole_and``); an always-true Or makes the whole
        WHERE true only when every node above it is an Or (``whole_or``).
        Anything under a NOT or the other connective is recursed for its
        own sub-structure but never reported as the WHERE's outcome.
        """
        if isinstance(pred, Not):
            self._check_logic(pred.child, report, False, False)
            return
        if isinstance(pred, And):
            self._dup_check(pred.children, "conjunct", report)
            if whole_and:
                self._contradiction_check(pred, report)
            for child in pred.children:
                self._check_logic(child, report, whole_and, False)
            return
        if isinstance(pred, Or):
            self._dup_check(pred.children, "disjunct", report)
            if whole_or:
                self._tautology_check(pred, report)
            for child in pred.children:
                self._check_logic(child, report, False, whole_or)

    def _dup_check(
        self,
        children: Sequence[Predicate],
        what: str,
        report: AnalysisReport,
    ) -> None:
        seen: Dict[str, int] = {}
        for child in children:
            sql = child.to_sql()
            seen[sql] = seen.get(sql, 0) + 1
        for sql, count in seen.items():
            if count > 1:
                report.warning(
                    "QA303",
                    f"duplicate {what} ({sql}) appears {count} times",
                )

    def _contradiction_check(
        self, node: And, report: AnalysisReport
    ) -> None:
        intervals: Dict[str, _Interval] = {}
        eq_values: Dict[str, set] = {}
        ne_values: Dict[str, set] = {}
        in_sets: Dict[str, set] = {}

        def reject(attr: str, why: str) -> None:
            report.error(
                "QA301",
                f"contradictory constraints on {attr!r}: {why}; the "
                f"WHERE clause matches no row",
            )

        for child in node.children:
            if isinstance(child, Cmp):
                iv = intervals.setdefault(child.attr, _Interval())
                if child.op in (">", ">="):
                    iv.narrow_low(child.value, child.op == ">")
                else:
                    iv.narrow_high(child.value, child.op == "<")
            elif isinstance(child, Between):
                iv = intervals.setdefault(child.attr, _Interval())
                iv.narrow_low(child.lo, False)
                iv.narrow_high(child.hi, False)
            elif isinstance(child, Eq):
                eq_values.setdefault(child.attr, set()).add(
                    self._canon(child.value)
                )
            elif isinstance(child, Ne):
                ne_values.setdefault(child.attr, set()).add(
                    self._canon(child.value)
                )
            elif isinstance(child, In):
                canon = {self._canon(v) for v in child.values}
                prev = in_sets.get(child.attr)
                in_sets[child.attr] = (
                    canon if prev is None else prev & canon
                )

        for attr, iv in intervals.items():
            if iv.empty:
                reject(attr, f"the value range {iv} is empty")
        for attr, eqs in eq_values.items():
            if len(eqs) > 1:
                reject(attr, f"equal to {len(eqs)} different values")
                continue
            (value,) = eqs
            iv = intervals.get(attr)
            if iv is not None and not iv.empty and \
                    isinstance(value, float) and not iv.contains(value):
                reject(attr, f"= {value:g} lies outside the range {iv}")
            if value in ne_values.get(attr, ()):
                reject(attr, f"both = and <> the same value")
            ins = in_sets.get(attr)
            if ins is not None and value not in ins:
                reject(attr, "the = value is outside the IN list")
        for attr, ins in in_sets.items():
            if not ins:
                reject(attr, "the IN lists have no common value")
                continue
            iv = intervals.get(attr)
            if iv is not None and not iv.empty and all(
                isinstance(v, float) and not iv.contains(v) for v in ins
            ):
                reject(attr, f"every IN value lies outside {iv}")

    def _tautology_check(self, node: Or, report: AnalysisReport) -> None:
        always = False
        if any(isinstance(c, TruePred) for c in node.children):
            always = True
        attrs = {a for c in node.children for a in c.attributes()}
        if not always and len(attrs) == 1:
            lows: List[Tuple[float, bool]] = []   # (bound, closed)
            highs: List[Tuple[float, bool]] = []
            eqs, nes = set(), set()
            for c in node.children:
                if isinstance(c, Cmp):
                    if c.op in (">", ">="):
                        lows.append((c.value, c.op == ">="))
                    else:
                        highs.append((c.value, c.op == "<="))
                elif isinstance(c, Eq):
                    eqs.add(self._canon(c.value))
                elif isinstance(c, Ne):
                    nes.add(self._canon(c.value))
            for lo, lo_closed in lows:
                for hi, hi_closed in highs:
                    if lo < hi or (lo == hi and (lo_closed or hi_closed)):
                        always = True
            if eqs & nes:
                always = True
        if always:
            report.warning(
                "QA302",
                "the WHERE clause is always true; it filters nothing",
            )

    @staticmethod
    def _canon(value):
        """Literal in comparable form: floats for numbers, str otherwise."""
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str) and _is_float(value):
            return float(value)
        return value
