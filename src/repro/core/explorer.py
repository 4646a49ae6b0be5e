"""DBExplorer: the statement-level facade tying everything together.

Executes the paper's SQL dialect end-to-end: ordinary SELECTs through
the query engine, ``CREATE CADVIEW`` through the builder (with the
statement's LIMIT COLUMNS / IUNITS / ORDER BY honored), and the two
in-view search statements against the named-view registry.

>>> dbx = DBExplorer()
>>> dbx.register("UsedCars", cars)
>>> cad = dbx.execute('''CREATE CADVIEW CompareMakes AS
...     SET pivot = Make SELECT Price FROM UsedCars
...     WHERE BodyType = SUV LIMIT COLUMNS 5 IUNITS 3''')
>>> hits = dbx.execute(
...     "HIGHLIGHT SIMILAR IUNITS IN CompareMakes "
...     "WHERE SIMILARITY(Chevrolet, 3) > 3.5")
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.builder import CADViewBuilder
from repro.core.cadview import CADView, CADViewConfig, IUnitRef
from repro.core.render import render_cadview
from repro.dataset.table import Table
from repro.errors import (
    AnalysisError,
    BudgetExceededError,
    CADViewError,
    ConvergenceError,
    OverloadedError,
    ParseError,
    QueryCancelledError,
    QueryError,
)
from repro.obs import work
from repro.obs.export import render_trace
from repro.obs.tracer import Tracer
from repro.obs.worklog import (
    NO_WORKLOG,
    WorkLogWriter,
    statement_kind,
)
from repro.robustness import (
    Budget,
    BuildReport,
    CancelToken,
    FaultInjector,
)
from repro.serve.registry import ViewRegistry
from repro.iunits.iunit import IUnit
from repro.query.ast import (
    CreateCadViewStatement,
    DescribeStatement,
    DropCadViewStatement,
    ExplainStatement,
    HighlightSimilarStatement,
    OrderKey,
    ReorderRowsStatement,
    SelectStatement,
    ShowCadViewsStatement,
    Statement,
)
from repro.query.analyzer import Analyzer, AnalyzerLimits
from repro.query.diagnostics import AnalysisReport
from repro.query.engine import QueryEngine
from repro.query.parser import parse

__all__ = ["DBExplorer", "Session"]

ExecuteResult = Union[str, Table, CADView, List[Tuple[IUnitRef, float]]]

DEFAULT_SESSION = "default"


@dataclass
class Session:
    """Per-session execution state: what one logical user last did.

    Tables and named views are shared across sessions (the catalog);
    the *results of the most recent statement* — the build report and
    the analyzer report — are per-session, so concurrent sessions never
    clobber each other's ``last_report``.
    """

    name: str = DEFAULT_SESSION
    last_report: Optional[BuildReport] = None
    last_analysis: Optional[AnalysisReport] = None
    last_work: Optional[Dict[str, int]] = None
    statements: int = 0


@dataclass
class _ExecContext:
    """Per-call overrides threaded through one ``execute()``."""

    session: Session
    cancel: Optional[CancelToken] = None
    budget: Optional[Budget] = field(default=None)
    faults: Optional[FaultInjector] = None
    # sentinel handling: budget=None means "no override" (use the
    # explorer default); an explicit Budget overrides it — the serving
    # layer passes a degraded budget while a breaker is open
    budget_set: bool = False


class DBExplorer:
    """Register tables, run statements, keep named CAD Views.

    ``budget`` bounds every ``CREATE CADVIEW`` this instance executes
    (wall-clock deadline, row caps, retry counts); ``faults`` injects
    deterministic failures for testing.  Defaults: unbudgeted, no
    faults — and ``faults`` falls back to the ``REPRO_FAULTS``
    environment variable so a deployment can smoke-test its degradation
    paths without code changes.
    """

    def __init__(
        self,
        config: CADViewConfig = CADViewConfig(),
        budget: Optional[Budget] = None,
        faults: Optional[FaultInjector] = None,
        tracer: Optional[Tracer] = None,
        analyzer_limits: Optional[AnalyzerLimits] = None,
        worklog: Optional[WorkLogWriter] = None,
    ):
        self.engine = QueryEngine()
        self.config = config
        self.budget = budget
        self.faults = faults if faults is not None else (
            FaultInjector.from_env()
        )
        self.tracer = tracer
        self.analyzer_limits = (
            analyzer_limits if analyzer_limits is not None
            else AnalyzerLimits()
        )
        # like faults: the REPRO_WORKLOG env var enables capture without
        # code changes; an explicit writer (or NO_WORKLOG) overrides it
        self.worklog = worklog if worklog is not None else (
            WorkLogWriter.from_env() or NO_WORKLOG
        )
        self._views = ViewRegistry()
        self._sessions: Dict[str, Session] = {
            DEFAULT_SESSION: Session(DEFAULT_SESSION)
        }
        self._sessions_lock = threading.Lock()

    # -- sessions ----------------------------------------------------------

    def session(self, name: str = DEFAULT_SESSION) -> Session:
        """Get or create the named :class:`Session` (thread-safe)."""
        with self._sessions_lock:
            sess = self._sessions.get(name)
            if sess is None:
                sess = self._sessions[name] = Session(name)
            return sess

    def _resolve_session(
        self, session: Optional[Union[str, Session]]
    ) -> Session:
        if session is None:
            return self._sessions[DEFAULT_SESSION]
        if isinstance(session, Session):
            return session
        return self.session(session)

    @property
    def last_report(self) -> Optional[BuildReport]:
        """The most recent CADVIEW build report (default session)."""
        return self._sessions[DEFAULT_SESSION].last_report

    # -- catalog -----------------------------------------------------------

    def register(self, name: str, table: Table) -> None:
        """Register a table for FROM clauses."""
        self.engine.register(name, table)

    def view(self, name: str) -> CADView:
        """Look up a named CAD View created earlier."""
        return self._views.get_view(name)

    @property
    def views(self) -> ViewRegistry:
        """The copy-on-write named-view catalog (shared by sessions)."""
        return self._views

    # -- execution -------------------------------------------------------------

    def execute(
        self,
        sql: str,
        *,
        session: Optional[Union[str, Session]] = None,
        cancel: Optional[CancelToken] = None,
        budget: Optional[Budget] = None,
        faults: Optional[FaultInjector] = None,
    ) -> ExecuteResult:
        """Parse, analyze and run one statement.

        The semantic analyzer (:mod:`repro.query.analyzer`) gates every
        statement before anything executes: ERROR-severity diagnostics
        raise :class:`~repro.errors.AnalysisError` without touching the
        engine or builder; warnings are kept on :attr:`last_analysis`
        (and, for CADVIEW builds, attached to the build report and the
        trace).  Plain ``EXPLAIN`` is exempt — describing a plan is safe
        and useful even for a statement the analyzer would reject.

        When a workload log is attached (the ``worklog`` constructor
        argument or ``REPRO_WORKLOG``), every call appends one record —
        including statements rejected by the parser or the analyzer, so
        a replayed session fails exactly where the original did.

        The keyword-only arguments are the serving layer's hooks — all
        optional and inert by default:

        ``session``
            The :class:`Session` (or its name) whose ``last_report`` /
            ``last_analysis`` this statement updates; ``None`` uses the
            shared default session (single-user behavior).
        ``cancel``
            A :class:`~repro.robustness.CancelToken` checked at every
            budget checkpoint of a CADVIEW build.
        ``budget`` / ``faults``
            Per-call overrides of the explorer-level defaults (the
            executor passes a degraded budget while a circuit breaker
            is open, and a forked injector per admitted statement).
        """
        sess = self._resolve_session(session)
        ctx = _ExecContext(
            sess, cancel=cancel, budget=budget, faults=faults,
            budget_set=budget is not None,
        )
        start = time.perf_counter()
        report_before = sess.last_report
        stmt = None
        # the deterministic work counters for this statement accumulate
        # in a context-local scope (concurrent sessions on executor
        # threads each get their own), and roll up onto the statement's
        # tracer spans for EXPLAIN ANALYZE
        with work.track(self.tracer) as counters:
            try:
                stmt = parse(sql)
                result = self._execute(stmt, sql, ctx)
            except BaseException as exc:
                sess.last_work = counters.as_dict()
                self._log_statement(
                    sql, stmt, start, report_before, ctx, error=exc
                )
                raise
            sess.last_work = counters.as_dict()
        self._log_statement(
            sql, stmt, start, report_before, ctx, result=result
        )
        return result

    def _execute(
        self, stmt: Statement, sql: str, ctx: _ExecContext
    ) -> ExecuteResult:
        """The analyzer gate and dispatch behind :meth:`execute`."""
        sess = ctx.session
        sess.last_analysis = None
        sess.statements += 1
        plain_explain = (
            isinstance(stmt, ExplainStatement)
            and not stmt.analyze and not stmt.check
        )
        if not plain_explain:
            report = self.analyze(stmt, text=sql)
            if not report.ok:
                raise AnalysisError(report)
            sess.last_analysis = report
            if isinstance(stmt, ExplainStatement) and stmt.check:
                return report.render()
        return self._dispatch(stmt, ctx)

    # -- workload logging ---------------------------------------------------

    def _log_statement(
        self,
        sql: str,
        stmt: Optional[Statement],
        start_s: float,
        report_before: Optional[BuildReport],
        ctx: _ExecContext,
        result: Optional[ExecuteResult] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Append one statement record to the attached workload log."""
        if not self.worklog.enabled:
            return
        elapsed_ms = (time.perf_counter() - start_s) * 1e3
        # only a build that ran during THIS statement contributes its
        # phase timings/degradations (identity check: every build makes
        # a fresh BuildReport)
        report = ctx.session.last_report
        if report is report_before:
            report = None
        phases_ms = rows_in = pivot = None
        degradations: List[str] = []
        if report is not None:
            if report.profile is not None:
                phases_ms = {
                    "compare_attrs": report.profile.compare_attrs_s * 1e3,
                    "iunits": report.profile.iunits_s * 1e3,
                    "others": report.profile.others_s * 1e3,
                }
            degradations = [str(d) for d in report.degradations]
            if report.trace is not None:
                rows = report.trace.attrs.get("rows_in")
                rows_in = int(rows) if rows is not None else None
        if isinstance(stmt, CreateCadViewStatement):
            pivot = stmt.pivot
        analysis = ctx.session.last_analysis
        warnings = (
            [str(d) for d in analysis.warnings]
            if analysis is not None else []
        )
        self.worklog.statement(
            sql,
            statement_kind(stmt),
            _statement_status(error),
            elapsed_ms,
            rows_in=rows_in,
            rows_out=_result_rows(result),
            pivot=pivot,
            phases_ms=phases_ms,
            degradations=degradations,
            analysis_warnings=warnings,
            error=(
                f"{type(error).__name__}: {error}"
                if error is not None else None
            ),
            session=ctx.session.name,
            work=ctx.session.last_work,
        )

    def analyze(
        self, stmt_or_sql: Union[str, Statement], text: str = ""
    ) -> AnalysisReport:
        """Run the semantic analyzer without executing anything.

        Accepts either SQL text or an already-parsed statement; checks
        it against the registered tables and CAD Views and returns the
        full :class:`~repro.query.diagnostics.AnalysisReport`.
        """
        if isinstance(stmt_or_sql, str):
            text = stmt_or_sql
            stmt = parse(stmt_or_sql)
        else:
            stmt = stmt_or_sql
        analyzer = Analyzer(
            engine=self.engine, views=self._views,
            limits=self.analyzer_limits,
        )
        return analyzer.analyze(stmt, text=text)

    @property
    def last_analysis(self) -> Optional[AnalysisReport]:
        """The analyzer report of the most recent gated ``execute``."""
        return self._sessions[DEFAULT_SESSION].last_analysis

    def _dispatch(
        self, stmt: Statement, ctx: Optional[_ExecContext] = None
    ) -> ExecuteResult:
        ctx = ctx if ctx is not None else _ExecContext(
            self._sessions[DEFAULT_SESSION]
        )
        if isinstance(stmt, ExplainStatement):
            return self._explain(stmt, ctx)
        if isinstance(stmt, SelectStatement):
            return self._select(stmt)
        if isinstance(stmt, CreateCadViewStatement):
            return self._create_cadview(stmt, ctx=ctx)
        if isinstance(stmt, HighlightSimilarStatement):
            view = self.view(stmt.view)
            return view.similar_iunits(
                stmt.pivot_value, stmt.iunit_id, stmt.threshold
            )
        if isinstance(stmt, ReorderRowsStatement):
            view = self.view(stmt.view)
            reordered = view.reorder_by_similarity(stmt.pivot_value)
            if not stmt.descending:
                order = [reordered.pivot_values[0]] + list(
                    reversed(reordered.pivot_values[1:])
                )
                reordered = CADView(
                    reordered.name, reordered.pivot_attribute, order,
                    reordered.compare_attributes, reordered.rows,
                    reordered.view, reordered.config, reordered.profile,
                    reordered.candidates, reordered.report,
                )
            self._views.set(stmt.view, reordered)
            return reordered
        if isinstance(stmt, DescribeStatement):
            return self._describe(stmt.table)
        if isinstance(stmt, ShowCadViewsStatement):
            return sorted(self._views.snapshot())
        if isinstance(stmt, DropCadViewStatement):
            self._views.drop(stmt.name)
            return sorted(self._views.snapshot())
        raise QueryError(f"cannot execute statement {stmt!r}")

    def render(self, view_name: str, **kwargs) -> str:
        """ASCII-render a named view (see :func:`render_cadview`)."""
        return render_cadview(self.view(view_name), **kwargs)

    # -- statement handlers -------------------------------------------------

    def _describe(self, table_name: str) -> List[Tuple[str, str, str]]:
        """(name, kind, queriable/hidden) rows for DESCRIBE."""
        table = self.engine.table(table_name)
        return [
            (a.name, a.kind.value,
             "queriable" if a.queriable else "hidden")
            for a in table.schema
        ]

    def _select(self, stmt: SelectStatement) -> Table:
        return self.engine.select(
            self.engine.table(stmt.table), stmt.where,
            stmt.columns or None, stmt.limit,
            by=[k.attribute for k in stmt.order_by],
            ascending=[k.ascending for k in stmt.order_by],
        )

    def _create_cadview(
        self,
        stmt: CreateCadViewStatement,
        tracer: Optional[Tracer] = None,
        ctx: Optional[_ExecContext] = None,
    ) -> CADView:
        ctx = ctx if ctx is not None else _ExecContext(
            self._sessions[DEFAULT_SESSION]
        )
        table = self.engine.table(stmt.table)
        result = self.engine.select(table, stmt.where)
        config = self.config
        if stmt.limit_columns is not None:
            config = config.with_(compare_limit=stmt.limit_columns)
        if stmt.iunits is not None:
            config = config.with_(iunits_k=stmt.iunits)
        builder = CADViewBuilder(
            config,
            budget=ctx.budget if ctx.budget_set else self.budget,
            faults=ctx.faults if ctx.faults is not None else self.faults,
        )
        cad = builder.build(
            result,
            pivot=stmt.pivot,
            pinned=stmt.select,
            name=stmt.name,
            tracer=tracer if tracer is not None else self.tracer,
            cancel=ctx.cancel,
        )
        ctx.session.last_report = cad.report
        analysis = ctx.session.last_analysis
        if cad.report is not None and analysis is not None:
            for diag in analysis.warnings:
                cad.report.record_analysis_warning(str(diag))
        if stmt.order_by:
            cad = _sort_iunits(cad, stmt.order_by)
        self._views.set(stmt.name, cad)
        return cad

    # -- EXPLAIN ------------------------------------------------------------

    def _explain(
        self, stmt: ExplainStatement, ctx: Optional[_ExecContext] = None
    ) -> str:
        """``EXPLAIN`` renders the plan; ``EXPLAIN ANALYZE`` runs it.

        ANALYZE executes the inner statement under a dedicated
        :class:`Tracer` and returns the rendered span tree — for CADVIEW
        builds that is the full pipeline trace plus a reconciliation of
        the trace's Figure-8 bucket totals against the legacy
        :class:`~repro.core.profile.BuildProfile` and the build report.
        """
        if stmt.check:
            report = self.analyze(stmt.inner)
            if not report.ok:
                raise AnalysisError(report)
            return report.render()
        if not stmt.analyze:
            return "\n".join(self._plan_lines(stmt.inner))
        tracer = Tracer("explain")
        # the statement's work scope opened before this dedicated tracer
        # existed; redirect span rollups here so the rendered trace
        # carries per-phase work counters
        work.attach(tracer)
        if isinstance(stmt.inner, CreateCadViewStatement):
            cad = self._create_cadview(stmt.inner, tracer=tracer, ctx=ctx)
            root = tracer.finish()
            build = root.find("cadview.build")
            top = build[0] if build else root
            lines = [render_trace(top)]
            if cad.profile is not None:
                lines.append("")
                lines.append("bucket reconciliation (trace vs profile):")
                for bucket, legacy in (
                    ("compare_attrs", cad.profile.compare_attrs_s),
                    ("iunits", cad.profile.iunits_s),
                    ("others", cad.profile.others_s),
                ):
                    lines.append(
                        f"  {bucket:<14} trace={top.bucket_total(bucket) * 1e3:.1f}ms"
                        f"  profile={legacy * 1e3:.1f}ms"
                    )
            if cad.report is not None:
                lines.append("")
                lines.extend(cad.report.lines())
            lines.extend(_work_lines())
            return "\n".join(lines)
        with tracer.span("execute", statement=type(stmt.inner).__name__):
            self._dispatch(stmt.inner, ctx)
        lines = [render_trace(tracer.finish())]
        lines.extend(_work_lines())
        return "\n".join(lines)

    def _plan_lines(self, stmt: Statement) -> List[str]:
        """Textual plan outline of what executing ``stmt`` would do."""
        if isinstance(stmt, CreateCadViewStatement):
            lines = [
                f"CREATE CADVIEW {stmt.name} (pivot={stmt.pivot})",
                f"  scan: {stmt.table}"
                + (" with WHERE filter" if stmt.where else ""),
                "  discretize [others]",
                "  compare_attrs [compare_attrs]: chi-square ranking"
                + (f", pinned={list(stmt.select)}" if stmt.select else ""),
                "  per pivot value:",
                "    iunits [iunits]: k-means candidate generation",
                "    topk [others]: diversified top-k (div-astar)",
            ]
            if stmt.order_by:
                lines.append("  reorder iunits by ORDER BY keys")
            return lines
        if isinstance(stmt, SelectStatement):
            lines = [
                f"SELECT from {stmt.table}",
                "  scan: " + stmt.table
                + (" with WHERE filter" if stmt.where else ""),
            ]
            if stmt.order_by:
                lines.append("  sort: " + ", ".join(
                    k.attribute for k in stmt.order_by
                ))
            if stmt.limit is not None:
                lines.append(f"  limit: {stmt.limit}")
            return lines
        return [f"execute: {type(stmt).__name__}"]


def _statement_status(error: Optional[BaseException]) -> str:
    """Map an execute() outcome onto the worklog status vocabulary.

    The buckets mirror the CLI exit-code contract (0 ok / 1 usage /
    2 build failed / 3 budget exhausted) with the two pre-execution
    rejections split out, so a replayed log can be compared rung by
    rung.
    """
    if error is None:
        return "ok"
    if isinstance(error, BudgetExceededError):
        return "budget_exhausted"
    if isinstance(error, AnalysisError):
        return "analysis_error"
    if isinstance(error, ParseError):
        return "parse_error"
    if isinstance(error, QueryCancelledError):
        return "cancelled"
    if isinstance(error, OverloadedError):
        return "rejected"
    if isinstance(error, (CADViewError, ConvergenceError)):
        return "build_failed"
    return "error"


def _work_lines() -> List[str]:
    """The deterministic ``work counters:`` block of EXPLAIN ANALYZE.

    Values come from the statement's context accumulator, so this block
    is byte-identical for the same statement over the same data no
    matter how the run is scheduled — unlike the timed trace lines
    above it.  Empty when no counted kernel ran (or no work scope is
    open, e.g. ``_explain`` called outside ``execute``).
    """
    counters = work.current()
    if counters is None or not counters.counts:
        return []
    lines = ["", "work counters:"]
    lines.extend(
        f"  {name} = {value}"
        for name, value in counters.as_dict().items()
    )
    return lines


def _result_rows(result: Optional[ExecuteResult]) -> Optional[int]:
    """The result-set size of one statement, when it has one."""
    if isinstance(result, Table):
        return len(result)
    if isinstance(result, CADView):
        return len(result.pivot_values)
    if isinstance(result, list):
        return len(result)
    return None


def _sort_iunits(cad: CADView, keys: Tuple[OrderKey, ...]) -> CADView:
    """Re-rank each row's IUnits by ORDER BY keys (paper Sec. 2.1.2).

    Keys must be binned numeric Compare Attributes; IUnits sort on the
    frequency-weighted mean bin midpoint.
    """
    midpoint_cache: Dict[str, np.ndarray] = {}
    for key in keys:
        if key.attribute not in cad.compare_attributes:
            raise CADViewError(
                f"ORDER BY attribute {key.attribute!r} is not a Compare "
                f"Attribute of this view"
            )
        if not cad.view.is_binned(key.attribute):
            raise CADViewError(
                f"ORDER BY needs a numeric attribute, "
                f"{key.attribute!r} is categorical"
            )
        midpoint_cache[key.attribute] = np.array(
            [(b.lo + b.hi) / 2.0 for b in cad.view.bins(key.attribute)]
        )

    def sort_key(unit: IUnit):
        parts = []
        for key in keys:
            dist = np.asarray(unit.distributions[key.attribute], dtype=float)
            total = dist.sum()
            mean = (
                float(np.dot(dist, midpoint_cache[key.attribute]) / total)
                if total else float("inf")
            )
            parts.append(mean if key.ascending else -mean)
        return tuple(parts)

    rows = {}
    for value in cad.pivot_values:
        ordered = sorted(cad.rows[value], key=sort_key)
        rows[value] = [
            u.with_uid(rank) for rank, u in enumerate(ordered, start=1)
        ]
    return CADView(
        cad.name, cad.pivot_attribute, cad.pivot_values,
        cad.compare_attributes, rows, cad.view, cad.config, cad.profile,
        cad.candidates, cad.report,
    )
