"""Dependency-aware concurrent replay and the stress driver.

``repro replay --concurrency N`` re-executes a captured workload log
through a :class:`~repro.serve.executor.SessionExecutor` pool — and the
point of the exercise is that *concurrency must not change answers*.
To keep that property checkable the harness is deterministic by
construction:

* Statements form a **read/write dependency DAG on view names**
  (:func:`statement_scopes`): ``CREATE CADVIEW`` / ``DROP`` /
  ``REORDER`` write a view, ``HIGHLIGHT`` / ``REORDER`` read one,
  ``SHOW CADVIEWS`` reads the whole catalog.  A statement is submitted
  only after every earlier statement it conflicts with has completed —
  the scheduling happens on the **driver thread**, never by blocking a
  pool worker on another ticket (that would deadlock a full pool).
* Each statement runs in its **own session** (``s<i>``) so
  ``last_report`` / ``last_analysis`` never race, and with its **own
  forked fault injector** (:meth:`~repro.robustness.faults.
  FaultInjector.fork`) so counting faults fire identically no matter
  how worker threads interleave.
* A deterministic run uses :func:`deterministic_config`: a queue sized
  to never reject, no deadline, and **no circuit breakers** — breaker
  state depends on cross-statement completion order, which is exactly
  the nondeterminism replay must exclude.  An unverified
  ``repro serve --stress`` keeps all three on to exercise rejections,
  the watchdog and the breakers under load.

Each statement's terminal state is captured as a :class:`StatementResult`
whose ``digest`` hashes the things the paper's user sees — status,
degradation rungs, and the full IUnit contents of a built view — and
deliberately nothing wall-clock.  Two replays of the same log at any
two concurrency levels must produce identical digest sequences.

:func:`run_stress` is the one driver behind ``replay --concurrency``,
``serve --stress`` and ``serve --stress --procs``: it replays the log
through a built server, compares the digests with a sequential replay
when asked to, applies the run gates, and returns a :class:`StressRun`
holding the report.
"""

from __future__ import annotations

import hashlib
import json
import queue
import re
import time
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.errors import ReproError, ServeError
from repro.query.ast import (
    CreateCadViewStatement,
    DropCadViewStatement,
    ExplainStatement,
    HighlightSimilarStatement,
    ReorderRowsStatement,
    ShowCadViewsStatement,
)
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.worklog import statement_kind
from repro.query.parser import parse
from repro.serve.executor import (
    OUTCOMES,
    ServeConfig,
    SessionExecutor,
    StatementTicket,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids serve<->core cycle
    from repro.core.explorer import DBExplorer

__all__ = [
    "StatementResult",
    "ConcurrentReplayReport",
    "StressRun",
    "chaos_plan",
    "deterministic_config",
    "replay_concurrent",
    "run_stress",
    "statement_scopes",
    "result_payload",
    "workload_statements",
]

_Config = TypeVar("_Config")

ALL_VIEWS = "*"
"""Scope marker: the statement touches the entire view catalog."""


def statement_scopes(sql: str) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """``(reads, writes)`` over view names for one statement.

    The scopes drive the replay scheduler's conflict edges (two
    statements conflict when either writes a view the other touches).
    :data:`ALL_VIEWS` in a set means "the whole catalog" (``SHOW
    CADVIEWS``).  Unparsable statements get empty scopes — they fail
    identically wherever they run, so they need no ordering.

    ``EXPLAIN`` conservatively inherits its inner statement's scopes:
    ``EXPLAIN ANALYZE CREATE CADVIEW`` really does build and register
    the view, and even a plain ``EXPLAIN`` is cheap enough that the
    lost parallelism from over-ordering it does not matter.
    """
    try:
        stmt = parse(sql)
    except ReproError:
        return frozenset(), frozenset()
    return _scopes_of(stmt)


def _scopes_of(stmt: object) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    if isinstance(stmt, ExplainStatement):
        return _scopes_of(stmt.inner)
    if isinstance(stmt, CreateCadViewStatement):
        return frozenset(), frozenset({stmt.name})
    if isinstance(stmt, DropCadViewStatement):
        # DROP returns the remaining catalog listing, so besides
        # removing one view it *reads* all of them
        return frozenset({ALL_VIEWS}), frozenset({stmt.name})
    if isinstance(stmt, ReorderRowsStatement):
        return frozenset({stmt.view}), frozenset({stmt.view})
    if isinstance(stmt, HighlightSimilarStatement):
        return frozenset({stmt.view}), frozenset()
    if isinstance(stmt, ShowCadViewsStatement):
        return frozenset({ALL_VIEWS}), frozenset()
    return frozenset(), frozenset()  # SELECT / DESCRIBE: no view deps


def _intersects(a: FrozenSet[str], b: FrozenSet[str]) -> bool:
    if not a or not b:
        return False
    if ALL_VIEWS in a or ALL_VIEWS in b:
        return True
    return not a.isdisjoint(b)


def _dependency_edges(
    scopes: List[Tuple[FrozenSet[str], FrozenSet[str]]],
) -> List[List[int]]:
    """``deps[i]`` = earlier statement indices ``i`` must wait for.

    Edges cover all three hazards on view names — read-after-write,
    write-after-write and write-after-read — so the replayed catalog
    passes through exactly the states the sequential session saw.
    """
    deps: List[List[int]] = [[] for _ in scopes]
    for i, (reads_i, writes_i) in enumerate(scopes):
        for j in range(i):
            reads_j, writes_j = scopes[j]
            if (
                _intersects(writes_j, reads_i)
                or _intersects(writes_j, writes_i)
                or _intersects(reads_j, writes_i)
            ):
                deps[i].append(j)
    return deps


@dataclass
class StatementResult:
    """The terminal state of one replayed statement."""

    index: int
    statement: str
    kind: str
    session: str
    status: str
    outcome: str
    digest: str
    degradations: List[str] = field(default_factory=list)
    error: Optional[str] = None
    attempts: int = 0
    # deterministic work counters of the final (digested) execution;
    # deliberately NOT part of the digest — they are gated on their own,
    # with exact equality, by the regression layer
    work: Optional[Dict[str, int]] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly dump (statement text omitted: it is an input)."""
        return {
            "index": self.index,
            "kind": self.kind,
            "status": self.status,
            "outcome": self.outcome,
            "digest": self.digest,
            "degradations": list(self.degradations),
            "error": self.error,
            "attempts": self.attempts,
            "work": dict(sorted(self.work.items())) if self.work else None,
        }


@dataclass
class ConcurrentReplayReport:
    """Everything one concurrent replay produced."""

    concurrency: int
    results: List[StatementResult] = field(default_factory=list)
    wall_s: float = 0.0
    breaker_states: Dict[str, str] = field(default_factory=dict)
    # corrupt worklog lines skipped while reading the input (the CLI
    # stamps this in; the harness itself never sees raw lines)
    corrupt_lines: int = 0

    @property
    def outcomes(self) -> Dict[str, int]:
        """Outcome -> count over all statements."""
        counts: Dict[str, int] = {}
        for res in self.results:
            counts[res.outcome] = counts.get(res.outcome, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def statuses(self) -> Dict[str, int]:
        """Worklog status -> count over all statements."""
        counts: Dict[str, int] = {}
        for res in self.results:
            counts[res.status] = counts.get(res.status, 0) + 1
        return dict(sorted(counts.items()))

    def work_totals(self) -> Dict[str, int]:
        """Summed deterministic work counters over all statements.

        Per-statement counts reflect each statement's *final* execution
        (retries and resubmissions re-run the same seeded build), so
        the totals byte-match across concurrency levels and serving
        modes — the property the exact-equality gate checks.
        """
        totals: Dict[str, int] = {}
        for res in self.results:
            for name, count in (res.work or {}).items():
                totals[name] = totals.get(name, 0) + count
        return dict(sorted(totals.items()))

    def mismatches(
        self, other: "ConcurrentReplayReport"
    ) -> List[Tuple[int, str, str]]:
        """``(index, ours, theirs)`` where the digests disagree."""
        out = []
        for mine, theirs in zip(self.results, other.results):
            if mine.digest != theirs.digest:
                out.append((mine.index, mine.digest, theirs.digest))
        if len(self.results) != len(other.results):
            out.append((-1, str(len(self.results)),
                        str(len(other.results))))
        return out

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly dump (what ``--json`` and the CI gate emit)."""
        return {
            "concurrency": self.concurrency,
            "statements": len(self.results),
            "corrupt_lines": self.corrupt_lines,
            "wall_s": self.wall_s,
            "outcomes": self.outcomes,
            "statuses": self.statuses,
            "breaker_states": dict(sorted(self.breaker_states.items())),
            "work": {"totals": self.work_totals()},
            "results": [res.as_dict() for res in self.results],
        }

    def render(self) -> str:
        """The human-readable report printed by the CLI."""
        outcome_text = "  ".join(
            f"{k}={v}" for k, v in self.outcomes.items()
        )
        lines = [
            f"== concurrent replay: {len(self.results)} statement(s) "
            f"at concurrency {self.concurrency} in {self.wall_s:.2f}s ==",
            f"outcomes: {outcome_text or '(none)'}",
        ]
        if self.corrupt_lines:
            lines.append(
                f"warning: {self.corrupt_lines} corrupt worklog line(s) "
                "skipped (rerun with --strict to fail on them)"
            )
        if self.breaker_states:
            lines.append("breakers: " + "  ".join(
                f"{k}={v}"
                for k, v in sorted(self.breaker_states.items())
            ))
        totals = self.work_totals()
        if totals:
            lines.append("work counters (deterministic, exact-gated):")
            lines.extend(
                f"  {name} = {count}" for name, count in totals.items()
            )
        for res in self.results:
            lines.append(
                f"#{res.index:<3} {res.status:<16} {res.outcome:<9} "
                f"{res.digest}  {res.kind}"
            )
        return "\n".join(lines)


def workload_statements(records: Iterable[Dict[str, object]]) -> List[str]:
    """The statement texts of a workload log, in order.

    ``records`` is :func:`~repro.obs.worklog.read_worklog` output;
    session headers, malformed records and blank statements are
    skipped, as the sequential replay skips them.
    """
    return [
        str(rec["statement"]) for rec in records
        if rec.get("kind") == "statement"
        and isinstance(rec.get("statement"), str)
        and str(rec["statement"]).strip()
    ]


def deterministic_config(config: _Config, statements: int) -> _Config:
    """A :class:`ServeConfig` or ``ProcServeConfig`` whose answers can
    be compared with a sequential replay of ``statements`` statements:
    admission wide open (nothing is rejected), no deadline and no
    breakers, all three of which act on wall-clock completion order."""
    return replace(
        config, queue_limit=statements + 1, deadline_s=None, breaker=None,
    )


def chaos_plan(statements: int) -> str:
    """An index-narrowed chaos plan over a ``statements``-long workload.

    Counting faults (never probabilistic) at fixed statement indices,
    so the same workload always produces the same chaos schedule — the
    precondition for ``--chaos --verify-sequential`` byte-identity.
    One crash early, one hang mid-run, one pipe drop late; short
    workloads get however many distinct indices they can hold.
    """
    sites = []
    crash = statements // 4
    sites.append(f"proc.worker_crash:{crash}=crash*1")
    hang = max(crash + 1, statements // 2)
    if hang < statements:
        # the sleep must outlive the supervisor's heartbeat timeout so
        # the missed-heartbeat detector (not the pipe) catches it
        sites.append(f"proc.worker_hang:{hang}=sleep:2.0*1")
    drop = max(hang + 1, (3 * statements) // 4)
    if drop < statements:
        sites.append(f"proc.pipe_drop:{drop}=crash*1")
    return ",".join(sites)


def replay_concurrent(
    records: Iterable[Dict[str, object]],
    dbx: Optional["DBExplorer"] = None,
    concurrency: int = 1,
    executor: Optional[object] = None,
) -> ConcurrentReplayReport:
    """Replay a workload log through a worker pool, deterministically.

    ``records`` is :func:`~repro.obs.worklog.read_worklog` output (see
    :func:`workload_statements`).  Without an ``executor`` this builds
    a :class:`SessionExecutor` over ``dbx`` with ``concurrency`` workers
    and :func:`deterministic_config`, and closes it afterwards.

    ``executor`` plugs in a built server instead — anything with the
    ``submit(sql, session=..., faults=..., fault_index=...)`` /
    ``breaker_states()`` surface: a :class:`SessionExecutor` (whose
    ``dbx`` then forks the per-statement faults) or a
    :class:`~repro.serve.proc.supervisor.ProcSupervisor` (proc tickets
    carry their own digest payloads).  It is *not* closed here (the
    caller owns its lifecycle, e.g. to drain it gracefully afterwards).
    If its config lets admission control, the watchdog or the breakers
    bite, rejected statements are recorded with outcome ``rejected``
    and their writes simply never happen, exactly like a client that
    got a 503.

    Returns a :class:`ConcurrentReplayReport` whose per-statement
    digests are comparable across concurrency levels — and across
    serving modes: thread pool and process shards hash identically.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    if dbx is None:
        dbx = getattr(executor, "dbx", None)
    if executor is None and dbx is None:
        raise ValueError("need a dbx to build an executor around")
    sqls = workload_statements(records)
    n = len(sqls)
    report = ConcurrentReplayReport(concurrency=concurrency)
    if n == 0:
        return report
    scopes = [statement_scopes(sql) for sql in sqls]
    deps = _dependency_edges(scopes)
    dependents: List[List[int]] = [[] for _ in range(n)]
    unmet = [0] * n
    for i, dep_list in enumerate(deps):
        unmet[i] = len(dep_list)
        for j in dep_list:
            dependents[j].append(i)

    base_faults = dbx.faults if dbx is not None else None
    results: List[Optional[StatementResult]] = [None] * n
    finished: "queue.Queue[Tuple[int, Optional[StatementTicket]]]" = (
        queue.Queue()
    )
    rejections: Dict[int, ServeError] = {}

    own_executor = executor is None
    if executor is None:
        executor = SessionExecutor(
            dbx, deterministic_config(ServeConfig(workers=concurrency), n)
        )
    t0 = time.perf_counter()
    try:
        def _submit(i: int) -> None:
            forked = (
                base_faults.fork(i) if base_faults is not None else None
            )
            try:
                ticket = executor.submit(
                    sqls[i], session=f"s{i}", faults=forked,
                    fault_index=i,
                )
            # an overloaded queue and a draining supervisor both say
            # "not now"; either way the statement is a clean rejection,
            # never a wedge
            except ServeError as exc:
                rejections[i] = exc
                finished.put((i, None))
                return
            ticket.add_done_callback(
                lambda t, i=i: finished.put((i, t))
            )

        for i in range(n):
            if unmet[i] == 0:
                _submit(i)
        done = 0
        while done < n:
            i, ticket = finished.get()
            results[i] = _result_of(i, sqls[i], ticket, rejections, dbx)
            done += 1
            for j in dependents[i]:
                unmet[j] -= 1
                if unmet[j] == 0:
                    _submit(j)
        report.breaker_states = executor.breaker_states()
    finally:
        if own_executor:
            executor.close()
    report.wall_s = time.perf_counter() - t0
    report.results = [res for res in results if res is not None]
    return report


@dataclass
class StressRun:
    """What one :func:`run_stress` call found.

    ``failures`` holds one line per failed gate, ``metrics`` the
    snapshot ``--slo`` evaluates, and ``drain``/``chaos``/``telemetry``
    a supervisor's state after the run (``None`` for a thread pool).
    """

    report: ConcurrentReplayReport
    metrics: Dict[str, object]
    failures: List[str] = field(default_factory=list)
    mismatches: List[Tuple[int, str, str]] = field(default_factory=list)
    drain: Optional[Dict[str, object]] = None
    chaos: Optional[Dict[str, object]] = None
    telemetry: Optional[Dict[str, object]] = None

    def as_dict(self) -> Dict[str, object]:
        """The ``--json`` document: the report plus a supervisor's state."""
        payload = self.report.as_dict()
        if self.drain is not None:
            payload.update(
                drain=self.drain, chaos=self.chaos, telemetry=self.telemetry,
            )
        return payload

    def render(self) -> str:
        """The human-readable report the CLI prints."""
        lines = [self.report.render()]
        if self.drain is not None:
            drain, chaos, tel = self.drain, self.chaos, self.telemetry
            lines += [
                f"drain: cancelled={drain['cancelled']} "
                f"clean={drain['clean']} exitcodes={drain['exitcodes']}",
                f"chaos: deaths={chaos['deaths']} "
                f"resubmits={chaos['resubmits']} "
                f"max_restart_delay={chaos['max_restart_delay_s']:.3f}s "
                f"wedged={chaos['wedged']}",
                f"telemetry: frames={tel['frames']} "
                f"workers={tel['workers_seen']} "
                f"spans={tel['span_trees']} "
                f"dropped={tel['dropped_total']:.0f}",
            ]
        return "\n".join(lines)


def run_stress(
    records: List[Dict[str, object]],
    server: Any,
    chaos: bool = False,
    baseline: Optional[Callable[[], "DBExplorer"]] = None,
    corrupt_lines: int = 0,
) -> StressRun:
    """Replay ``records`` through a built ``server``, then gate the run.

    ``server`` is a :class:`SessionExecutor` or a
    :class:`~repro.serve.proc.ProcSupervisor` (drained here after the
    replay; closing either stays with the caller).  Every statement
    must reach a terminal outcome, a supervisor must pass
    :func:`_supervisor_gates`, and with ``baseline``, a factory for an
    explorer configured like the server, every digest must equal that
    of a sequential replay through it.  A verified server should run
    :func:`deterministic_config`, or its admission rejections read as
    wrong answers.
    """
    supervisor = hasattr(server, "chaos_stats")
    report = replay_concurrent(
        records, executor=server,
        concurrency=(
            server.config.shards if supervisor else server.config.workers
        ),
    )
    report.corrupt_lines = corrupt_lines
    if supervisor:
        drain = server.drain()
        run = StressRun(
            report, server.telemetry.cluster_registry().snapshot(),
            drain=drain, chaos=server.chaos_stats(),
            telemetry=server.telemetry.stats(),
        )
        run.failures = _supervisor_gates(
            run.chaos, run.metrics.get("counters", {}),
            len(report.results), chaos,
        )
    else:
        run = StressRun(report, server.metrics.snapshot())
    dropped = [
        res.index for res in report.results if res.outcome not in OUTCOMES
    ]
    if dropped:
        run.failures.append(
            f"statements without a terminal outcome: {dropped}"
        )
    if baseline is not None:
        # the baseline counts into a registry of its own, so the
        # process registry (``--metrics``) holds the served run alone
        previous = set_registry(MetricsRegistry())
        try:
            sequential = replay_concurrent(
                records, baseline(), concurrency=1
            )
        finally:
            set_registry(previous)
        run.mismatches = sequential.mismatches(report)
        if run.mismatches:
            run.failures.append(
                f"{len(run.mismatches)} digest mismatch(es) vs the "
                "sequential replay"
            )
    return run


def _supervisor_gates(
    stats: Dict[str, object],
    counters: Dict[str, float],
    executed: int,
    chaos: bool,
) -> List[str]:
    """The supervision-tree gates over ``chaos_stats()`` and the
    cluster registry's counters: no ticket wedged, no restart waited
    past the backoff cap, and a ``chaos`` run saw a worker death (else
    it proved nothing) while a calm run saw none; a ``chaos`` run also
    conserves statements and counts its telemetry drops."""
    failures = []
    if stats["wedged"]:
        failures.append(f"{stats['wedged']} ticket(s) never resolved")
    if stats["max_restart_delay_s"] > stats["backoff_cap_s"] + 1e-9:
        failures.append(
            f"restart delay {stats['max_restart_delay_s']:.3f}s "
            f"exceeded the backoff cap {stats['backoff_cap_s']:.3f}s"
        )
    if chaos and not stats["total_deaths"] and executed:
        failures.append(
            "chaos run injected no worker deaths (vacuous pass)"
        )
    if not chaos and stats["total_deaths"]:
        failures.append(
            f"{stats['total_deaths']} worker death(s) in a run without "
            f"--chaos: {stats['death_log']}"
        )
    if chaos:
        # statement conservation: the parent-side per-shard completion
        # counters (plus the unrouted leg) must sum exactly to the
        # driver's statement count, worker deaths notwithstanding —
        # and telemetry losses must be *counted*, never silent
        completed = sum(
            value for name, value in counters.items()
            if re.fullmatch(r"proc\.s\d+\.completed", name)
        ) + counters.get("proc.unrouted.completed", 0.0)
        if int(completed) != executed:
            failures.append(
                f"statement conservation broken: per-shard completed "
                f"counters sum to {int(completed)}, driver executed "
                f"{executed}"
            )
        if "proc.telemetry.dropped" not in counters:
            failures.append(
                "cluster metrics lack the proc.telemetry.dropped "
                "counter (drops must be counted, even at zero)"
            )
    return failures


def _result_of(
    index: int,
    sql: str,
    ticket: Optional[StatementTicket],
    rejections: Dict[int, ServeError],
    dbx: Optional["DBExplorer"],
) -> StatementResult:
    if ticket is None:
        error = rejections.get(index)
        try:
            kind = statement_kind(parse(sql))
        except ReproError:
            kind = "invalid"
        return StatementResult(
            index=index, statement=sql, kind=kind,
            session=f"s{index}", status="rejected", outcome="rejected",
            digest=_digest_payload("rejected", [], None),
            error=f"{type(error).__name__}: {error}"
            if error is not None else None,
        )
    if getattr(ticket, "has_result_payload", False):
        # a proc-mode ticket: the worker already reduced its result to
        # the digest payload before it crossed the pipe, and the
        # degradations (and work counters) travelled with it (the
        # worker's session state is in another process)
        degradations = list(ticket.degradations or [])
        payload = ticket.result_payload
    else:
        session = dbx.session(ticket.session) if dbx is not None else None
        report = session.last_report if session is not None else None
        degradations = (
            [str(d) for d in report.degradations]
            if report is not None else []
        )
        payload = result_payload(ticket.result)
    # the counters were stamped on the ticket at execution time;
    # session.last_work would race with later statements on the same
    # session
    work = getattr(ticket, "work", None)
    return StatementResult(
        index=index,
        statement=sql,
        kind=ticket.kind or "invalid",
        session=ticket.session,
        status=ticket.status or "error",
        outcome=ticket.outcome or "failed",
        digest=_digest_payload(
            ticket.status or "error", degradations, payload
        ),
        degradations=degradations,
        error=(
            f"{type(ticket.error).__name__}: {ticket.error}"
            if ticket.error is not None else None
        ),
        attempts=ticket.attempts,
        work=dict(work) if work else None,
    )


def _digest_payload(
    status: str, degradations: List[str], payload: object
) -> str:
    """Hash what the user would see; deliberately no wall-clock fields.

    Error *messages* are excluded too: ``BudgetExceededError`` embeds
    elapsed milliseconds, which would break digest comparisons between
    runs that fail identically.  ``payload`` is already in
    :func:`result_payload` form — either computed here (thread mode) or
    worker-side before it crossed the pipe (proc mode); hashing the
    payload rather than the live object is what makes the two modes
    byte-comparable.
    """
    payload_dict = {
        "status": status,
        "degradations": list(degradations),
        "result": payload,
    }
    blob = json.dumps(payload_dict, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def result_payload(result: Optional[object]) -> object:
    """Reduce a statement result to its JSON-able digest form.

    This is the canonical "what the user saw" projection: CAD Views
    serialize fully (every IUnit), tables dump rows, catalog listings
    become string lists, rendered text collapses to a marker (it embeds
    wall-clock timings).  Both serving modes digest exactly this form —
    the proc workers compute it *before* the result crosses the pipe.
    """
    # lazy imports: repro.core imports repro.serve at module load; the
    # reverse edge must stay runtime-only
    from repro.core.cadview import CADView
    from repro.core.serialize import to_dict
    from repro.dataset.table import Table

    if result is None:
        return None
    if isinstance(result, CADView):
        return to_dict(result)
    if isinstance(result, Table):
        return {
            "rows": len(result),
            "attributes": [a.name for a in result.schema],
            "data": [
                list(map(str, row.values())) for row in result.iter_rows()
            ],
        }
    if isinstance(result, list):
        return [str(item) for item in result]
    if isinstance(result, str):
        # rendered text (EXPLAIN ANALYZE traces, analyzer reports)
        # embeds wall-clock timings — only its presence is hashed
        return "<rendered text>"
    return str(result)
