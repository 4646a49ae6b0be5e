"""The supervisor: sharded worker subprocesses behind the ticket API.

:class:`ProcSupervisor` is the process-model sibling of
:class:`~repro.serve.executor.SessionExecutor`: same ``submit() ->
StatementTicket`` surface, same terminal outcomes, same workload-log
records — but statements execute in dataset-sharded **worker
subprocesses** (stdlib ``multiprocessing``, spawn context), so a
segfault, OOM kill, or hung build takes down one worker incarnation,
never the serving process.

The supervision tree::

    ProcSupervisor (parent process)
      ├── monitor thread      heartbeat staleness, restart backoff,
      │                       deadline watchdog
      ├── reader thread ×N    one per live worker, consuming frames
      └── worker process ×N   one per shard (repro.serve.proc.worker)

Failure handling, per cause:

* **crash** — the process exits nonzero (or is SIGKILLed from
  outside).  The reader sees EOF, the monitor sees the process
  sentinel fire; whichever notices first runs the one-shot death
  path, which is also the only place that reaps the process.
* **hang** — the process is alive but its heartbeat went stale (an
  injected ``proc.worker_hang``, a native-code spin).  The monitor
  SIGKILLs it: cancellation is cooperative and a hung worker by
  definition no longer cooperates.
* **pipe_drop** — the connection tears mid-frame
  (:class:`~repro.serve.proc.protocol.ProtocolError`) or closes
  without a bye.  Indistinguishable from a crash for recovery
  purposes; tracked separately for the chaos stats.

In every case the dead worker's in-flight requests become *retryable
failures*: each is resubmitted to the next incarnation with
``proc_attempt + 1`` (the worker advances the ``proc.*`` fault sites by
that count, keeping chaos deterministic) until ``proc_retries`` is
exhausted, at which point the ticket fails with
:class:`~repro.errors.WorkerCrashError`.  The shard restarts under
exponential backoff (``restart_backoff_base_s`` doubling up to
``restart_backoff_cap_s``), and each new incarnation first replays the
shard's **catalog journal** — the ordered catalog-mutating statements
previous incarnations completed — so the rebuilt view catalog is
bit-identical (builds are seeded) before traffic resumes.

Circuit breakers are keyed on ``dataset@s<shard>.g<incarnation>``: a
restarted worker starts with a fresh breaker, because the failure
history of a dead incarnation says nothing about its replacement.

Graceful drain: :meth:`begin_drain` (safe to call from a SIGTERM
handler) stops admission; :meth:`drain` then waits out a grace period,
cancels what is left via the normal CancelToken path, sends each worker
a drain frame (finish current statement, exit 0), and waits for each
incarnation's death path to reap it — no orphans, every ticket
terminal.

Admission, the outcome ledger (:mod:`repro.serve.executor`) and
breaker settlement (:meth:`~repro.serve.breaker.CircuitBreaker.settle`)
are the thread executor's own, so a statement counts, logs and settles
identically in either serving mode.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import zlib
from collections import Counter, deque
from dataclasses import asdict, dataclass, field, replace
from multiprocessing import connection, get_context
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import (
    AnalysisError,
    DurabilityError,
    OverloadedError,
    ParseError,
    QueryCancelledError,
    RecoveryError,
    ReproError,
    ServeError,
    WorkerCrashError,
)
from repro.obs.hub import TelemetryHub
from repro.obs.metrics import MetricsRegistry, hist_quantile, registry
from repro.obs.tracer import Span, Tracer
from repro.obs.worklog import (
    NO_WORKLOG,
    WorkLogWriter,
    statement_kind,
    statement_status,
)
from repro.query.ast import (
    CreateCadViewStatement,
    DescribeStatement,
    DropCadViewStatement,
    ExplainStatement,
    HighlightSimilarStatement,
    ReorderRowsStatement,
    SelectStatement,
    ShowCadViewsStatement,
    catalog_write,
)
from repro.query.analyzer import Analyzer
from repro.query.parser import parse
from repro.robustness.faults import FaultInjector
from repro.serve.breaker import (
    BreakerBoard,
    BreakerConfig,
    breaker_key,
    default_open_budget,
)
from repro.serve.durability.recovery import (
    CatalogJournal,
    recover_state,
    route_write,
)
from repro.serve.durability.wal import WalWriter
from repro.serve.executor import (
    StatementTicket,
    admit,
    ewma_s,
    open_ticket,
    retry_after_s,
)
from repro.serve.proc.protocol import (
    FRAME_CANCEL,
    FRAME_DRAIN,
    FRAME_HEARTBEAT,
    FRAME_READY,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    FRAME_TELEMETRY,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.serve.proc.worker import PIPE_DROP_EXIT, WorkerSpec, worker_main

__all__ = ["ProcServeConfig", "ProcSupervisor", "RemoteStatementError"]

#: Serializes every ``waitpid`` the parent makes on worker processes.
#: ``Process.start()`` polls every live child of the process
#: (``multiprocessing.process._cleanup``), so one shard's spawn races
#: the death path reaping another shard's worker: the thread whose
#: ``waitpid`` loses gets ECHILD and reads the exit code as ``None``,
#: and a pipe drop is classed as a crash.  Module-level because the
#: children are the process's, not one supervisor's.  Blocking waits
#: on a worker happen on its sentinel, outside the lock, so a dying
#: worker never delays a spawn.
_REAP_LOCK = threading.Lock()

#: How long a fresh incarnation may spend building its table and
#: replaying its journal before the monitor counts it as hung.
_READY_TIMEOUT_S = 60.0


def _reap(process, timeout: float) -> Optional[int]:
    """``process``'s exit code, waiting at most ``timeout`` for it to
    exit; ``None`` if it is still running."""
    if not connection.wait([process.sentinel], timeout):
        return None
    with _REAP_LOCK:
        # the sentinel fired, so the process is exiting: this blocking
        # waitpid returns as soon as the kernel has its status
        process.join()
        return process.exitcode


class RemoteStatementError(ServeError):
    """A statement failed inside a worker; this is the wire-level echo.

    Exceptions cannot cross the JSON pipe as live objects, so the
    worker sends ``"TypeName: message"`` and the supervisor wraps it in
    this class.  ``remote`` preserves the original rendering (it is
    what the worklog record carries, keeping parity with thread mode).
    """

    def __init__(self, remote: str, status: str = "error"):
        self.remote = remote
        self.status = status
        super().__init__(remote)


@dataclass(frozen=True)
class ProcServeConfig:
    """Tuning knobs of one :class:`ProcSupervisor`.

    shards:
        Worker subprocesses (the unit of fault isolation).
    queue_limit:
        Tickets allowed to wait beyond one-per-shard in flight; past
        that, submits are rejected with
        :class:`~repro.errors.OverloadedError`.
    deadline_s:
        Per-statement wall-clock deadline from admission; the monitor
        trips the ticket's CancelToken and forwards a cancel frame.
        (Transient retries happen inside the workers, under
        :class:`~repro.serve.proc.worker.WorkerSpec`'s policy.)
    proc_retries:
        How many times a statement is resubmitted after its worker
        died mid-execution before the ticket fails with
        :class:`~repro.errors.WorkerCrashError`.
    restart_backoff_base_s / restart_backoff_cap_s:
        Exponential backoff between worker restarts: consecutive death
        ``n`` waits ``min(cap, base * 2**(n-1))``; any completed
        response resets the count.
    heartbeat_interval_s / heartbeat_timeout_s:
        Worker beat cadence, and how stale a beat may go before the
        monitor declares the worker hung and SIGKILLs it.  A worker
        whose pipe reached end of file is given as long to exit.
    monitor_interval_s:
        Monitor scan cadence (heartbeats, restarts, deadlines).
    breaker:
        Per-``dataset@shard.incarnation`` circuit-breaker policy; an
        open breaker runs builds under
        :func:`~repro.serve.breaker.default_open_budget`.  ``None``
        disables breakers (deterministic replay does).
    drain_grace_s:
        How long :meth:`ProcSupervisor.drain` lets in-flight work
        finish before cancelling it.
    state_dir:
        Directory for the durable catalog WAL + snapshots
        (:mod:`repro.serve.durability`).  ``None`` (the default) keeps
        catalog journals in memory only — exactly the pre-durability
        behavior.  When set, startup *recovers* the directory first and
        every catalog mutation is fsync'd before its response is
        released.
    fsync_interval_ms:
        Group-commit window: mutations acknowledged within the same
        window share one fsync.  ``0`` fsyncs inline per mutation
        (slowest, simplest to reason about; the torture harness uses it
        so batch == record).
    wal_segment_max_bytes / wal_snapshot_every:
        Segment rotation threshold and how many records may accumulate
        before a snapshot.
    """

    shards: int = 1
    queue_limit: int = 16
    deadline_s: Optional[float] = None
    proc_retries: int = 3
    restart_backoff_base_s: float = 0.05
    restart_backoff_cap_s: float = 2.0
    heartbeat_interval_s: float = 0.25
    heartbeat_timeout_s: float = 2.0
    monitor_interval_s: float = 0.02
    breaker: Optional[BreakerConfig] = field(default_factory=BreakerConfig)
    drain_grace_s: float = 5.0
    state_dir: Optional[str] = None
    fsync_interval_ms: float = 0.0
    wal_segment_max_bytes: int = 1 << 20
    wal_snapshot_every: int = 64

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.queue_limit < 0:
            raise ValueError(
                f"queue_limit must be >= 0, got {self.queue_limit}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be > 0, got {self.deadline_s}"
            )
        if self.proc_retries < 0:
            raise ValueError(
                f"proc_retries must be >= 0, got {self.proc_retries}"
            )
        if self.heartbeat_timeout_s <= self.heartbeat_interval_s:
            raise ValueError(
                "heartbeat_timeout_s must exceed heartbeat_interval_s"
            )
        if self.monitor_interval_s <= 0:
            raise ValueError(
                f"monitor_interval_s must be > 0, "
                f"got {self.monitor_interval_s}"
            )
        if self.fsync_interval_ms < 0:
            raise ValueError(
                f"fsync_interval_ms must be >= 0, "
                f"got {self.fsync_interval_ms}"
            )
        if self.wal_segment_max_bytes < 1 or self.wal_snapshot_every < 1:
            raise ValueError(
                "wal_segment_max_bytes and wal_snapshot_every "
                "must be >= 1"
            )


class _Request:
    """One unit of work bound for one shard (a ticket part)."""

    __slots__ = (
        "state", "shard", "sql", "session", "part", "req_id",
        "fault_index", "proc_attempt", "probe", "short_circuited",
        "breaker", "write", "primary", "incarnation", "span",
    )

    def __init__(self, state, shard, sql, session, part, req_id,
                 fault_index, write, primary):
        self.state = state
        self.shard = shard
        self.sql = sql
        self.session = session
        self.part = part
        self.req_id = req_id
        self.fault_index = fault_index
        self.proc_attempt = 0
        self.probe = False
        self.short_circuited = False
        self.breaker = None
        self.write = write      # catalog_write(); None: not journaled
        self.primary = primary
        self.incarnation = -1
        self.span: Optional[Span] = None

    def reset_dispatch(self) -> None:
        """Clear per-dispatch state before a resubmission."""
        self.probe = False
        self.short_circuited = False
        self.breaker = None
        self.incarnation = -1
        self.span = None


class _TicketState:
    """A ticket plus its (possibly fanned-out) shard requests."""

    __slots__ = ("ticket", "requests", "responses", "parts",
                 "primary_part", "wal_pending", "finalized")

    def __init__(self, ticket: StatementTicket):
        self.ticket = ticket
        self.requests: List[_Request] = []
        self.responses: Dict[int, Dict[str, object]] = {}
        self.parts = 0
        self.primary_part = 0
        self.wal_pending = 0   # WAL commits in flight; gates finalize
        self.finalized = False


class _Shard:
    """Everything the supervisor tracks about one shard slot."""

    __slots__ = ("index", "handle", "pending", "journal", "failures",
                 "restart_at", "next_incarnation")

    def __init__(self, index: int):
        self.index = index
        self.handle: Optional[_WorkerHandle] = None
        self.pending: Deque[_Request] = deque()
        self.journal = CatalogJournal()
        self.failures = 0          # consecutive deaths since last response
        self.restart_at = 0.0
        self.next_incarnation = 0


class _WorkerHandle:
    """One live (or dying) worker incarnation.

    ``reaped`` is set once the death path has stored ``exitcode``.
    """

    __slots__ = ("shard", "incarnation", "process", "conn", "spawned_at",
                 "last_beat", "ready", "down", "reaped", "exitcode",
                 "inflight")

    def __init__(self, shard, incarnation, process, conn, spawned_at):
        self.shard = shard
        self.incarnation = incarnation
        self.process = process
        self.conn = conn
        self.spawned_at = spawned_at
        self.last_beat = spawned_at
        self.ready = False
        self.down = False
        self.reaped = threading.Event()
        self.exitcode: Optional[int] = None
        self.inflight: Dict[str, _Request] = {}


class ProcSupervisor:
    """Dataset-sharded worker subprocesses behind the SessionExecutor API.

    >>> spec = WorkerSpec(dataset="usedcars", rows=2000, seed=7)
    >>> with ProcSupervisor(spec, ProcServeConfig(shards=2)) as sup:
    ...     ticket = sup.submit(
    ...         "CREATE CADVIEW v AS SELECT * FROM data PIVOT ON Make"
    ...     )
    ...     ticket.wait()

    ``now`` is injectable for deterministic tests of the backoff and
    deadline machinery (the workers themselves always run on the real
    clock — they are separate processes).
    """

    def __init__(
        self,
        spec: WorkerSpec,
        config: Optional[ProcServeConfig] = None,
        worklog: Optional[WorkLogWriter] = None,
        metrics: Optional[MetricsRegistry] = None,
        now: Callable[[], float] = time.monotonic,
        tracer: Optional[Tracer] = None,
    ):
        self.spec = spec
        self.config = config if config is not None else ProcServeConfig()
        self._worklog = worklog if worklog is not None else NO_WORKLOG
        self._metrics = metrics if metrics is not None else registry()
        self._now = now
        self._tracer = tracer
        if tracer is not None and not spec.ship_spans:
            # a tracer means someone wants the stitched trace: have
            # workers build and ship per-request span trees
            self.spec = spec = replace(spec, ship_spans=True)
        self.telemetry = TelemetryHub(metrics=self._metrics)
        self._ctx = get_context("spawn")
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._shards = [_Shard(i) for i in range(self.config.shards)]
        self._tickets: Dict[int, _TicketState] = {}
        self._view_shard: Dict[str, int] = {}
        self._submitted = 0
        self._resubmits = 0
        self._latency_ewma_s = 0.0
        self._deaths: List[Dict[str, object]] = []
        self._restart_delays: List[float] = []
        self._closed = False
        self._draining = False
        self._drain_report: Optional[Dict[str, object]] = None
        self._faults = (
            FaultInjector.parse(spec.faults_spec)
            if spec.faults_spec else None
        )
        self._breakers: Optional[BreakerBoard] = (
            BreakerBoard(self.config.breaker, now=now, metrics=metrics)
            if self.config.breaker is not None else None
        )
        self._stop = threading.Event()
        self._wal: Optional[WalWriter] = None
        self._wal_failed = False
        self._recovery_info: Optional[Dict[str, object]] = None
        # recover + open the WAL *before* the first spawn, so fresh
        # workers are born with the recovered journals to replay
        self._init_durability()
        for shard in self._shards:
            self._spawn(shard.index)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-proc-monitor",
            daemon=True,
        )
        self._monitor.start()

    # -- durability --------------------------------------------------------

    def _init_durability(self) -> None:
        """Recover ``--state-dir`` (if any) and open the WAL writer."""
        state_dir = self.config.state_dir
        if state_dir is None:
            return
        rec = None
        span = Span("wal.recovery", state_dir=state_dir)
        try:
            if os.path.isdir(state_dir):
                rec = recover_state(
                    state_dir, shards=self.config.shards, truncate=True,
                )
        finally:
            span.set_attr("status", "ok" if rec is not None or not
                          os.path.isdir(state_dir) else "error")
            if rec is not None:
                span.set_attr("last_seq", rec.last_seq)
                span.set_attr("records_replayed", rec.records_replayed)
                span.set_attr("torn_tail", rec.torn_tail is not None)
            span.close()
            if self._tracer is not None:
                self._tracer.root.children.append(span)
        start_seq = 0
        start_ordinal = 0
        if rec is not None:
            bad = [s for s in rec.journals if s >= self.config.shards]
            if bad:
                raise RecoveryError(
                    f"recovered journal entries for shard(s) {bad} "
                    f"but only {self.config.shards} shard(s) are "
                    f"configured; restart with a matching --procs"
                )
            self._view_shard.update(rec.view_shard)
            # repro-lint: ignore[RL007] — startup, pre-thread (no racers)
            self._recovery_info = rec.as_dict()
            start_seq = rec.last_seq
            start_ordinal = rec.next_ordinal
            self._metrics.counter("wal.recoveries").inc()
            self._metrics.counter("wal.recovered_records").inc(
                rec.records_replayed
            )
            if rec.torn_tail is not None:
                self._metrics.counter("wal.torn_tail_truncations").inc()
            for warning in rec.warnings:
                print(f"[repro.serve] WAL recovery: {warning}",
                      file=sys.stderr)
            with self._lock:
                for shard in self._shards:
                    shard.journal = CatalogJournal(
                        rec.journals.get(shard.index, ())
                    )
                    self._note_journal_len_locked(shard)
        # repro-lint: ignore[RL007] — startup, pre-thread (no racers)
        self._wal = WalWriter(
            state_dir,
            start_seq=start_seq,
            start_ordinal=start_ordinal,
            fsync_interval_ms=self.config.fsync_interval_ms,
            segment_max_bytes=self.config.wal_segment_max_bytes,
            snapshot_every=self.config.wal_snapshot_every,
            snapshot_cb=self._wal_snapshot_image,
            faults=self._faults,
            metrics=self._metrics,
        )

    def _wal_snapshot_image(self) -> Dict[str, object]:
        """The full catalog image for one snapshot: the journals as
        they are (each mutation was compacted in as it became durable).

        Called by the WAL writer *holding the WAL lock*; the lock order
        WAL -> supervisor is the only one used anywhere (the supervisor
        always calls into the WAL with its own lock released).
        """
        with self._lock:
            return {
                "shards": self.config.shards,
                "view_shard": dict(self._view_shard),
                "journals": {
                    shard.index: shard.journal.entries
                    for shard in self._shards
                },
            }

    def _journal_locked(self, req: _Request) -> None:
        # a mutation that landed moves the routing map as WAL replay
        # does; a DROP unmaps its view only here, so one that failed
        # leaves a live view routed
        shard = self._shards[req.shard]
        shard.journal.append(req.sql, req.session, req.write)
        route_write(self._view_shard, req.write, req.shard)
        self._note_journal_len_locked(shard)

    def _unmap_failed_create_locked(self, req: _Request) -> None:
        # a CREATE maps its view at submit; once it has failed, the name
        # stays routed only while its shard holds an earlier view of
        # that name or another CREATE of it is still unanswered
        view = req.write[1]
        if self._view_shard.get(view) != req.shard:
            return
        if self._shards[req.shard].journal.holds(view):
            return
        for state in self._tickets.values():
            for other in state.requests:
                if (
                    other is not req and other.write == req.write
                    and other.part not in state.responses
                ):
                    return
        del self._view_shard[view]

    def _note_journal_len_locked(self, shard: _Shard) -> None:
        self._metrics.gauge(
            f"proc.s{shard.index}.journal_len"
        ).set(float(len(shard.journal.entries)))

    def _wal_commit(self, req: _Request, state: _TicketState) -> None:
        """Make one acked mutation durable, then release its ticket.

        Runs with the supervisor lock *released* (the fsync can take
        milliseconds and must not stall readers).  Failure is
        fail-stop: the response the client sees becomes an error (an
        ack the WAL cannot back must never be released) and the
        supervisor refuses further statements.
        """
        assert self._wal is not None

        def on_durable() -> None:
            # runs under the WAL lock, *before* any snapshot this
            # commit triggers: the journal entry is in the image of
            # every snapshot whose last_seq covers it
            with self._lock:
                self._journal_locked(req)

        failure: Optional[DurabilityError] = None
        try:
            self._wal.commit(
                req.shard, req.sql, req.session, on_durable=on_durable,
            )
        except DurabilityError as exc:
            failure = exc
        with self._lock:
            if failure is not None:
                self._wal_failed = True
                state.responses[req.part] = {
                    "status": "error",
                    "error": f"durability failure: {failure}",
                }
            state.wal_pending -= 1
            finalize = self._complete_locked(state)
        if failure is not None:
            print(
                f"[repro.serve] DURABILITY FAILURE: {failure}; "
                f"refusing further statements (fail-stop)",
                file=sys.stderr,
            )
        if finalize:
            self._finalize(state)

    # -- admission ---------------------------------------------------------

    def submit(
        self,
        sql: str,
        session: str = "default",
        faults: Optional[FaultInjector] = None,
        fault_index: Optional[int] = None,
    ) -> StatementTicket:
        """Admit one statement, or raise :class:`OverloadedError`.

        ``faults`` only drives the *parent-side* sites
        (``serve.queue_full``); worker-side sites run off the spec's
        fault plan, forked by ``fault_index`` (default: the ticket
        index) inside the worker — the plan cannot cross the process
        boundary as a live object, but forking by the same index from
        the same spec makes it behave as if it had.
        """
        with self._lock:
            if self._closed:
                raise ServeError("supervisor is closed")
            if self._draining:
                raise ServeError("supervisor is draining")
            if self._wal_failed:
                raise DurabilityError(
                    "the write-ahead log failed; this supervisor is "
                    "fail-stopped (restart with a healthy --state-dir)"
                )
            index = self._submitted
            self._submitted += 1
        fidx = fault_index if fault_index is not None else index
        ticket = open_ticket(
            index, sql, session, faults, fidx, self._faults,
            self.config.deadline_s, self._now,
        )
        # parse once on the caller thread, before admission, so that a
        # rejected ticket knows its kind too
        failure: Optional[ReproError] = None
        try:
            stmt = parse(sql)
        except ParseError as exc:
            failure = exc
        else:
            ticket.kind = statement_kind(stmt)
            ticket.dataset = breaker_key(stmt)
        try:
            admit(
                ticket, self._reserve, self.config.queue_limit,
                self._metrics, self._worklog,
            )
        except OverloadedError:
            # conservation: never crossed a pipe, still counted once
            self._metrics.counter("proc.unrouted.completed").inc()
            raise

        # a statement that cannot parse, or that names a view no shard
        # holds, fails here without ever crossing a pipe (the rest of
        # the analyzer gate lives worker-side — only workers hold the
        # tables)
        if failure is None:
            try:
                self._check_view_known(stmt, sql)
            except AnalysisError as exc:
                failure = exc
        if failure is not None:
            self._metrics.counter("proc.unrouted.completed").inc()
            ticket.finish(
                "failed", statement_status(failure), self._metrics,
                self._worklog, error=failure,
            )
            return ticket

        state = _TicketState(ticket)
        parts = self._route(stmt, sql, session)
        with self._lock:
            for part, (shard_idx, part_sql, primary, write) in \
                    enumerate(parts):
                req = _Request(
                    state, shard_idx, part_sql, session, part,
                    f"r{index}.{part}", fidx, write, primary,
                )
                if primary:
                    state.primary_part = part
                state.requests.append(req)
                self._shards[shard_idx].pending.append(req)
            state.parts = len(state.requests)
            self._tickets[index] = state
            self._metrics.gauge("serve.queue_depth").set(
                float(sum(len(s.pending) for s in self._shards))
            )
        self._pump()
        return ticket

    def run(
        self,
        sql: str,
        session: str = "default",
        timeout: Optional[float] = None,
    ) -> StatementTicket:
        """Submit and wait: the one-call convenience wrapper."""
        ticket = self.submit(sql, session=session)
        ticket.wait(timeout)
        return ticket

    def _reserve(
        self, ticket: StatementTicket, refuse: bool
    ) -> Optional[float]:
        # a ticket holds its slot from admission until it finalizes
        with self._lock:
            backlog = len(self._tickets)
            slots = len(self._shards)
            if refuse or backlog >= slots + self.config.queue_limit:
                return retry_after_s(self._latency_ewma_s, backlog, slots)
        return None

    # -- routing -----------------------------------------------------------

    def _shard_of(self, name: str) -> int:
        # crc32, not hash(): python hashes are salted per process and
        # the same view must land on the same shard across runs
        return zlib.crc32(str(name).encode("utf-8")) % len(self._shards)

    def _check_view_known(self, stmt: object, sql: str) -> None:
        """Raise the in-process QA501 for a statement naming a view
        that no shard holds.

        A shard's analyzer sees only its own catalog, so it would list
        one shard's views.  The routing map holds every shard's, so the
        analyzer runs here over the map's names and the diagnostic and
        its suggestion read as they do in process.  Plain ``EXPLAIN``
        is not analyzed, in process or here.
        """
        if isinstance(stmt, ExplainStatement) and not (
            stmt.analyze or stmt.check
        ):
            return
        view = _named_view(
            stmt.inner if isinstance(stmt, ExplainStatement) else stmt
        )
        if view is None:
            return
        with self._lock:
            if view in self._view_shard:
                return
            views = dict.fromkeys(self._view_shard)
        report = Analyzer(views=views).analyze(stmt, text=sql)
        if not report.ok:
            raise AnalysisError(report)

    def _route(
        self, stmt: object, sql: str, session: str
    ) -> List[Tuple[int, str, bool, Optional[Tuple[str, str]]]]:
        """``[(shard, sql, primary, write)]`` for one statement.

        Most statements are one part routed by the table (builds,
        selects) or the owning view (highlight/reorder).  Catalog
        listings fan out: ``SHOW CADVIEWS`` runs on every shard and the
        sorted union of the per-shard catalogs is the answer; ``DROP``
        runs on the owner (primary) while the other shards contribute
        their catalog via a synthetic ``SHOW`` part.  ``EXPLAIN`` is
        routed like its inner statement, but only the primary part of a
        statement with a :func:`~repro.query.ast.catalog_write` is
        journaled and moves the routing map: a ``CREATE`` maps its view
        here, so statements queued behind it reach its shard, and a
        ``DROP`` unmaps it once it lands (:meth:`_journal_locked`).
        """
        nshards = len(self._shards)
        inner = stmt.inner if isinstance(stmt, ExplainStatement) else stmt
        if isinstance(inner, ShowCadViewsStatement) and inner is stmt:
            return [(s, sql, s == 0, None) for s in range(nshards)]
        write = catalog_write(stmt)
        view = _named_view(inner)
        if isinstance(inner, (CreateCadViewStatement, SelectStatement,
                              DescribeStatement)):
            shard = self._shard_of(inner.table)
        elif view is None:
            # EXPLAIN SHOW CADVIEWS (rendered text cannot merge) and any
            # future statement kind: shard 0
            shard = 0
        if view is not None or write is not None:
            with self._lock:
                if view is not None:
                    shard = self._view_shard.get(view, self._shard_of(view))
                if write is not None and write[0] == "create":
                    self._view_shard[write[1]] = shard
        parts = [(shard, sql, True, write)]
        if isinstance(inner, DropCadViewStatement):
            parts += [
                (s, "SHOW CADVIEWS", False, None)
                for s in range(nshards) if s != shard
            ]
        return parts

    # -- dispatch ----------------------------------------------------------

    def _pump(self) -> None:
        """Push pending requests onto idle ready workers."""
        while True:
            sends: List[Tuple[_WorkerHandle, _Request]] = []
            synth: List[_Request] = []
            with self._lock:
                for shard in self._shards:
                    # cancelled pending parts resolve here, worker or
                    # not (drain depends on it)
                    for req in [r for r in shard.pending
                                if r.state.ticket.cancel.cancelled]:
                        shard.pending.remove(req)
                        synth.append(req)
                    handle = shard.handle
                    if handle is None or handle.down or not handle.ready:
                        continue
                    while shard.pending and not handle.inflight:
                        req = shard.pending.popleft()
                        self._gate_request(req, shard, handle)
                        if self._tracer is not None:
                            span = Span(
                                "serve.request",
                                request_id=req.req_id,
                                shard=shard.index,
                                incarnation=handle.incarnation,
                                proc_attempt=req.proc_attempt,
                            )
                            req.span = span
                            self._tracer.root.children.append(span)
                        handle.inflight[req.req_id] = req
                        sends.append((handle, req))
            if not sends and not synth:
                return
            for handle, req in sends:
                payload: Dict[str, object] = {
                    "id": req.req_id,
                    "sql": req.sql,
                    "session": req.session,
                    "fault_index": req.fault_index,
                    "proc_attempt": req.proc_attempt,
                    "budget": (
                        asdict(default_open_budget())
                        if req.short_circuited else None
                    ),
                }
                try:
                    send_frame(handle.conn, FRAME_REQUEST, payload)
                except (OSError, ValueError):
                    self._worker_down(handle, "pipe_drop")
            for req in synth:
                reason = req.state.ticket.cancel.reason or "cancelled"
                self._finish_part(req, {
                    "status": "cancelled",
                    "error": f"QueryCancelledError: query cancelled: {reason}",
                    "cancel_reason": reason,
                })

    def _gate_request(
        self, req: _Request, shard: _Shard, handle: _WorkerHandle
    ) -> None:
        """Breaker-gate one dispatch (call with ``self._lock`` held)."""
        req.incarnation = handle.incarnation
        if (
            self._breakers is None
            or req.state.ticket.dataset is None
            or not req.primary
        ):
            return
        key = (
            f"{req.state.ticket.dataset}"
            f"@s{shard.index}.g{handle.incarnation}"
        )
        breaker = self._breakers.breaker(key)
        full_pipeline, probe = breaker.allow()
        req.breaker = breaker
        req.probe = probe
        req.state.ticket.probe = probe
        if not full_pipeline:
            req.short_circuited = True
            self._metrics.counter("serve.breaker.short_circuit").inc()

    # -- worker lifecycle --------------------------------------------------

    def _spawn(self, shard_idx: int) -> None:
        with self._lock:
            shard = self._shards[shard_idx]
            if shard.handle is not None or self._closed:
                return
            incarnation = shard.next_incarnation
            shard.next_incarnation += 1
            journal = shard.journal.entries
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(
                self.spec.as_dict(), child_conn, shard_idx, incarnation,
                journal, self.config.heartbeat_interval_s,
            ),
            name=f"repro-worker-s{shard_idx}g{incarnation}",
            daemon=True,
        )
        with _REAP_LOCK:
            process.start()  # polls (may reap) every child: see _REAP_LOCK
        child_conn.close()
        handle = _WorkerHandle(
            shard_idx, incarnation, process, parent_conn, self._now()
        )
        with self._lock:
            shard.handle = handle
        self._metrics.counter("proc.spawns").inc()
        if incarnation > 0:
            self._metrics.counter("proc.restarts").inc()
        self.telemetry.record_event(
            "worker.spawn", shard=shard_idx, incarnation=incarnation,
            pid=process.pid, ts=time.time(),
        )
        threading.Thread(
            target=self._reader_loop, args=(handle,),
            name=f"repro-proc-reader-s{shard_idx}g{incarnation}",
            daemon=True,
        ).start()

    def _reader_loop(self, handle: _WorkerHandle) -> None:
        cause: Optional[str] = None
        while True:
            try:
                kind, payload = recv_frame(handle.conn)
            except ProtocolError:
                cause = "pipe_drop"
                break
            except (EOFError, OSError):
                break  # the process ended: its exit code says why
            with self._lock:
                handle.last_beat = self._now()
                if kind == FRAME_READY:
                    handle.ready = True
            if kind == FRAME_READY:
                self._metrics.gauge(
                    f"proc.s{handle.shard}.journal_replayed"
                ).set(float(payload.get("journal_replayed") or 0))
                self._pump()
            elif kind == FRAME_RESPONSE:
                self._on_response(handle, payload)
            elif kind == FRAME_HEARTBEAT:
                self._metrics.counter("proc.heartbeats").inc()
            elif kind == FRAME_TELEMETRY:
                self._metrics.counter("proc.telemetry.frames").inc()
                self.telemetry.ingest(
                    int(payload.get("shard", handle.shard)),
                    int(payload.get("incarnation", handle.incarnation)),
                    payload,
                )
        self._worker_down(handle, cause)
        # the reader is the only closer of its connection, and only
        # after the death path ran (no new sends): closing it under a
        # recv or send in another thread fails that call with TypeError
        handle.conn.close()

    def _worker_down(
        self, handle: _WorkerHandle, cause: Optional[str] = None
    ) -> None:
        """The one-shot death path of a worker incarnation.

        Whoever notices first claims it; everyone else returns at once.
        It is the incarnation's only reaper, and it reaps through
        :func:`_reap` (see :data:`_REAP_LOCK`).  ``cause=None`` means
        the process ended on its own (its pipe reached end of file, or
        its sentinel fired): it gets ``heartbeat_timeout_s`` — how
        long a silent worker is trusted — to exit, and is then killed
        as hung.  Exit 0 (only the worker's clean shutdown exits 0) is
        a drain, :data:`PIPE_DROP_EXIT` a pipe drop, anything else a
        crash.
        """
        with self._lock:
            if handle.down:
                return
            handle.down = True
        process = handle.process
        code = _reap(
            process,
            self.config.heartbeat_timeout_s if cause is None else 0.0,
        )
        if code is None:
            cause = cause or "hang"
            with _REAP_LOCK:
                process.kill()
            code = _reap(process, 2.0)
        elif cause is None:
            cause = (
                "drain" if code == 0
                else "pipe_drop" if code == PIPE_DROP_EXIT
                else "crash"
            )
        handle.exitcode = code
        with self._lock:
            shard = self._shards[handle.shard]
            if shard.handle is handle:
                shard.handle = None
            inflight = list(handle.inflight.values())
            handle.inflight.clear()
            draining = self._draining or self._closed
            if cause != "drain":
                shard.failures += 1
                delay = min(
                    self.config.restart_backoff_cap_s,
                    self.config.restart_backoff_base_s
                    * (2.0 ** (shard.failures - 1)),
                )
                shard.restart_at = self._now() + delay
                self._restart_delays.append(delay)
                self._deaths.append({
                    "shard": handle.shard,
                    "incarnation": handle.incarnation,
                    "cause": cause,
                    "exitcode": handle.exitcode,
                })
        handle.reaped.set()
        if cause != "drain":
            self._metrics.counter("proc.deaths").inc()
            self._metrics.counter(f"proc.deaths.{cause}").inc()
        self.telemetry.record_event(
            "worker.death" if cause != "drain" else "worker.drained",
            shard=handle.shard, incarnation=handle.incarnation,
            cause=cause, exitcode=handle.exitcode, ts=time.time(),
        )
        for req in inflight:
            if req.span is not None:
                # one span per dispatch attempt: the resubmission (if
                # any) opens a fresh one against the next incarnation
                req.span.set_attr("status", "worker_died")
                req.span.set_attr("cause", cause)
                req.span.status = "error"
                req.span.close()
            if req.breaker is not None:
                # a worker death counts against its (dead) incarnation's
                # breaker; the restarted incarnation starts fresh
                req.breaker.on_failure(probe=req.probe)
            if not draining and req.proc_attempt < self.config.proc_retries:
                req.proc_attempt += 1
                req.reset_dispatch()
                with self._lock:
                    self._shards[req.shard].pending.appendleft(req)
                    self._resubmits += 1
                    req.state.ticket.proc_attempts = max(
                        req.state.ticket.proc_attempts, req.proc_attempt,
                    )
                self._metrics.counter("proc.resubmits").inc()
            else:
                error = WorkerCrashError(
                    f"worker died executing {req.req_id}",
                    shard=handle.shard, incarnation=handle.incarnation,
                    cause=cause,
                )
                self._finish_part(req, {
                    "status": "error",
                    "degradations": [],
                    "result_payload": None,
                    "attempts": req.proc_attempt + 1,
                    "elapsed_ms": 0.0,
                    "error": f"{type(error).__name__}: {error}",
                    "proc_cause": cause,
                    "_exception": error,
                })
        self._pump()

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.config.monitor_interval_s):
            self._tick()

    def _tick(self) -> None:
        now = self._now()
        kills: List[Tuple[_WorkerHandle, Optional[str]]] = []
        spawns: List[int] = []
        states: List[_TicketState] = []
        with self._lock:
            for shard in self._shards:
                handle = shard.handle
                if handle is not None and not handle.down:
                    # the sentinel tells "exited" without reaping: the
                    # death path is the process's only reaper
                    if connection.wait([handle.process.sentinel], 0):
                        kills.append((handle, None))  # cause: exit code
                    elif handle.ready and (
                        now - handle.last_beat
                        > self.config.heartbeat_timeout_s
                    ):
                        kills.append((handle, "hang"))
                    elif not handle.ready and (
                        now - handle.spawned_at > _READY_TIMEOUT_S
                    ):
                        kills.append((handle, "hang"))
                elif (
                    handle is None
                    and not self._draining
                    and not self._closed
                    and now >= shard.restart_at
                ):
                    spawns.append(shard.index)
            if self.config.deadline_s is not None:
                states = list(self._tickets.values())
        for handle, cause in kills:
            self._worker_down(handle, cause)
        for shard_idx in spawns:
            self._spawn(shard_idx)
        for ts in states:
            if ts.ticket.trip_deadline(
                now, self.config.deadline_s, self._metrics
            ):
                self._cancel_ticket(ts, str(ts.ticket.cancel.reason))

    # -- completion --------------------------------------------------------

    def _on_response(
        self, handle: _WorkerHandle, payload: Dict[str, object]
    ) -> None:
        req_id = str(payload.get("id"))
        with self._lock:
            req = handle.inflight.pop(req_id, None)
            if req is not None:
                # a completed statement is proof of health: restart
                # backoff starts over
                self._shards[handle.shard].failures = 0
        if req is None:
            return  # late echo of a request already resolved elsewhere
        self._metrics.histogram(
            f"proc.s{handle.shard}.latency"
        ).observe(float(payload.get("elapsed_ms") or 0.0) / 1e3)
        if req.breaker is not None:
            req.breaker.settle(
                str(payload.get("status") or "error"),
                payload.get("cancel_reason"),
                probe=req.probe,
            )
        self._finish_part(req, payload)
        self._pump()

    def _finish_part(
        self, req: _Request, response: Dict[str, object]
    ) -> None:
        state = req.state
        if req.span is not None and not req.span.closed:
            req.span.set_attr(
                "status", str(response.get("status") or "error")
            )
            req.span.close()
        wal_commit = False
        with self._lock:
            if req.part in state.responses:
                return  # already resolved (cancel raced a response)
            state.responses[req.part] = response
            if (
                req.write is not None and req.write[0] == "create"
                and response.get("status") != "ok"
            ):
                self._unmap_failed_create_locked(req)
            if req.write is not None and response.get("status") == "ok":
                if self._wal is not None:
                    # the ack is not releasable until the mutation is
                    # durable: journal append + finalize wait for the
                    # WAL commit (made with the lock released below)
                    state.wal_pending += 1
                    wal_commit = True
                else:
                    self._journal_locked(req)
            finalize = self._complete_locked(state)
        if wal_commit:
            self._wal_commit(req, state)
        elif finalize:
            self._finalize(state)

    def _complete_locked(self, state: _TicketState) -> bool:
        # every part answered and every WAL commit durable: the ticket
        # leaves the books exactly once (True: the caller finalizes it)
        if (
            len(state.responses) < state.parts
            or state.wal_pending
            or state.finalized
        ):
            return False
        state.finalized = True
        self._tickets.pop(state.ticket.index, None)
        self._idle.notify_all()
        return True

    def _finalize(self, state: _TicketState) -> None:
        ticket = state.ticket
        primary = state.responses.get(state.primary_part)
        if primary is None:  # defensive: primary part always responds
            primary = next(iter(state.responses.values()))
        status = str(primary.get("status") or "error")
        explain_text = primary.get("explain_text")
        if (
            ticket.kind == "explain"
            and status == "ok"
            and not isinstance(explain_text, str)
        ):
            # the profile lives worker-side; a worker that did not ship
            # its rendered EXPLAIN text leaves the parent with nothing
            # but zeros — failing loudly beats reporting fake timings
            status = "error"
            primary = dict(primary)
            primary["error"] = (
                "worker returned no EXPLAIN text; EXPLAIN ANALYZE "
                "under --procs requires telemetry-capable workers"
            )
        payload, rows_out = self._merge_payload(state, primary)
        degradations = [
            str(d) for d in (primary.get("degradations") or [])
        ]
        ticket.short_circuited = any(
            r.short_circuited for r in state.requests
        )
        ticket.attempts = int(primary.get("attempts") or 1)
        ticket.degradations = degradations
        ticket.result_payload = payload
        ticket.has_result_payload = True
        raw_work = primary.get("work")
        ticket.work = (
            {str(k): int(v) for k, v in raw_work.items()}
            if isinstance(raw_work, dict) else None
        )
        error: Optional[BaseException] = None
        if status == "ok":
            degraded = ticket.short_circuited or bool(primary.get("degraded"))
            outcome = "degraded" if degraded else "ok"
        else:
            outcome = "failed"
            exc = primary.get("_exception")
            if isinstance(exc, BaseException):
                error = exc
            elif status == "cancelled":
                error = QueryCancelledError(
                    str(
                        primary.get("cancel_reason")
                        or ticket.cancel.reason or "cancelled"
                    )
                )
            else:
                error = RemoteStatementError(
                    str(primary.get("error") or status), status=status
                )
        elapsed_ms = float(primary.get("elapsed_ms") or 0.0)
        with self._lock:
            self._latency_ewma_s = ewma_s(
                self._latency_ewma_s, elapsed_ms / 1e3
            )
        # conservation counters: every admitted statement is finalized
        # exactly once, attributed to its primary part's shard — these
        # are parent-side, so they survive any number of worker deaths
        # (the unrouted leg is parse errors/rejections, in submit())
        primary_req = state.requests[state.primary_part]
        self._metrics.counter(f"proc.s{primary_req.shard}.completed").inc()
        ticket.finish(
            outcome, status, self._metrics, self._worklog,
            result=explain_text if isinstance(explain_text, str) else None,
            error=error,
            elapsed_ms=elapsed_ms,
            record={
                "rows_out": rows_out,
                "pivot": primary.get("pivot"),
                "phases_ms": primary.get("phases_ms"),
                "degradations": degradations,
                "error": primary.get("error"),
                "work": ticket.work,
                "proc": {
                    "shard": primary_req.shard,
                    "incarnation": primary_req.incarnation,
                    "proc_attempts": ticket.proc_attempts,
                    "cause": primary.get("proc_cause"),
                },
            },
        )

    def _merge_payload(
        self, state: _TicketState, primary: Dict[str, object]
    ) -> Tuple[object, Optional[int]]:
        if state.parts == 1:
            rows = primary.get("rows_out")
            return (
                primary.get("result_payload"),
                int(rows) if rows is not None else None,
            )
        payloads = [
            state.responses[p].get("result_payload")
            for p in sorted(state.responses)
        ]
        if all(isinstance(p, list) for p in payloads):
            merged = sorted({str(x) for p in payloads for x in p})
            return merged, len(merged)
        rows = primary.get("rows_out")
        return (
            primary.get("result_payload"),
            int(rows) if rows is not None else None,
        )

    # -- cancellation ------------------------------------------------------

    def _cancel_ticket(self, state: _TicketState, reason: str) -> None:
        state.ticket.cancel.cancel(reason)
        sends: List[Tuple[_WorkerHandle, str]] = []
        with self._lock:
            for shard in self._shards:
                handle = shard.handle
                if handle is not None and not handle.down:
                    sends.extend(
                        (handle, rid)
                        for rid, r in handle.inflight.items()
                        if r.state is state
                    )
        for handle, rid in sends:
            try:
                send_frame(
                    handle.conn, FRAME_CANCEL,
                    {"id": rid, "reason": reason},
                )
            except (OSError, ValueError):
                self._worker_down(handle, "pipe_drop")
        self._pump()  # resolves the ticket's parts still pending

    # -- drain / shutdown --------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admission.  Safe to call from a SIGTERM handler."""
        with self._lock:
            self._draining = True

    def drain(self, grace_s: Optional[float] = None) -> Dict[str, object]:
        """Graceful shutdown: finish or cancel in-flight, reap workers.

        Waits up to ``grace_s`` (default: the config's) for in-flight
        tickets to finish, cancels the rest through the normal
        CancelToken path, sends every worker a drain frame (finish the
        current statement, exit 0), and waits for each incarnation's
        death path to reap it.  A worker still running 5 s later is
        killed as hung (its tickets fail, no resubmit while draining),
        so nothing is orphaned and every ticket ends.  Returns a report
        with the exit codes that death path recorded; idempotent.
        """
        with self._lock:
            if self._closed:
                return dict(self._drain_report or {})
            self._draining = True
        grace = (
            self.config.drain_grace_s if grace_s is None
            else max(0.0, grace_s)
        )
        deadline = self._now() + grace
        with self._idle:
            while self._tickets and self._now() < deadline:
                self._idle.wait(0.05)
            leftovers = list(self._tickets.values())
        for ts in leftovers:
            self._cancel_ticket(ts, "drain")
        with self._lock:
            handles = [
                s.handle for s in self._shards
                if s.handle is not None and not s.handle.down
            ]
        for handle in handles:
            try:
                send_frame(handle.conn, FRAME_DRAIN, {})
            except (OSError, ValueError):
                self._worker_down(handle, "pipe_drop")
        exitcodes: Dict[str, Optional[int]] = {}
        for handle in handles:
            # the reader's EOF runs the death path, which reaps: drain
            # only waits for it
            if not handle.reaped.wait(5.0):
                self._worker_down(handle, "hang")
                handle.reaped.wait(5.0)
            exitcodes[f"s{handle.shard}"] = handle.exitcode
        self._stop.set()
        if threading.current_thread() is not self._monitor:
            self._monitor.join(timeout=2.0)
        report: Dict[str, object] = {
            "cancelled": len(leftovers),
            "exitcodes": exitcodes,
            "clean": all(code == 0 for code in exitcodes.values()),
        }
        if self._wal is not None:
            try:
                self._wal.close()
                report["wal"] = self._wal.stats()
            except DurabilityError as exc:
                # shutdown path: the failure is *recorded*, not
                # swallowed — the drain report carries it and the next
                # startup recovers from whatever did reach the disk
                report["wal_close_error"] = str(exc)
                report["clean"] = False
        with self._lock:
            self._closed = True
            self._drain_report = report
        return dict(report)

    def close(self, wait: bool = True) -> None:
        """Shut down promptly (a short-grace :meth:`drain`)."""
        self.drain(grace_s=1.0 if wait else 0.0)

    def __enter__(self) -> "ProcSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection -----------------------------------------------------

    def wait_ready(self, timeout: float = 30.0) -> bool:
        """Block until every shard has a ready worker (False on timeout)."""
        deadline = self._now() + timeout
        while self._now() < deadline:
            with self._lock:
                ready = all(
                    s.handle is not None and s.handle.ready
                    and not s.handle.down
                    for s in self._shards
                )
            if ready:
                return True
            time.sleep(0.01)
        return False

    def breaker_states(self) -> Dict[str, str]:
        """Breaker key -> state name (empty when disabled)."""
        if self._breakers is None:
            return {}
        return self._breakers.states()

    def stats_snapshot(self) -> Dict[str, object]:
        """The full ops snapshot: the ``repro stats`` / SIGUSR1 payload.

        Embeds the complete cluster metrics snapshot, so a dumped file
        is self-contained — ``repro stats FILE --slo SPEC`` can gate on
        it offline (the CI warn-only check does exactly that).
        """
        wal = self._wal.stats() if self._wal is not None else None
        with self._lock:
            shards = []
            for s in self._shards:
                handle = s.handle
                shards.append({
                    "shard": s.index,
                    "incarnation": (
                        handle.incarnation if handle is not None else None
                    ),
                    "ready": (
                        bool(handle.ready) if handle is not None else False
                    ),
                    "restarts": max(0, s.next_incarnation - 1),
                    "failures": s.failures,
                    "pending": len(s.pending),
                    "inflight": (
                        len(handle.inflight) if handle is not None else 0
                    ),
                    "journal": len(s.journal.entries),
                })
            snap = {
                "submitted": self._submitted,
                "outstanding": len(self._tickets),
                "queue_depth": sum(len(s.pending) for s in self._shards),
                "inflight": sum(s["inflight"] for s in shards),
                "resubmits": self._resubmits,
                "deaths": _death_counts(self._deaths),
                "shards": shards,
            }
        snap["wal"] = wal
        snap["recovery"] = self._recovery_info
        snap["breakers"] = self.breaker_states()
        snap["telemetry"] = self.telemetry.stats()
        cluster = self.telemetry.cluster_registry().snapshot()
        snap["metrics"] = cluster
        hists = cluster.get("histograms", {})
        for entry in snap["shards"]:
            dump = hists.get(f"proc.s{entry['shard']}.latency")
            if dump:
                entry["latency_ms"] = {
                    "p50": hist_quantile(dump, 0.50) * 1e3,
                    "p95": hist_quantile(dump, 0.95) * 1e3,
                    "p99": hist_quantile(dump, 0.99) * 1e3,
                    "count": int(dump.get("count") or 0),
                }
        return snap

    def chaos_stats(self) -> Dict[str, object]:
        """What the chaos harness asserts on after a run.

        ``deaths`` counts worker deaths by cause; ``death_log`` lists
        each one as ``{shard, incarnation, cause, exitcode}``.
        """
        with self._lock:
            delays = list(self._restart_delays)
            return {
                "deaths": _death_counts(self._deaths),
                "death_log": [dict(death) for death in self._deaths],
                "total_deaths": len(self._deaths),
                "resubmits": self._resubmits,
                "restart_delays": delays,
                "max_restart_delay_s": max(delays, default=0.0),
                "backoff_cap_s": self.config.restart_backoff_cap_s,
                "wedged": len(self._tickets),
            }


def _death_counts(deaths: List[Dict[str, object]]) -> Dict[str, int]:
    return dict(sorted(Counter(str(d["cause"]) for d in deaths).items()))


def _named_view(stmt: object) -> Optional[str]:
    # the CAD View a statement routes by: HIGHLIGHT, REORDER and DROP
    if isinstance(stmt, DropCadViewStatement):
        return stmt.name
    if isinstance(stmt, (HighlightSimilarStatement, ReorderRowsStatement)):
        return stmt.view
    return None
