"""The session executor: a bounded thread pool around DBExplorer.

One :class:`SessionExecutor` turns a single :class:`~repro.core.explorer.
DBExplorer` into a multi-session server.  Statements are *submitted*,
not called: :meth:`SessionExecutor.submit` either admits the statement
into a **bounded** queue and returns a :class:`StatementTicket`, or
rejects it right away with :class:`~repro.errors.OverloadedError`
carrying a Retry-After estimate.  The serving core never queues
unboundedly — under overload it says so, cheaply, at the door.

What happens to an admitted statement:

1. The **analyzer gate** runs on the caller thread at submit: it
   prepares the statement (:meth:`~repro.core.explorer.DBExplorer.
   prepare`, one parse and one analysis), so a statement the parser or
   the semantic analyzer rejects never costs a pool thread.  The pool
   thread executes that prepared statement without parsing it again,
   and analyzes it again only if the view or table catalog changed
   while it waited, so execution stays the source of truth.
2. A **worker thread** picks the ticket up.  If a per-dataset
   :class:`~repro.serve.breaker.CircuitBreaker` is open, the build is
   short-circuited onto the PR-1 degradation ladder: it runs under the
   tight :func:`~repro.serve.breaker.default_open_budget` instead of
   the full pipeline budget.
3. The **watchdog thread** enforces the per-query wall-clock deadline
   by tripping the ticket's :class:`~repro.robustness.CancelToken`;
   the build notices at its next budget checkpoint and raises
   :class:`~repro.errors.QueryCancelledError` — cancellation is
   cooperative, there is no thread killing.
4. **Transient faults** (injected worker crashes, clustering
   convergence failures) are retried with exponential backoff and
   deterministic jitter; everything else fails the ticket immediately.

Every submitted statement ends in exactly one terminal *outcome* —
``ok``, ``degraded``, ``rejected`` or ``failed`` — and leaves a
workload-log record behind (``dbx.execute`` writes it for statements
that ran; the executor writes it for statements that never reached the
explorer: admission rejections, gate failures, cancellations while
still queued).

The multi-process transport (:mod:`repro.serve.proc`) runs the same
per-statement steps: :func:`open_ticket`, :func:`admit`,
:func:`execute_with_retries` and the outcome ledger
:meth:`StatementTicket.finish`.

Fault sites consulted here (see :mod:`repro.robustness.faults`):
``serve.queue_full`` forces an admission rejection even when the queue
has room; ``serve.slow_worker`` stalls (``sleep``) or crashes
(``crash``) the worker just before a statement executes.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union,
)

from repro.errors import (
    AnalysisError,
    ConvergenceError,
    OverloadedError,
    ParseError,
    QueryCancelledError,
    ReproError,
    ServeError,
)
from repro.obs.metrics import MetricsRegistry, registry
from repro.obs.worklog import WorkLogWriter, statement_kind, statement_status
# unused here (the explorer prepares statements), but the traced
# benchmark run (perfbench/tracing.py) wraps ``parse`` by this name
from repro.query.parser import parse  # noqa: F401
from repro.robustness.budget import Budget
from repro.robustness.cancel import CancelToken
from repro.robustness.faults import NO_FAULTS, FaultInjector
from repro.serve.breaker import (
    BreakerBoard,
    BreakerConfig,
    breaker_key,
    default_open_budget,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids serve<->core cycle
    from repro.core.explorer import DBExplorer, Prepared, Session
    from repro.robustness.report import BuildReport

__all__ = [
    "ServeConfig", "SessionExecutor", "StatementTicket", "OUTCOMES",
    "Execution", "open_ticket", "admit", "execute_with_retries",
    "retry_after_s", "ewma_s",
]

OUTCOMES = ("ok", "degraded", "rejected", "failed")
"""Every ticket ends in exactly one of these terminal outcomes."""

# Exceptions the retry machinery treats as transient: injected worker
# crashes (RuntimeError from the fault plan's ``crash`` kind), clustering
# that failed to converge, and I/O hiccups.  Semantic failures (parse /
# analysis / build errors) are deterministic and never retried.
_TRANSIENT_ERRORS = (ConvergenceError, RuntimeError, OSError)

# Exponential backoff between transient retries, for both transports:
# attempt ``n`` sleeps ``min(cap, base * 2**n)`` scaled by a jitter in
# ``[0.5, 1.0)`` seeded from ``(seed, statement index, attempt)``, so
# reruns back off identically.
_BACKOFF_BASE_S = 0.02
_BACKOFF_CAP_S = 0.5
_RETRY_JITTER_SEED = 0


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of one :class:`SessionExecutor`.

    workers:
        Pool threads executing statements.
    queue_limit:
        Statements allowed to *wait* beyond the ones executing: once
        ``queued + active >= workers + queue_limit``, submits are
        rejected with :class:`~repro.errors.OverloadedError`.
    deadline_s:
        Per-query wall-clock deadline, measured from admission (queue
        wait counts); ``None`` disables the watchdog.
    max_retries:
        Extra attempts for transient failures (injected crashes,
        convergence errors) before the ticket fails, each after a
        deterministic jittered backoff (20 ms doubling, capped at
        0.5 s).
    breaker:
        Per-dataset circuit-breaker policy; ``None`` disables breakers
        entirely (deterministic replay does this — breaker state would
        otherwise depend on cross-statement completion order).  While a
        dataset's breaker is open its builds run under the tight
        :func:`~repro.serve.breaker.default_open_budget` (the
        short-circuit to the degradation ladder).
    watchdog_interval_s:
        How often the watchdog scans outstanding deadlines.
    """

    workers: int = 4
    queue_limit: int = 8
    deadline_s: Optional[float] = None
    max_retries: int = 2
    breaker: Optional[BreakerConfig] = field(default_factory=BreakerConfig)
    watchdog_interval_s: float = 0.005

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_limit < 0:
            raise ValueError(
                f"queue_limit must be >= 0, got {self.queue_limit}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be > 0, got {self.deadline_s}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.watchdog_interval_s <= 0:
            raise ValueError(
                f"watchdog_interval_s must be > 0, "
                f"got {self.watchdog_interval_s}"
            )


class StatementTicket:
    """One admitted statement: a future plus its serving metadata.

    Tickets are created by :meth:`SessionExecutor.submit` and completed
    by a worker thread; :meth:`wait` blocks until then.  After
    completion, ``outcome`` is one of :data:`OUTCOMES`, ``status`` is
    the workload-log status string, and exactly one of ``result`` /
    ``error`` is set (both ``None`` only for statements whose result is
    ``None`` itself).
    """

    def __init__(
        self,
        index: int,
        sql: str,
        session: str,
        faults: FaultInjector,
        deadline_at: Optional[float] = None,
    ):
        self.index = index
        self.sql = sql
        self.session = session
        self.faults = faults
        self.deadline_at = deadline_at
        self.cancel = CancelToken()
        self.kind: Optional[str] = None       # statement_kind, once parsed
        self.dataset: Optional[str] = None    # breaker key, builds only
        self.attempts = 0
        self.short_circuited = False          # ran under the open budget
        self.probe = False                    # was the half-open probe
        self.result: Optional[object] = None
        self.error: Optional[BaseException] = None
        self.status: Optional[str] = None
        self.outcome: Optional[str] = None
        # set by the multi-process supervisor, whose workers reduce
        # results to JSON digest payloads before they cross the pipe
        # (the thread executor leaves these unset and callers fall back
        # to ``result`` / the session's last report)
        self.degradations: Optional[List[str]] = None
        self.result_payload: object = None
        self.has_result_payload = False
        # deterministic work counters of the final attempt; None unless
        # it reached dbx.execute (proc mode: shipped with the response)
        self.work: Optional[Dict[str, int]] = None
        self.proc_attempts = 0                # resubmits after worker deaths
        self._done = threading.Event()
        self._callbacks: List[Callable[["StatementTicket"], None]] = []

    @property
    def done(self) -> bool:
        """True once the ticket reached a terminal outcome."""
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the ticket completes; False on timeout."""
        return self._done.wait(timeout)

    def add_done_callback(
        self, fn: Callable[["StatementTicket"], None]
    ) -> None:
        """Run ``fn(ticket)`` on completion (immediately if done)."""
        if self._done.is_set():
            fn(self)
            return
        self._callbacks.append(fn)
        # close the register-vs-finish race: finish may have run
        # between the check above and the append
        if self._done.is_set() and fn in self._callbacks:
            self._callbacks.remove(fn)
            fn(self)

    def trip_deadline(
        self, now: float, deadline_s: float, metrics: MetricsRegistry
    ) -> bool:
        """Cancel the ticket once its deadline passed; True if this did."""
        if self.deadline_at is None or now < self.deadline_at:
            return False
        if not self.cancel.cancel(f"deadline of {deadline_s:.3f}s exceeded"):
            return False
        metrics.counter("serve.deadline_tripped").inc()
        return True

    def finish(
        self,
        outcome: str,
        status: str,
        metrics: MetricsRegistry,
        worklog: WorkLogWriter,
        result: Optional[object] = None,
        error: Optional[BaseException] = None,
        elapsed_ms: Optional[float] = None,
        logged: bool = False,
        record: Optional[Dict[str, object]] = None,
    ) -> None:
        """The outcome ledger: how every ticket of either transport ends.

        Counts exactly one ``serve.outcome.<outcome>`` and one
        ``serve.statements.<status>``, adds ``attempts - 1`` to
        ``serve.retries``, counts a cancellation, and observes
        ``serve.latency.<kind>`` for a dispatched statement
        (``elapsed_ms`` given).  Unless the explorer already wrote the
        workload-log record (``logged``), writes it here with the
        transport's extra ``record`` fields.  Then completes the ticket.
        """
        if outcome not in OUTCOMES:
            raise ServeError(f"unknown ticket outcome {outcome!r}")
        kind = self.kind or "invalid"
        metrics.counter(f"serve.outcome.{outcome}").inc()
        metrics.counter(f"serve.statements.{status}").inc()
        if self.attempts > 1:
            metrics.counter("serve.retries").inc(self.attempts - 1)
        if isinstance(error, QueryCancelledError):
            metrics.counter("serve.cancelled").inc()
        if elapsed_ms is not None:
            metrics.histogram(f"serve.latency.{kind}").observe(
                elapsed_ms / 1e3
            )
        if not logged and worklog.enabled:
            fields: Dict[str, object] = {"error": (
                f"{type(error).__name__}: {error}"
                if error is not None else None
            )}
            fields.update(record or {})
            worklog.statement(
                self.sql, kind, status, elapsed_ms or 0.0,
                session=self.session, **fields,
            )
        self.outcome = outcome
        self.status = status
        self.result = result
        self.error = error
        self._done.set()
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:
        state = self.outcome if self.done else "pending"
        return (
            f"StatementTicket(#{self.index}, {state}, "
            f"session={self.session!r})"
        )


# -- the statement core both transports run ---------------------------------


def open_ticket(
    index: int,
    sql: str,
    session: str,
    faults: Optional[FaultInjector],
    fault_index: Optional[int],
    plan: Optional[FaultInjector],
    deadline_s: Optional[float],
    now: Callable[[], float],
) -> StatementTicket:
    """A new ticket with its own fault injector and deadline stamp.

    Without a ``faults`` override the transport's fault ``plan`` is
    forked by ``fault_index`` (default: the ticket index), so counting
    faults never race across tickets.  Queue wait counts against the
    deadline.
    """
    if faults is None:
        faults = (
            plan.fork(index if fault_index is None else fault_index)
            if plan is not None else NO_FAULTS
        )
    deadline_at = now() + deadline_s if deadline_s is not None else None
    return StatementTicket(index, sql, session, faults, deadline_at)


def admit(
    ticket: StatementTicket,
    reserve: Callable[[StatementTicket, bool], Optional[float]],
    queue_limit: int,
    metrics: MetricsRegistry,
    worklog: WorkLogWriter,
) -> None:
    """Admit ``ticket``, or finish it ``rejected`` and raise.

    ``reserve(ticket, refuse)`` is the transport's capacity accounting:
    it takes a slot and returns ``None``, or — queue full, or ``refuse``
    set by a planned error at the ``serve.queue_full`` site — returns
    the Retry-After estimate the raised :class:`OverloadedError`
    carries.  The transport parses before it admits, so a rejected
    ticket's record carries the ``kind`` that parse set (``invalid``
    when the statement did not parse).
    """
    reason = None
    try:
        ticket.faults.fire("serve.queue_full")
    # the planned error becomes the OverloadedError raised below, so
    # nothing is swallowed here
    # repro-lint: ignore[RL004]
    except Exception as exc:
        reason = f"injected overload: {exc}"
    retry_after = reserve(ticket, reason is not None)
    if retry_after is None:
        metrics.counter("serve.admitted").inc()
        return
    error = OverloadedError(
        reason or f"admission queue full ({queue_limit} waiting)",
        retry_after_s=retry_after,
    )
    metrics.counter("serve.rejected").inc()
    ticket.finish("rejected", "rejected", metrics, worklog, error=error)
    raise error


def retry_after_s(latency_ewma_s: float, backlog: int, slots: int) -> float:
    """Retry-After of a full queue: how long until a slot frees up.

    The latency EWMA (0.1 s before any statement finished) scaled by
    the backlog per execution slot.
    """
    avg = latency_ewma_s if latency_ewma_s > 0 else 0.1
    return max(0.05, avg * max(1.0, backlog / float(slots)))


def ewma_s(latency_ewma_s: float, elapsed_s: float) -> float:
    """Fold one finished statement's latency into the EWMA."""
    if latency_ewma_s == 0.0:
        return elapsed_s
    return 0.8 * latency_ewma_s + 0.2 * elapsed_s


@dataclass(frozen=True)
class Execution:
    """What :func:`execute_with_retries` did with one statement.

    ``executed``: ``dbx.execute`` ran on the final attempt (and wrote
    the worklog record).  ``report``: the build report it produced, or
    ``None``.  ``work``: a copy of its work counters (the session's
    next statement overwrites ``last_work``), ``None`` unless it
    executed.
    """

    result: Optional[object]
    error: Optional[BaseException]
    attempts: int
    executed: bool
    report: Optional["BuildReport"]
    work: Optional[Dict[str, int]]


def execute_with_retries(
    dbx: "DBExplorer",
    session: "Session",
    statement: "Union[str, Prepared]",
    cancel: CancelToken,
    faults: FaultInjector,
    budget: Optional[Budget],
    max_retries: int,
    jitter_index: int,
    sleep: Callable[[float], None],
) -> Execution:
    """Run one statement under the transient-retry policy.

    Each attempt fires the ``serve.slow_worker`` site, then runs
    ``dbx.execute`` on ``statement``: SQL text, or the one
    :class:`~repro.core.explorer.Prepared` every attempt reuses.  One
    injector serves every attempt, so counting faults expire.
    Transient errors retry up to ``max_retries`` times after a backoff
    jittered by ``jitter_index``; anything else ends the statement.
    """
    report_before = session.last_report
    result: Optional[object] = None
    error: Optional[BaseException] = None
    executed = False
    for attempt in range(max_retries + 1):
        executed = False
        try:
            cancel.raise_if_cancelled()
            faults.fire("serve.slow_worker")
            cancel.raise_if_cancelled()
            executed = True
            result = dbx.execute(
                statement, session=session, cancel=cancel, budget=budget,
                faults=faults,
            )
            error = None
            break
        except QueryCancelledError as exc:
            error = exc
            break
        except _TRANSIENT_ERRORS as exc:
            error = exc
            if attempt == max_retries or cancel.cancelled:
                break
            sleep(_backoff_s(jitter_index, attempt))
        # not swallowed: the error is the statement's terminal state
        # repro-lint: ignore[RL004]
        except BaseException as exc:
            error = exc
            break
    report = session.last_report
    return Execution(
        result, error, attempt + 1, executed,
        report if report is not report_before else None,
        dict(session.last_work) if executed and session.last_work else None,
    )


def _backoff_s(index: int, attempt: int) -> float:
    base = min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * (2.0 ** attempt))
    rng = random.Random(
        _RETRY_JITTER_SEED * 1_000_003 + index * 1_009 + attempt
    )
    return base * (0.5 + rng.random() / 2.0)


_Admitted = Tuple[StatementTicket, "Prepared"]


class SessionExecutor:
    """Bounded-admission thread pool executing statements through ``dbx``.

    >>> dbx = DBExplorer()
    >>> dbx.register("data", table)
    >>> with SessionExecutor(dbx, ServeConfig(workers=4)) as ex:
    ...     ticket = ex.submit("SELECT Price FROM data", session="u1")
    ...     ticket.wait()
    ...     assert ticket.outcome in ("ok", "degraded")

    ``now`` and ``sleep`` are injectable for deterministic tests.
    """

    def __init__(
        self,
        dbx: "DBExplorer",
        config: Optional[ServeConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        now: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.dbx = dbx
        self.config = config if config is not None else ServeConfig()
        self._metrics = metrics if metrics is not None else registry()
        self._now = now
        self._sleep = sleep
        self._lock = threading.Lock()
        # each admitted ticket with its prepared statement; None stops
        # a worker
        self._queue: "queue.Queue[Optional[_Admitted]]" = queue.Queue()
        self._queued = 0       # tickets waiting for a worker
        self._active = 0       # tickets executing right now
        self._submitted = 0    # monotonically increasing ticket index
        self._latency_ewma_s = 0.0
        self._outstanding: Dict[int, StatementTicket] = {}
        self._closed = False
        self._breakers: Optional[BreakerBoard] = (
            BreakerBoard(self.config.breaker, now=now, metrics=metrics)
            if self.config.breaker is not None else None
        )
        self._stop = threading.Event()
        self._workers = [
            threading.Thread(
                target=self._worker, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(self.config.workers)
        ]
        for thread in self._workers:
            thread.start()
        self._watchdog: Optional[threading.Thread] = None
        if self.config.deadline_s is not None:
            self._watchdog = threading.Thread(
                target=self._watchdog_loop, name="repro-serve-watchdog",
                daemon=True,
            )
            self._watchdog.start()

    # -- admission ---------------------------------------------------------

    def submit(
        self,
        sql: str,
        session: str = "default",
        faults: Optional[FaultInjector] = None,
        fault_index: Optional[int] = None,
    ) -> StatementTicket:
        """Admit one statement, or raise :class:`OverloadedError`.

        ``session`` names the logical session whose state the statement
        updates; ``faults`` overrides the per-statement injector
        (default: the explorer's injector forked by ``fault_index``,
        falling back to the ticket index, so counting faults never race
        across worker threads).  ``fault_index`` exists for replay
        harnesses that submit out of submission order but need fault
        forking keyed to the *statement's* position in its log — the
        multi-process supervisor honors the same parameter.

        Raises :class:`OverloadedError` on a full queue (with a
        Retry-After estimate) and :class:`ServeError` after
        :meth:`close`.  The statement is prepared on the caller thread
        (one parse, one analysis), before admission so that a rejected
        ticket still knows its kind.  Statements the parser or analyzer
        reject are *admitted then failed immediately* there — they get
        a ticket and a worklog record but never cost a pool thread.  An
        admitted statement runs as prepared, re-analyzed only if a
        catalog changed while it was queued.
        """
        with self._lock:
            if self._closed:
                raise ServeError("executor is closed")
            index = self._submitted
            self._submitted += 1
        ticket = open_ticket(
            index, sql, session, faults, fault_index, self.dbx.faults,
            self.config.deadline_s, self._now,
        )
        failure: Optional[ReproError] = None
        try:
            prepared = self.dbx.prepare(sql)
        except ParseError as exc:
            failure = exc
        else:
            ticket.kind = statement_kind(prepared.stmt)
            ticket.dataset = breaker_key(prepared.stmt)
            if not prepared.ok:
                failure = AnalysisError(prepared.report)
        admit(
            ticket, self._reserve, self.config.queue_limit, self._metrics,
            self.dbx.worklog,
        )
        if failure is not None:
            # the analyzer gate: a statement that can never execute
            # fails here without consuming a pool thread
            with self._lock:
                self._queued -= 1
                self._outstanding.pop(index, None)
            ticket.finish(
                "failed", statement_status(failure), self._metrics,
                self.dbx.worklog, error=failure,
            )
            return ticket

        self._queue.put((ticket, prepared))
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
        # in-flight accounting: a burst against idle workers is never
        # spuriously rejected by a dequeue race
        with self._lock:
            backlog = self._queued + self._active
            slots = self.config.workers
            if refuse or backlog >= slots + self.config.queue_limit:
                return retry_after_s(self._latency_ewma_s, backlog, slots)
            self._queued += 1
            self._outstanding[ticket.index] = ticket
            depth = self._queued
        self._metrics.gauge("serve.queue_depth").set(float(depth))
        return None

    # -- worker side -------------------------------------------------------

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            ticket, prepared = item
            with self._lock:
                self._queued -= 1
                self._active += 1
                depth, active = self._queued, self._active
            self._metrics.gauge("serve.queue_depth").set(float(depth))
            self._metrics.gauge("serve.active_workers").set(float(active))
            try:
                self._run_ticket(ticket, prepared)
            finally:
                with self._lock:
                    self._active -= 1
                    self._outstanding.pop(ticket.index, None)
                    active = self._active
                self._metrics.gauge("serve.active_workers").set(
                    float(active)
                )

    def _run_ticket(
        self, ticket: StatementTicket, prepared: "Prepared"
    ) -> None:
        breaker = None
        budget_override: Optional[Budget] = None
        if self._breakers is not None and ticket.dataset is not None:
            breaker = self._breakers.breaker(ticket.dataset)
            full_pipeline, ticket.probe = breaker.allow()
            if not full_pipeline:
                # breaker open: short-circuit onto the degradation
                # ladder instead of burning this thread on a dataset
                # that keeps failing
                ticket.short_circuited = True
                budget_override = default_open_budget()
                self._metrics.counter("serve.breaker.short_circuit").inc()

        session = self.dbx.session(ticket.session)
        start = self._now()
        run = execute_with_retries(
            self.dbx, session, prepared, ticket.cancel, ticket.faults,
            budget_override, self.config.max_retries, ticket.index,
            self._sleep,
        )
        elapsed = self._now() - start
        with self._lock:
            self._latency_ewma_s = ewma_s(self._latency_ewma_s, elapsed)

        status = statement_status(run.error)
        if breaker is not None:
            breaker.settle(status, ticket.cancel.reason, probe=ticket.probe)
        ticket.attempts = run.attempts
        ticket.work = run.work
        if run.error is not None:
            outcome = "failed"
        elif ticket.short_circuited or (
            run.report is not None and run.report.degraded
        ):
            outcome = "degraded"
        else:
            outcome = "ok"
        ticket.finish(
            outcome, status, self._metrics, self.dbx.worklog,
            result=run.result, error=run.error, elapsed_ms=elapsed * 1e3,
            logged=run.executed,
        )

    # -- watchdog ----------------------------------------------------------

    def _watchdog_loop(self) -> None:
        while not self._stop.wait(self.config.watchdog_interval_s):
            now = self._now()
            with self._lock:
                tickets = list(self._outstanding.values())
            for ticket in tickets:
                ticket.trip_deadline(
                    now, self.config.deadline_s, self._metrics
                )

    # -- introspection / shutdown ------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry this executor counts into."""
        return self._metrics

    def breaker_states(self) -> Dict[str, str]:
        """Dataset -> breaker state name (empty when disabled)."""
        if self._breakers is None:
            return {}
        return self._breakers.states()

    def close(self, wait: bool = True) -> None:
        """Stop accepting work, drain the queue, join the threads."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._workers:
            self._queue.put(None)
        if wait:
            for thread in self._workers:
                thread.join()
        self._stop.set()
        if self._watchdog is not None and wait:
            self._watchdog.join()

    def __enter__(self) -> "SessionExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
