"""The worker subprocess: one dataset shard behind a frame pipe.

``worker_main`` is the spawn-context entry point the
:class:`~repro.serve.proc.supervisor.ProcSupervisor` launches one
process per shard with.  A worker:

1. rebuilds its world from a :class:`WorkerSpec` (generate or load the
   table, construct a :class:`~repro.core.explorer.DBExplorer` with the
   workload log and environment fault plan explicitly *disabled* — the
   supervisor owns both), then **replays the catalog journal**: the
   ordered catalog-mutating statements previous incarnations executed
   successfully, so a restarted worker serves ``HIGHLIGHT``/``REORDER``
   against views a dead predecessor built (builds are seeded, so the
   replayed catalog is bit-identical);
2. sends a ``ready`` frame and starts a **heartbeat thread** beating
   every ``heartbeat_interval_s`` — the supervisor's missed-heartbeat
   detector is the only way a *hung* (not dead) worker is caught;
3. executes requests **serially** on the main thread through the
   thread executor's own retry loop
   (:func:`~repro.serve.executor.execute_with_retries`: transient
   errors retried with deterministic backoff jitter, one forked fault
   injector persisting across attempts), while a **reader thread**
   keeps consuming frames so ``cancel`` can trip an in-flight
   statement's :class:`~repro.robustness.CancelToken` mid-build.

Results never cross the pipe as live objects: the worker reduces them
to the JSON-able digest payload (:func:`repro.serve.stress.
result_payload`) before responding, so the parent hashes exactly what
a thread-mode replay would have hashed.

The three ``proc.*`` fault sites are consulted here, narrowed by the
statement's index (``proc.worker_crash:3`` targets statement #3):

* ``proc.worker_crash`` — ``os._exit`` with :data:`WORKER_CRASH_EXIT`;
* ``proc.worker_hang``  — a planned ``sleep`` runs with the heartbeat
  *suppressed*, so the supervisor sees silence, not a slow build;
* ``proc.pipe_drop``    — close the pipe, then exit, so the supervisor
  sees EOF/torn frames instead of a clean response.

Each request carries its ``proc_attempt`` (how many incarnations
already died trying it); the worker advances the ``proc.*`` sites by
that count so a counting fault fires once per *statement*, not once per
incarnation — which is what makes chaos runs deterministic.
"""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.robustness.budget import Budget
from repro.robustness.cancel import CancelToken
from repro.robustness.faults import NO_FAULTS, FaultInjector
from repro.obs.metrics import registry
from repro.obs.tracer import Span, Tracer, epoch_anchor, span_to_wire
from repro.obs.worklog import statement_kind, statement_status
from repro.serve.executor import execute_with_retries
from repro.serve.proc.protocol import (
    FRAME_BYE,
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

__all__ = [
    "WorkerSpec",
    "worker_main",
    "WORKER_CRASH_EXIT",
    "PIPE_DROP_EXIT",
    "PROC_FAULT_SITES",
]

WORKER_CRASH_EXIT = 13
"""Exit code of an injected ``proc.worker_crash`` (a segfault stand-in)."""

PIPE_DROP_EXIT = 14
"""Exit code after an injected ``proc.pipe_drop`` closed the pipe."""

PROC_FAULT_SITES = (
    "proc.worker_crash", "proc.worker_hang", "proc.pipe_drop",
)

# Telemetry buffer bounds: overflow is *dropped and counted*, never
# queued unboundedly and never allowed to block request execution.
_TEL_MAX_SPANS = 128
_TEL_MAX_EVENTS = 256


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to rebuild its world after spawn.

    The spec crosses the process boundary as a plain dict (spawn
    pickles the ``Process`` args), so every field is a JSON-able
    scalar; the fault plan travels as its *spec string*, not as a live
    injector.

    dataset / rows / seed / csv:
        The table to serve — same vocabulary as the CLI data flags.
    faults_spec:
        The fault plan (``site=kind[*times]`` syntax); the worker forks
        one injector per statement index, exactly like the thread
        executor, so chaos fires identically no matter which process
        executes the statement.
    budget:
        The explorer-level :class:`Budget` as a field dict (``None``
        for unbudgeted); per-request overrides (a breaker's open
        budget) arrive on the request frame instead.
    max_retries:
        Proc mode's transient-retry count (``--max-retries`` lands
        here), run in the worker by the thread executor's own loop and
        backoff.
    """

    dataset: str = "usedcars"
    rows: Optional[int] = None
    seed: int = 7
    csv: Optional[str] = None
    faults_spec: Optional[str] = None
    budget: Optional[Dict[str, object]] = None
    max_retries: int = 2
    ship_spans: bool = False
    """When True (the supervisor was given a tracer), the worker builds
    a span tree per request and ships it over ``TELEMETRY`` frames;
    metrics and lifecycle events ship regardless."""

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )

    def as_dict(self) -> Dict[str, object]:
        """The spawn-safe plain-dict form."""
        return asdict(self)


def _build_explorer(spec: WorkerSpec):
    """A DBExplorer with env-driven worklog/faults explicitly off."""
    from repro.core.cadview import CADViewConfig
    from repro.core.explorer import DBExplorer
    from repro.dataset.generators import load_table
    from repro.obs.worklog import NO_WORKLOG

    budget = Budget(**spec.budget) if spec.budget else None
    dbx = DBExplorer(
        CADViewConfig(seed=spec.seed),
        budget=budget,
        faults=NO_FAULTS,      # the supervisor forwards faults per request
        worklog=NO_WORKLOG,    # the supervisor writes the parent-side log
    )
    dbx.register(
        "data", load_table(spec.dataset, spec.rows, spec.seed, spec.csv)
    )
    return dbx


class _Worker:
    """The in-process state of one worker incarnation."""

    def __init__(
        self,
        spec: WorkerSpec,
        conn,
        shard: int,
        incarnation: int,
        journal: List[Tuple[str, str]],
        heartbeat_interval_s: float,
    ):
        self.spec = spec
        self.conn = conn
        self.shard = shard
        self.incarnation = incarnation
        self.journal = journal
        self.heartbeat_interval_s = heartbeat_interval_s
        self._send_lock = threading.Lock()
        self._hang = threading.Event()      # heartbeat suppressed while set
        self._stop = threading.Event()
        self._requests: "queue.Queue[Optional[Dict[str, object]]]" = (
            queue.Queue()
        )
        self._tokens_lock = threading.Lock()
        self._tokens: Dict[str, CancelToken] = {}
        self._base_faults = (
            FaultInjector.parse(spec.faults_spec)
            if spec.faults_spec else None
        )
        # telemetry buffers: bounded, drop-counted, flushed best-effort
        self._anchor = epoch_anchor()
        self._tel_lock = threading.Lock()
        self._tel_spans: List[Dict[str, object]] = []
        self._tel_events: List[Dict[str, object]] = []
        self._tel_dropped = 0
        self._tel_seq = 0
        # the startup span covers table build + journal replay — every
        # incarnation that reaches READY ships at least this one span
        self._startup_span = Span(
            "worker.startup", shard=shard, incarnation=incarnation,
            pid=os.getpid(),
        )
        self.dbx = _build_explorer(spec)

    # -- plumbing ----------------------------------------------------------

    def send(self, kind: int, payload: Dict[str, object]) -> None:
        """Write one frame (heartbeat and executor threads share the pipe)."""
        with self._send_lock:
            send_frame(self.conn, kind, payload)

    def _heartbeat_loop(self) -> None:
        seq = 0
        while not self._stop.wait(self.heartbeat_interval_s):
            if self._hang.is_set():
                # an injected hang: go silent, stay alive — telemetry
                # rides the same suppression so a hung worker looks
                # hung end to end
                continue
            seq += 1
            try:
                self.send(FRAME_HEARTBEAT, {"seq": seq})
            except (OSError, ValueError):
                return  # pipe gone: the parent died or we are exiting
            self._flush_telemetry()

    # -- telemetry ---------------------------------------------------------

    def _queue_span(self, span: Span) -> None:
        """Buffer one completed span tree for shipping; drop on overflow."""
        tree = span_to_wire(span, self._anchor)
        with self._tel_lock:
            if len(self._tel_spans) >= _TEL_MAX_SPANS:
                self._tel_dropped += 1
                return
            self._tel_spans.append(tree)

    def _queue_event(self, kind: str, **attrs) -> None:
        """Buffer one lifecycle event; drop on overflow."""
        entry: Dict[str, object] = {
            "kind": kind, "source": "worker",
            "ts": self._anchor + time.perf_counter(),
        }
        entry.update(attrs)
        with self._tel_lock:
            if len(self._tel_events) >= _TEL_MAX_EVENTS:
                self._tel_dropped += 1
                return
            self._tel_events.append(entry)

    def _flush_telemetry(self) -> None:
        """Ship buffered telemetry; best-effort, never raises.

        The buffers are swapped out under ``_tel_lock`` and the frame
        is sent *after* the lock is released (RL009: no pipe I/O while
        holding an obs lock) — a slow or blocked pipe can delay this
        flush but can never wedge a thread that is merely queueing.
        """
        with self._tel_lock:
            spans = self._tel_spans
            events = self._tel_events
            self._tel_spans = []
            self._tel_events = []
            self._tel_seq += 1
            seq = self._tel_seq
            dropped = self._tel_dropped
        payload = {
            "shard": self.shard,
            "incarnation": self.incarnation,
            "pid": os.getpid(),
            "seq": seq,
            "dropped": dropped,
            "metrics": registry().snapshot(),  # cumulative, self-healing
            "spans": spans,
            "events": events,
        }
        try:
            self.send(FRAME_TELEMETRY, payload)
        except (OSError, ValueError):
            pass  # pipe gone; the run loop will notice separately

    def _reader_loop(self) -> None:
        while True:
            try:
                kind, payload = recv_frame(self.conn)
            except (EOFError, OSError, ProtocolError):
                # parent gone (or pipe torn): stop executing and exit —
                # never linger as an orphan serving nobody
                self._requests.put(None)
                return
            if kind == FRAME_REQUEST:
                self._requests.put(payload)
            elif kind == FRAME_CANCEL:
                with self._tokens_lock:
                    token = self._tokens.get(str(payload.get("id")))
                if token is not None:
                    token.cancel(
                        str(payload.get("reason") or "cancelled")
                    )
            elif kind == FRAME_DRAIN:
                self._requests.put(None)

    # -- startup -----------------------------------------------------------

    def replay_journal(self) -> int:
        """Re-execute the catalog journal; returns statements replayed.

        Journal statements already succeeded in a previous incarnation
        and builds are seeded, so failures here mean the world changed
        under us (a CSV disappeared); they are skipped — the affected
        view simply stays missing and later statements against it fail
        with the normal unknown-view error.
        """
        replayed = 0
        for sql, session in self.journal:
            try:
                self.dbx.execute(sql, session=session)
                replayed += 1
            except ReproError:
                continue
        return replayed

    # -- the executor loop -------------------------------------------------

    def run(self) -> int:
        """Serve requests until drained; returns the exit code."""
        threading.Thread(
            target=self._reader_loop,
            name=f"proc-worker-{self.shard}-reader", daemon=True,
        ).start()
        replayed = self.replay_journal()
        threading.Thread(
            target=self._heartbeat_loop,
            name=f"proc-worker-{self.shard}-heartbeat", daemon=True,
        ).start()
        self.send(FRAME_READY, {
            "pid": os.getpid(),
            "shard": self.shard,
            "incarnation": self.incarnation,
            "journal_replayed": replayed,
        })
        self._startup_span.set_attr("journal_replayed", replayed)
        self._startup_span.close()
        self._queue_span(self._startup_span)
        self._queue_event(
            "worker.ready", pid=os.getpid(), journal_replayed=replayed,
        )
        self._flush_telemetry()
        while True:
            request = self._requests.get()
            if request is None:
                break
            self._serve_request(request)
        self._stop.set()
        self._queue_event("worker.drain", pid=os.getpid())
        self._flush_telemetry()
        try:
            self.send(FRAME_BYE, {"shard": self.shard})
        except (OSError, ValueError):
            pass  # parent already gone; exiting is all that is left
        return 0

    def _serve_request(self, request: Dict[str, object]) -> None:
        req_id = str(request["id"])
        sql = str(request["sql"])
        session = str(request.get("session") or "default")
        fault_index = int(request.get("fault_index") or 0)
        proc_attempt = int(request.get("proc_attempt") or 0)
        injector = (
            self._base_faults.fork(fault_index)
            if self._base_faults is not None else NO_FAULTS
        )
        self._fire_proc_faults(injector, fault_index, proc_attempt)
        budget_override: Optional[Budget] = None
        raw_budget = request.get("budget")
        if isinstance(raw_budget, dict):
            budget_override = Budget(**raw_budget)
        token = CancelToken()
        with self._tokens_lock:
            self._tokens[req_id] = token
        req_tracer: Optional[Tracer] = None
        prev_tracer = None
        if self.spec.ship_spans:
            # the build pipeline traces into the explorer's tracer; a
            # per-request root carrying the request id is what lets the
            # hub stitch this tree under the supervisor's request span
            req_tracer = Tracer(
                "worker.request", request_id=req_id,
                shard=self.shard, incarnation=self.incarnation,
            )
            prev_tracer = self.dbx.tracer
            self.dbx.tracer = req_tracer
        try:
            response = self._execute(
                sql, session, injector, token, budget_override,
                fault_index,
            )
        finally:
            if req_tracer is not None:
                self.dbx.tracer = prev_tracer
            with self._tokens_lock:
                self._tokens.pop(req_id, None)
        response["id"] = req_id
        response["incarnation"] = self.incarnation
        if req_tracer is not None:
            root = req_tracer.finish()
            root.set_attr("status", response.get("status"))
            self._queue_span(root)
        self.send(FRAME_RESPONSE, response)
        self._flush_telemetry()

    def _fire_proc_faults(
        self, injector: FaultInjector, index: int, proc_attempt: int
    ) -> None:
        """Consult the three proc sites, honoring prior incarnations."""
        key = str(index)
        if proc_attempt:
            for site in PROC_FAULT_SITES:
                injector.advance(site, proc_attempt, key)
        try:
            injector.fire("proc.worker_crash", key)
        # this handler IS the fault: an injected worker crash must look
        # like a segfault (hard nonzero exit), not a Python traceback
        # repro-lint: ignore[RL004]
        except Exception:
            self.conn.close()
            os._exit(WORKER_CRASH_EXIT)
        # a planned sleep here is a *hang*: the heartbeat goes silent
        # for the duration, so the supervisor's missed-heartbeat
        # detector (not a pipe event) is what must catch us
        self._hang.set()
        try:
            injector.fire("proc.worker_hang", key)
        finally:
            self._hang.clear()
        try:
            injector.fire("proc.pipe_drop", key)
        # likewise the fault itself: tear the pipe, then die quietly so
        # the supervisor sees EOF rather than a response
        # repro-lint: ignore[RL004]
        except Exception:
            self.conn.close()
            os._exit(PIPE_DROP_EXIT)

    def _execute(
        self,
        sql: str,
        session: str,
        injector: FaultInjector,
        token: CancelToken,
        budget_override: Optional[Budget],
        fault_index: int,
    ) -> Dict[str, object]:
        """One statement through the thread executor's retry loop.

        The statement is parsed once: the prepared statement both runs
        and names the reply's ``kind`` and ``pivot``.
        """
        # lazy import: keeps worker import time (spawn latency) down and
        # avoids a module cycle through repro.serve.stress
        from repro.core.explorer import _result_rows
        from repro.query.ast import CreateCadViewStatement
        from repro.serve.stress import result_payload

        start = time.perf_counter()
        try:
            statement = self.dbx.prepare(sql)
            stmt = statement.stmt
        except ReproError:
            # the supervisor parsed it already, so this is not expected;
            # the text then fails in execution as it would in process
            statement, stmt = sql, None
        run = execute_with_retries(
            self.dbx, self.dbx.session(session), statement, token,
            injector, budget_override, self.spec.max_retries, fault_index,
            time.sleep,
        )
        elapsed_ms = (time.perf_counter() - start) * 1e3
        result, error, report = run.result, run.error, run.report
        degradations = (
            [str(d) for d in report.degradations]
            if report is not None else []
        )
        degraded = (
            error is None and report is not None and report.degraded
        )
        pivot = (
            stmt.pivot if isinstance(stmt, CreateCadViewStatement) else None
        )
        phases_ms = None
        if report is not None and report.profile is not None:
            phases_ms = {
                "compare_attrs": report.profile.compare_attrs_s * 1e3,
                "iunits": report.profile.iunits_s * 1e3,
                "others": report.profile.others_s * 1e3,
            }
        status = statement_status(error)
        kind = statement_kind(stmt)
        # process-local metrics: shipped to the supervisor as part of
        # the cumulative TELEMETRY snapshot, re-labeled per shard there
        reg = registry()
        reg.histogram(f"worker.latency.{kind}").observe(elapsed_ms / 1e3)
        reg.counter(f"worker.statements.{status}").inc()
        return {
            "status": status,
            "degraded": degraded,
            "degradations": degradations,
            "result_payload": result_payload(result),
            "rows_out": _result_rows(result),
            "pivot": pivot,
            "phases_ms": phases_ms,
            # EXPLAIN renders worker-side (the plan/timings live here);
            # ship the text so the supervisor can return real phase
            # numbers instead of silently-zero parent-side timings
            "explain_text": result if isinstance(result, str) else None,
            "kind": kind,
            "error": (
                f"{type(error).__name__}: {error}"
                if error is not None else None
            ),
            "cancel_reason": token.reason,
            "attempts": run.attempts,
            "elapsed_ms": elapsed_ms,
            # deterministic work counters of the final attempt (None
            # when it never reached dbx.execute) — exact integers, so
            # the supervisor can log/ship them verbatim
            "work": run.work,
        }


def worker_main(
    spec_dict: Dict[str, object],
    conn,
    shard: int,
    incarnation: int,
    journal: List[Tuple[str, str]],
    heartbeat_interval_s: float,
) -> None:
    """Spawn entry point: build the shard, serve until drained, exit 0."""
    # the supervisor coordinates interrupts; a stray ^C on the process
    # group must not take workers down un-drained
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    spec = WorkerSpec(**spec_dict)
    worker = _Worker(
        spec, conn, shard, incarnation,
        [tuple(entry) for entry in journal],
        heartbeat_interval_s,
    )
    # SIGTERM = drain: finish the current statement, then exit cleanly
    signal.signal(
        signal.SIGTERM,
        lambda signum, frame: worker._requests.put(None),
    )
    code = worker.run()
    conn.close()
    os._exit(code)
