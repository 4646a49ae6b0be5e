"""One workload process: set up, say ready, run the measured sessions.

``run.py`` launches this file as a fresh interpreter per set-up sample,
so the set-up it times covers interpreter start, imports, dataset
generation and registration, serving-layer start and one warm-up
session.  Protocol: one JSON object per line on the original stdout
(``{"event": "ready", ...}`` then ``{"event": "result", ...}``); the
program's own prints are redirected to stderr.

Modes: ``setup`` stops after ``ready``; ``measure`` runs the seeded
script untraced; ``trace`` runs every session twice in a row, once
untraced and once with the layer wrappers installed (alternating which
goes first), and reports the per-layer table (end-to-end numbers never
come from this mode).  Sessions the host stole CPU from are replayed
(:class:`Client`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional

import stats
import workloads
from workloads import CLASS_OF, CLASSES, Session

REPLY_TIMEOUT_S = 60.0
MAX_PLAYS = 4
"""Most plays of one session while the host steals CPU (see Client)."""
REPLAY_BUDGET_S = 15.0
"""Extra wall time replays may add to one run; sized so that 48 runs
of the two gated workloads fit the regression gate's time budget even
when every run spends it."""


class Reply:
    """What one statement returned, read after the timed region."""

    __slots__ = ("status", "outcome", "payload", "work", "live")

    def __init__(self, status, outcome, payload, work, live=None):
        self.status = status
        self.outcome = outcome
        self.payload = payload
        self.work = work
        self.live = live   # the live result object, in-process only


def _submit(server, sql: str, session: str):
    """Submit to an executor or supervisor and wait for the ticket."""
    from repro.errors import ServeError

    try:
        ticket = server.submit(sql, session=session)
    except ServeError as exc:
        return exc
    ticket.wait(REPLY_TIMEOUT_S)
    return ticket


def _unanswered(handle) -> Optional[Reply]:
    """The reply of a ticket that was rejected or never finished."""
    if isinstance(handle, Exception):
        return Reply("rejected", "rejected", None, None)
    if not handle.done:
        return Reply("timeout", "failed", None, None)
    return None


def _generate_table():
    # looked up on the module at call time, so a traced run's wrapper
    # on generate_usedcars sees this call
    from repro.dataset import generators

    return generators.generate_usedcars(
        workloads.ROWS, seed=workloads.DATA_SEED
    )


class ThreadTransport:
    """``explore``: SessionExecutor with its default ServeConfig."""

    def __init__(self, metrics, tmp: str):
        from repro.core.cadview import CADViewConfig
        from repro.core.explorer import DBExplorer
        from repro.serve.executor import ServeConfig, SessionExecutor

        dbx = DBExplorer(CADViewConfig(seed=workloads.DATA_SEED))
        dbx.register("data", _generate_table())
        self.executor = SessionExecutor(dbx, ServeConfig(), metrics=metrics)

    def call(self, sql: str, session: str):
        return _submit(self.executor, sql, session)

    def inspect(self, handle, session: str) -> Reply:
        from repro.serve.stress import result_payload

        return _unanswered(handle) or Reply(
            handle.status, handle.outcome, result_payload(handle.result),
            handle.work, handle.result,
        )

    def close(self) -> Dict[str, object]:
        self.executor.close()
        return {}


class InProcTransport:
    """``worst-build``: ``DBExplorer.execute`` with the Fig. 8 config."""

    def __init__(self, metrics, tmp: str):
        from repro.core.cadview import CADViewConfig
        from repro.core.explorer import DBExplorer

        self.dbx = DBExplorer(CADViewConfig(
            compare_limit=11, iunits_k=6, generated_l=15,
            seed=workloads.DATA_SEED,
        ))
        self.dbx.register("data", _generate_table())

    def call(self, sql: str, session: str):
        from repro.errors import ReproError

        before = self.dbx.session(session).last_report
        try:
            return before, self.dbx.execute(sql, session=session), None
        except ReproError as exc:
            return before, None, exc

    def inspect(self, handle, session: str) -> Reply:
        from repro.errors import AnalysisError
        from repro.serve.stress import result_payload

        before, result, error = handle
        sess = self.dbx.session(session)
        if error is not None:
            status = ("analysis_error" if isinstance(error, AnalysisError)
                      else type(error).__name__)
            return Reply(status, "failed", None, sess.last_work)
        report = sess.last_report
        degraded = report is not before and report is not None \
            and report.degraded
        return Reply("ok", "degraded" if degraded else "ok",
                     result_payload(result), sess.last_work, result)

    def close(self) -> Dict[str, object]:
        return {}


class ProcTransport:
    """``explore-procs``: ProcSupervisor, 2 shards, WAL in a fresh dir."""

    def __init__(self, metrics, tmp: str):
        from repro.serve.proc.supervisor import (
            ProcServeConfig,
            ProcSupervisor,
        )
        from repro.serve.proc.worker import WorkerSpec

        state_dir = os.path.join(tmp, "state")
        os.makedirs(state_dir)   # empty: start-up runs WAL recovery on it
        self.sup = ProcSupervisor(
            WorkerSpec(dataset="usedcars", rows=workloads.ROWS,
                       seed=workloads.DATA_SEED),
            ProcServeConfig(shards=2, state_dir=state_dir),
            metrics=metrics,
        )
        self.metrics = metrics
        if not self.sup.wait_ready(timeout=120.0):
            raise RuntimeError("proc workers did not become ready")

    def call(self, sql: str, session: str):
        return _submit(self.sup, sql, session)

    def inspect(self, handle, session: str) -> Reply:
        return _unanswered(handle) or Reply(
            handle.status, handle.outcome, handle.result_payload,
            handle.work,
        )

    def worker_pids(self) -> List[int]:
        return [p.pid for p in multiprocessing.active_children()]

    def worker_startup_s(self) -> List[float]:
        """Durations of the workers' shipped ``worker.startup`` spans."""
        return [
            float(t["tree"]["end_ts"]) - float(t["tree"]["start_ts"])
            for t in self.sup.telemetry.span_trees()
            if t["tree"].get("name") == "worker.startup"
        ]

    def close(self) -> Dict[str, object]:
        chaos = self.sup.chaos_stats()
        drain = self.sup.drain()
        counter = self.metrics.counter
        return {
            "deaths": chaos["deaths"],
            "total_deaths": chaos["total_deaths"],
            "restarts": int(counter("proc.restarts").value),
            "resubmits": chaos["resubmits"],
            "rejected": int(counter("serve.rejected").value),
            "drain_clean": bool(drain.get("clean")),
            "exitcodes": drain.get("exitcodes"),
            "wal_fsyncs": int(counter("wal.fsyncs").value),
            "wal_snapshots": int(counter("wal.snapshots").value),
        }


TRANSPORTS = {
    "explore": ThreadTransport,
    "worst-build": InProcTransport,
    "explore-procs": ProcTransport,
}


class SessionRun:
    """One play of one session, kept or dropped as a whole."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.work: Dict[str, int] = defaultdict(int)
        self.problems: List[str] = []
        self.records: List[dict] = []
        self.traces: List[dict] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.stolen_ticks = 0   # /proc/stat steal ticks during the play


class Client:
    """The single closed-loop client: one statement after another.

    With ``replay_budget_s`` set, a session during which the hypervisor
    stole CPU from the VM (``/proc/stat`` steal ticks moved) is played
    again, up to :data:`MAX_PLAYS` plays and ``replay_budget_s`` of
    extra wall time per run, and the fastest play is kept.  Steal only
    hints at host interference, so the least disturbed play is the
    fastest one; every play does the same work.  A session creates and
    drops its own view, so a replay sees the same catalog.  Every play
    is checked: a wrong outcome, or results that differ between plays,
    counts as a failure even when the play is dropped.
    """

    def __init__(self, transport, recorder=None, replay_budget_s=0.0):
        self.transport = transport
        self.recorder = recorder
        self.replay_left = replay_budget_s
        self.digest = hashlib.sha256()
        self.work: Dict[str, int] = defaultdict(int)
        self.problems: List[str] = []
        self.records: List[dict] = []
        self.traces: List[dict] = []
        self.attempted = 0
        self.replays = 0
        self.window_s = 0.0
        self.cpu_s = 0.0
        self.stolen_ticks = 0       # steal during the kept plays
        self.stolen_sessions = 0    # kept plays that still saw steal

    def run_session(self, session: Session, traced: bool = False) -> None:
        """Play one session (again, while the host steals) and keep it."""
        best: Optional[SessionRun] = None
        for play in range(MAX_PLAYS):
            steal0, cpu0 = stats.steal_ticks(), _cpu_s(self.transport)
            wall0 = time.perf_counter()
            run = self._play(session, traced)
            run.wall_s = time.perf_counter() - wall0
            run.cpu_s = _cpu_s(self.transport) - cpu0
            steal1 = stats.steal_ticks()
            run.stolen_ticks = (steal1 - steal0
                                if None not in (steal0, steal1) else 0)
            self.attempted += len(session.statements)
            self.problems.extend(run.problems)
            if best is not None and \
                    run.digest.digest() != best.digest.digest():
                self.problems.append(
                    f"{session.name}: results differ between plays"
                )
            if play:
                self.replay_left -= run.wall_s
            if best is None or run.wall_s < best.wall_s:
                best = run
            if run.stolen_ticks == 0 or self.replay_left <= 0 \
                    or play + 1 == MAX_PLAYS:
                break
            self.replays += 1
        self.digest.update(best.digest.digest())
        for name, count in best.work.items():
            self.work[name] += count
        self.records.extend(best.records)
        self.traces.extend(best.traces)
        self.window_s += best.wall_s
        self.cpu_s += best.cpu_s
        self.stolen_ticks += best.stolen_ticks
        self.stolen_sessions += best.stolen_ticks > 0

    def _play(self, session: Session, traced: bool) -> SessionRun:
        transport, recorder = self.transport, self.recorder
        run = SessionRun()
        created = None
        run.digest.update(session.name.encode())
        for index, stmt in enumerate(session.statements):
            sql = workloads.resolve(stmt, created)
            if traced:
                recorder.begin(f"{session.name}.{index}")
            t0 = time.perf_counter()
            handle = transport.call(sql, session.name)
            t1 = time.perf_counter()
            trace = recorder.end(t0, t1) if traced else None
            reply = transport.inspect(handle, session.name)
            if stmt.kind == "create" and isinstance(reply.payload, dict):
                created = reply.payload
            problem = workloads.check(
                stmt, session, reply.status, reply.outcome, reply.payload,
                created, sql, _ordered(stmt, reply.live),
            ) or _check_rows(stmt, session, reply.live)
            if problem is not None:
                run.problems.append(f"{session.name} #{index} "
                                    f"{stmt.kind}: {problem}  [{sql}]")
            run.digest.update(json.dumps(
                [index, reply.status, reply.payload],
                sort_keys=True, default=str,
            ).encode())
            for name, count in (reply.work or {}).items():
                run.work[name] += int(count)
            run.records.append({
                "kind": stmt.kind, "cls": CLASS_OF[stmt.kind],
                "latency_ms": (t1 - t0) * 1e3,
            })
            if trace is not None:
                run.traces.append(_trace_record(stmt, trace, reply))
        return run

    def fingerprint(self) -> str:
        return self.digest.hexdigest()


def _ordered(stmt, live) -> Optional[List[float]]:
    if stmt.order is None or live is None or not hasattr(live, "iter_rows"):
        return None
    return [float(row[stmt.order[0]]) for row in live.iter_rows()]


def _check_rows(stmt, session: Session, live) -> Optional[str]:
    # in-process only: the build saw exactly the catalog's result size
    if stmt.kind != "create" or live is None or live.report is None \
            or live.report.trace is None:
        return None
    rows_in = live.report.trace.attrs.get("rows_in")
    if rows_in != session.rows:
        return f"CREATE saw {rows_in} rows, catalog says {session.rows}"
    return None


def _trace_record(stmt, trace, reply) -> dict:
    phases = trace.phases_ms
    live = reply.live
    if phases is None and stmt.kind == "create" and live is not None:
        phases = {
            "compare_attrs": live.profile.compare_attrs_s * 1e3,
            "iunits": live.profile.iunits_s * 1e3,
            "others": live.profile.others_s * 1e3,
        }
    shown = None
    if stmt.kind == "create" and isinstance(reply.payload, dict):
        rows = reply.payload.get("rows") or {}
        shown = sum(len(units) for units in rows.values())
    return {
        "kind": stmt.kind, "cls": CLASS_OF[stmt.kind], "trace": trace,
        "work": dict(reply.work or {}), "phases": phases, "shown": shown,
        "pivots": (len(reply.payload.get("pivot_values") or [])
                   if stmt.kind == "create"
                   and isinstance(reply.payload, dict) else 0),
    }


def _cpu_s(transport) -> float:
    """CPU seconds used so far by the workload's processes."""
    total = time.process_time()
    if isinstance(transport, ProcTransport):
        total += sum(stats.proc_cpu_s(pid) for pid in transport.worker_pids())
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sessions", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args(argv)
    channel = os.fdopen(os.dup(1), "w")
    sys.stdout = sys.stderr

    def emit(obj) -> None:
        channel.write(json.dumps(obj, sort_keys=True) + "\n")
        channel.flush()

    recorder = None
    if args.mode == "trace":
        import tracing

        recorder = tracing.Recorder()
        recorder.install()
    t0 = time.perf_counter()
    from repro.obs.metrics import MetricsRegistry   # imports the package

    metrics = MetricsRegistry()
    t_import = time.perf_counter()
    transport = TRANSPORTS[args.workload](metrics, args.tmp)
    t_start = time.perf_counter()
    warm = Client(transport)
    warm.run_session(workloads.warmup_session(args.workload))
    t_ready = time.perf_counter()
    if recorder is not None:
        recorder.restore()
    emit({
        "event": "ready",
        "breakdown_s": {
            "import": t_import - t0,
            "start": t_start - t_import,
            "warm-up": t_ready - t_start,
        },
        "warmup_problems": warm.problems,
    })
    if args.mode == "setup":
        emit({"event": "result", "serving": transport.close()})
        return 0

    sessions = workloads.script(args.workload, args.seed, args.sessions)
    if args.mode == "measure":
        client = Client(transport, replay_budget_s=REPLAY_BUDGET_S)
        steal0, load0 = stats.steal_ticks(), stats.loadavg()
        for session in sessions:
            client.run_session(session)
        result = _measure_result(client, transport)
        result.update(steal_before=steal0, steal_after=stats.steal_ticks(),
                      load_before=load0, load_after=stats.loadavg())
    else:
        result = _trace_result(transport, recorder, sessions, metrics)
    result["serving"] = transport.close()
    result["event"] = "result"
    emit(result)
    return 0


def _gating(client: Client) -> dict:
    return {
        "replays": client.replays,
        "stolen_sessions": client.stolen_sessions,
        "stolen_ticks": client.stolen_ticks,
        "budget_left_s": client.replay_left,
    }


def _measure_result(client: Client, transport) -> dict:
    latency: Dict[str, List[float]] = {c: [] for c in CLASSES}
    kinds: Dict[str, int] = defaultdict(int)
    for rec in client.records:
        latency[rec["cls"]].append(rec["latency_ms"])
        kinds[rec["kind"]] += 1
    rss = {"self": stats.peak_rss_mb()}
    if isinstance(transport, ProcTransport):
        for pid in transport.worker_pids():
            rss[f"worker{pid}"] = stats.proc_peak_rss_mb(pid)
    return {
        "latency_ms": latency,
        "kinds": dict(kinds),
        "attempted": client.attempted,
        "completed": len(client.records),
        "failed": len(client.problems),
        "problems": client.problems[:20],
        "window_s": client.window_s,
        "gating": _gating(client),
        "fingerprint": client.fingerprint(),
        "work_totals": dict(sorted(client.work.items())),
        "rss_mb": rss,
    }


def _trace_result(transport, recorder, sessions, metrics) -> dict:
    import tracing

    untraced = Client(transport, replay_budget_s=REPLAY_BUDGET_S / 2)
    client = Client(transport, recorder, replay_budget_s=REPLAY_BUDGET_S / 2)
    counters = ("wal.fsyncs", "wal.snapshots", "wal.batched_acks")
    traced_delta: Dict[str, float] = defaultdict(float)
    for i, session in enumerate(sessions):
        # each session runs untraced and traced back to back, the order
        # alternating so drift and first-run effects fall on both sides
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced:
                untraced.run_session(session)
                continue
            before = {n: metrics.counter(n).value for n in counters}
            recorder.install()
            try:
                client.run_session(session, traced=True)
            finally:
                recorder.restore()
            for name in counters:
                traced_delta[name] += (metrics.counter(name).value
                                       - before[name])
    generate_s = recorder.setup_seconds("dataset.generate")
    if isinstance(transport, ProcTransport):
        startups = transport.worker_startup_s()
        generate_s = sum(startups) / len(startups) if startups else 0.0
    context = {
        "untraced_latency_ms": [r["latency_ms"] for r in untraced.records],
        "generate_s": generate_s,
        "ready_s": (recorder.setup_seconds("proc.start")
                    + recorder.setup_seconds("proc.wait_ready")),
        "cpu_per_wall": (untraced.cpu_s / untraced.window_s
                         if untraced.window_s > 0 else 0.0),
        "counters": {
            n: metrics.counter(n).value
            for n in ("proc.deaths", "proc.restarts", "proc.resubmits",
                      "serve.rejected")
        },
        "traced_counters": dict(traced_delta),
        "executor": isinstance(transport, ThreadTransport),
    }
    return {
        "per_layer": tracing.per_layer_metrics(client.traces, context),
        "layer_table": tracing.layer_table(client.traces),
        "conservation_max_err_ms": max(
            (abs(sum(r["trace"].self_ms.values())
                 + r["trace"].unattributed_ms - r["trace"].latency_ms)
             for r in client.traces),
            default=0.0,
        ),
        "restored": recorder.restored(),
        "class_counts": {
            cls: sum(1 for r in client.traces if r["cls"] == cls)
            for cls in CLASSES
        },
        "attempted": client.attempted + untraced.attempted,
        "failed": len(client.problems) + len(untraced.problems),
        "problems": (untraced.problems + client.problems)[:20],
        "fingerprint": untraced.fingerprint(),
        "fingerprint_traced": client.fingerprint(),
        "work_totals": dict(sorted(untraced.work.items())),
        "gating": _gating(untraced),
    }


if __name__ == "__main__":
    sys.exit(main())
