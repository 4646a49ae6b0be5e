"""The supervision tree under fire: crash, hang, backoff, drain, chaos.

These tests spawn real worker subprocesses (spawn context), so each one
keeps the dataset tiny and the heartbeat fast.  The property test at
the bottom is the chaos harness in miniature: random fault schedules
over the three ``proc.*`` sites, with one invariant — every submitted
statement reaches a terminal state, no matter which workers die when.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import QueryCancelledError, ServeError, WorkerCrashError
from repro.serve.proc import (
    PIPE_DROP_EXIT,
    ProcServeConfig,
    ProcSupervisor,
    WorkerSpec,
    WORKER_CRASH_EXIT,
)

ROWS = 400  # enough structure to build tiny CAD Views, fast to generate


def _spec(**kwargs) -> WorkerSpec:
    kwargs.setdefault("dataset", "usedcars")
    kwargs.setdefault("rows", ROWS)
    kwargs.setdefault("seed", 7)
    return WorkerSpec(**kwargs)


def _config(**kwargs) -> ProcServeConfig:
    kwargs.setdefault("shards", 1)
    kwargs.setdefault("breaker", None)
    kwargs.setdefault("heartbeat_interval_s", 0.05)
    kwargs.setdefault("heartbeat_timeout_s", 0.5)
    kwargs.setdefault("restart_backoff_base_s", 0.02)
    kwargs.setdefault("restart_backoff_cap_s", 0.3)
    return ProcServeConfig(**kwargs)


CREATE = (
    "CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM data "
    "LIMIT COLUMNS 3 IUNITS 2"
)
REORDER = "REORDER ROWS IN v ORDER BY SIMILARITY(Ford) DESC"


@contextlib.contextmanager
def _contention():
    """A spinning thread and a 1 us switch interval, so the supervisor's
    threads interleave as finely as they can; both undone on exit."""
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            pass

    old_interval = sys.getswitchinterval()
    spinner = threading.Thread(target=spin, daemon=True)
    sys.setswitchinterval(1e-6)
    spinner.start()
    try:
        yield
    finally:
        stop.set()
        spinner.join(5)
        sys.setswitchinterval(old_interval)
    assert not spinner.is_alive()


class TestHappyPath:
    def test_statements_execute_and_drain_clean(self):
        with ProcSupervisor(_spec(), _config(shards=2)) as sup:
            assert sup.wait_ready(60)
            tickets = [
                sup.submit("SELECT Make FROM data", session="s0"),
                sup.submit(CREATE, session="s1"),
                sup.submit("SHOW CADVIEWS", session="s2"),
            ]
            for ticket in tickets:
                ticket.wait(60)
                assert ticket.outcome == "ok", ticket.error
            assert tickets[2].result_payload == ["v"]
        report = sup.drain()  # idempotent after close()
        assert report["clean"]
        assert all(code == 0 for code in report["exitcodes"].values())

    def test_submit_after_drain_rejected(self):
        sup = ProcSupervisor(_spec(), _config())
        try:
            assert sup.wait_ready(60)
            sup.begin_drain()
            with pytest.raises(ServeError):
                sup.submit("SELECT Make FROM data")
        finally:
            sup.close(wait=False)


class TestCalmDrainUnderContention:
    def test_calm_drains_record_no_death(self):
        """Ten calm 2-shard drains while a spinning thread and a 1 us
        switch interval interleave the supervisor's threads: every
        worker exits 0, is reaped by exactly one path, and no drain
        reports a death or an unclean exit code (two threads reaping
        one child used to lose its exit code to the waitpid race and
        call a clean drain a crash)."""
        errors = []
        old_hook = threading.excepthook
        threading.excepthook = errors.append
        try:
            with _contention():
                for run in range(10):
                    sup = ProcSupervisor(_spec(), _config(shards=2))
                    try:
                        assert sup.wait_ready(60)
                        ticket = sup.submit("SELECT Make FROM data")
                        assert ticket.wait(60) and ticket.outcome == "ok"
                        report = sup.drain(grace_s=5.0)
                    finally:
                        sup.close(wait=False)
                    chaos = sup.chaos_stats()
                    assert chaos["total_deaths"] == 0, (run, chaos)
                    assert report["clean"], (run, report)
                    assert report["exitcodes"] == {"s0": 0, "s1": 0}, (
                        run, report,
                    )
        finally:
            threading.excepthook = old_hook
        assert not errors, [(e.thread.name, e.exc_value) for e in errors]


class TestRestartRaceExitCodes:
    ROUNDS = 4

    def test_every_death_keeps_its_exit_code(self):
        """Both shards crash, then both drop their pipes, round after
        round, with restarts as fast as the monitor allows: one shard's
        spawn (``Process.start()`` polls every child) overlaps the other
        shard's death path.  Every death must still be recorded with
        the exit code of its cause (the ``waitpid`` that lost the race
        used to leave ``None``, and a pipe drop was called a crash)."""
        plan = ",".join(
            f"proc.worker_crash:{2 * r}=crash*1,"
            f"proc.pipe_drop:{2 * r + 1}=crash*1"
            for r in range(self.ROUNDS)
        )
        config = _config(
            shards=2, restart_backoff_base_s=1e-4,
            restart_backoff_cap_s=1e-3, monitor_interval_s=1e-3,
        )
        expected = {"crash": WORKER_CRASH_EXIT, "pipe_drop": PIPE_DROP_EXIT}
        with _contention():
            sup = ProcSupervisor(_spec(faults_spec=plan), config)
            try:
                assert sup.wait_ready(60)
                for index in range(2 * self.ROUNDS):
                    # SHOW CADVIEWS runs on every shard: both die
                    ticket = sup.submit(
                        "SHOW CADVIEWS", session="s0", fault_index=index,
                    )
                    assert ticket.wait(120) and ticket.outcome == "ok", (
                        index, ticket.error,
                    )
                chaos = sup.chaos_stats()
            finally:
                sup.close(wait=False)
        assert chaos["deaths"] == {
            "crash": 2 * self.ROUNDS, "pipe_drop": 2 * self.ROUNDS,
        }, chaos["death_log"]
        for death in chaos["death_log"]:
            assert death["exitcode"] == expected[death["cause"]], death


class TestCrashRecovery:
    def test_crash_during_build_recovers(self):
        """An injected worker crash mid-statement must be invisible to
        the client: the supervisor restarts the shard and resubmits."""
        spec = _spec(faults_spec="proc.worker_crash:0=crash*1")
        with ProcSupervisor(spec, _config()) as sup:
            assert sup.wait_ready(60)
            ticket = sup.submit(CREATE, session="s0", fault_index=0)
            ticket.wait(120)
            assert ticket.outcome == "ok", ticket.error
            assert ticket.proc_attempts == 1
            chaos = sup.chaos_stats()
            assert chaos["deaths"] == {"crash": 1}
            assert chaos["resubmits"] == 1
            assert chaos["wedged"] == 0

    def test_pipe_drop_recovers(self):
        spec = _spec(faults_spec="proc.pipe_drop:0=crash*1")
        with ProcSupervisor(spec, _config()) as sup:
            assert sup.wait_ready(60)
            ticket = sup.submit(
                "SELECT Price FROM data", session="s0", fault_index=0
            )
            ticket.wait(120)
            assert ticket.outcome == "ok", ticket.error
            assert sup.chaos_stats()["deaths"] == {"pipe_drop": 1}

    def test_exhausted_proc_retries_fail_the_ticket(self):
        """A statement that kills every incarnation it touches must end
        as a terminal failure carrying WorkerCrashError, not a wedge."""
        spec = _spec(faults_spec="proc.worker_crash:0=crash*10")
        config = _config(proc_retries=2)
        with ProcSupervisor(spec, config) as sup:
            assert sup.wait_ready(60)
            ticket = sup.submit(
                "SELECT Make FROM data", session="s0", fault_index=0
            )
            ticket.wait(120)
            assert ticket.outcome == "failed"
            assert isinstance(ticket.error, WorkerCrashError)
            assert sup.chaos_stats()["wedged"] == 0

    def test_catalog_journal_survives_the_crash(self):
        """Views created before a crash must exist after the restart:
        the journal replays on the fresh incarnation, fault-free."""
        spec = _spec(faults_spec="proc.worker_crash:1=crash*1")
        with ProcSupervisor(spec, _config()) as sup:
            assert sup.wait_ready(60)
            created = sup.submit(CREATE, session="s0", fault_index=0)
            created.wait(60)
            assert created.outcome == "ok", created.error
            crashed = sup.submit(
                "SELECT Make FROM data", session="s1", fault_index=1
            )
            crashed.wait(120)
            assert crashed.outcome == "ok", crashed.error
            listing = sup.submit(
                "SHOW CADVIEWS", session="s2", fault_index=2
            )
            listing.wait(60)
            assert listing.outcome == "ok", listing.error
            assert listing.result_payload == ["v"]


class TestHangDetection:
    def test_hang_detected_by_heartbeat(self):
        """A worker sleeping with its heartbeat suppressed is caught by
        the missed-beat detector, SIGKILLed, and its statement retried
        on the fresh incarnation."""
        spec = _spec(faults_spec="proc.worker_hang:0=sleep:5.0*1")
        with ProcSupervisor(spec, _config()) as sup:
            assert sup.wait_ready(60)
            ticket = sup.submit(
                "SELECT Make FROM data", session="s0", fault_index=0
            )
            ticket.wait(120)
            assert ticket.outcome == "ok", ticket.error
            chaos = sup.chaos_stats()
            assert chaos["deaths"] == {"hang": 1}
            assert chaos["resubmits"] == 1


class TestRestartBackoff:
    def test_consecutive_deaths_grow_the_delay_to_the_cap(self):
        """Three deaths with no intervening success: delays follow
        base * 2^k, clamped at the cap, never beyond it."""
        spec = _spec(faults_spec="proc.worker_crash:0=crash*3")
        config = _config(
            proc_retries=5,
            restart_backoff_base_s=0.05,
            restart_backoff_cap_s=0.12,
        )
        with ProcSupervisor(spec, config) as sup:
            assert sup.wait_ready(60)
            ticket = sup.submit(
                "SELECT Make FROM data", session="s0", fault_index=0
            )
            ticket.wait(120)
            assert ticket.outcome == "ok", ticket.error
            chaos = sup.chaos_stats()
            delays = chaos["restart_delays"]
            assert delays == [0.05, 0.1, 0.12]
            assert chaos["max_restart_delay_s"] <= 0.12


class TestDrain:
    def test_drain_with_in_flight_statement(self):
        """Drain during a long build: the statement is cancelled through
        the CancelToken path, every worker exits 0, nothing is orphaned."""
        spec = _spec(
            rows=2_000,
            faults_spec="proc.worker_hang:0=sleep:3.0*1",
        )
        # hang detection off: the sleep stands in for a long build the
        # drain has to cancel, not a hang the monitor should kill
        config = _config(heartbeat_timeout_s=60.0, drain_grace_s=0.2)
        sup = ProcSupervisor(spec, config)
        try:
            assert sup.wait_ready(60)
            ticket = sup.submit(CREATE, session="s0", fault_index=0)
            report = sup.drain(grace_s=0.2)
            ticket.wait(30)
            assert ticket.outcome in ("failed", "ok")
            if ticket.outcome == "failed":
                assert isinstance(
                    ticket.error, (QueryCancelledError, WorkerCrashError)
                )
            # no orphans: every child process is reaped
            assert sup.chaos_stats()["wedged"] == 0
            procs = [
                s.handle.process
                for s in sup._shards if s.handle is not None
            ]
            assert all(not p.is_alive() for p in procs)
            assert report["cancelled"] in (0, 1)
        finally:
            sup.close(wait=False)

    def test_drain_flushes_the_worklog(self, tmp_path):
        """Per-ticket worklog records (with the proc= envelope) land on
        disk before drain returns."""
        from repro.obs import WorkLogWriter, read_worklog

        path = str(tmp_path / "proc.worklog.jsonl")
        writer = WorkLogWriter(path)
        writer.session(dataset="usedcars", rows=ROWS, seed=7)
        sup = ProcSupervisor(_spec(), _config(), worklog=writer)
        try:
            assert sup.wait_ready(60)
            ticket = sup.submit("SELECT Make FROM data", session="s0")
            ticket.wait(60)
            assert ticket.outcome == "ok"
            sup.drain(grace_s=2.0)
        finally:
            sup.close(wait=False)
            writer.close()
        records = read_worklog(path)
        statements = [r for r in records if r["kind"] == "statement"]
        assert len(statements) == 1
        assert statements[0]["status"] == "ok"
        proc = statements[0]["proc"]
        assert proc["shard"] == 0
        assert proc["proc_attempts"] == 0


class TestChaosDeterminism:
    def test_chaos_run_matches_fault_free_digests(self):
        """The PR-5 guarantee, extended across process death: a chaos
        run's per-statement digests are byte-identical to a run of the
        same workload with no chaos at all."""
        sqls = [
            "SELECT Make FROM data",
            CREATE,
            "SELECT Price FROM data",
            "SHOW CADVIEWS",
            "SELECT Year FROM data",
        ]

        def run(faults_spec):
            spec = _spec(faults_spec=faults_spec)
            with ProcSupervisor(spec, _config(shards=2)) as sup:
                assert sup.wait_ready(60)
                tickets = [
                    sup.submit(sql, session=f"s{i}", fault_index=i)
                    for i, sql in enumerate(sqls)
                ]
                out = []
                for ticket in tickets:
                    ticket.wait(120)
                    out.append(
                        (ticket.outcome, ticket.degradations,
                         ticket.result_payload)
                    )
                return out

        calm = run(None)
        chaotic = run(
            "proc.worker_crash:1=crash*1,proc.worker_hang:2=sleep:2.0*1"
        )
        assert calm == chaotic

    # Spawning subprocess fleets per example is expensive; a handful of
    # random schedules still exercises the cross-product of fault site,
    # target statement and shard count far beyond the named tests.
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        faults=st.lists(
            st.tuples(
                st.sampled_from(
                    ["proc.worker_crash", "proc.pipe_drop"]
                ),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=0,
            max_size=2,
            unique_by=lambda f: f[1],
        ),
        shards=st.integers(min_value=1, max_value=2),
    )
    def test_every_ticket_reaches_a_terminal_state(self, faults, shards):
        spec_text = ",".join(
            f"{site}:{index}=crash*1" for site, index in faults
        )
        spec = _spec(faults_spec=spec_text or None)
        sqls = [
            "SELECT Make FROM data",
            "SELECT Price FROM data",
            CREATE,
            "SHOW CADVIEWS",
        ]
        with ProcSupervisor(spec, _config(shards=shards)) as sup:
            assert sup.wait_ready(60)
            tickets = [
                sup.submit(sql, session=f"s{i}", fault_index=i)
                for i, sql in enumerate(sqls)
            ]
            for ticket in tickets:
                assert ticket.wait(120), "ticket never became terminal"
                assert ticket.outcome in ("ok", "degraded", "failed")
            assert sup.chaos_stats()["wedged"] == 0


class TestExitCodes:
    def test_fault_exit_codes_are_distinct_and_nonzero(self):
        # the supervisor infers pipe_drop vs crash vs clean drain from
        # the exit code; the three must never collide
        assert WORKER_CRASH_EXIT != PIPE_DROP_EXIT
        assert WORKER_CRASH_EXIT != 0
        assert PIPE_DROP_EXIT != 0


class TestTelemetryPlane:
    def test_explain_analyze_ships_real_phase_timings(self):
        """EXPLAIN ANALYZE under --procs must report the worker's span
        tree, not silent zeros: the worker renders the analysis locally
        and ships the text in its RESPONSE."""
        with ProcSupervisor(_spec(), _config()) as sup:
            assert sup.wait_ready(60)
            ticket = sup.submit("EXPLAIN ANALYZE " + CREATE, session="s")
            assert ticket.wait(60)
            assert ticket.outcome == "ok", ticket.error
            assert isinstance(ticket.result, str)
            assert "cadview.build" in ticket.result

    def test_worker_telemetry_merges_and_conserves(self):
        from repro.obs import MetricsRegistry, Tracer

        tracer = Tracer("serve.session")
        with ProcSupervisor(
            _spec(), _config(shards=2), tracer=tracer,
            metrics=MetricsRegistry(),  # isolate from other tests
        ) as sup:
            assert sup.wait_ready(60)
            tickets = [
                sup.submit("SELECT Make FROM data", session=f"s{i}")
                for i in range(4)
            ]
            for ticket in tickets:
                assert ticket.wait(60)
                assert ticket.outcome == "ok", ticket.error
            sup.drain()
            stats = sup.telemetry.stats()
            assert stats["frames"] > 0
            assert stats["workers_seen"] == 2
            snap = sup.telemetry.cluster_registry().snapshot()
            counters = snap["counters"]
            # conservation: every admitted statement counted exactly once
            completed = sum(
                v for k, v in counters.items()
                if k.startswith("proc.s") and k.endswith(".completed")
                and ".g" not in k
            )
            assert completed == len(tickets)
            assert counters["proc.telemetry.dropped"] == 0.0
            # worker registries arrive relabeled by shard/incarnation
            assert any(
                ".g0.worker.statements.ok" in k for k in counters
            )
            # lifecycle events from both sides of the pipe
            kinds = {e.get("kind") for e in sup.telemetry.events()}
            assert "worker.spawn" in kinds
            assert "worker.ready" in kinds

    def test_stitched_trace_links_worker_spans_by_request_id(
        self, tmp_path
    ):
        import json as _json

        from repro.obs import Tracer
        from repro.obs.hub import write_stitched_chrome_trace

        tracer = Tracer("serve.session")
        with ProcSupervisor(_spec(), _config(), tracer=tracer) as sup:
            assert sup.wait_ready(60)
            ticket = sup.submit("SELECT Make FROM data", session="s")
            assert ticket.wait(60)
            sup.drain()
            trees = sup.telemetry.span_trees()
        tracer.finish()
        assert any(
            t["tree"]["name"] == "worker.startup" for t in trees
        )
        path = tmp_path / "stitched.json"
        write_stitched_chrome_trace(str(path), tracer.root, trees)
        events = _json.loads(path.read_text())["traceEvents"]
        pids = {e["pid"] for e in events if e["ph"] != "M"}
        assert len(pids) >= 2  # supervisor + worker lanes
        serve_ids = {
            e["args"].get("request_id")
            for e in events if e["name"] == "serve.request"
        }
        worker_ids = {
            e["args"].get("request_id")
            for e in events if e["name"] == "worker.request"
        }
        assert worker_ids and worker_ids <= serve_ids

    def test_stats_snapshot_is_self_contained(self):
        from repro.obs import MetricsRegistry

        with ProcSupervisor(
            _spec(), _config(), metrics=MetricsRegistry()
        ) as sup:
            assert sup.wait_ready(60)
            ticket = sup.submit("SELECT Make FROM data", session="s")
            assert ticket.wait(60)
            snap = sup.stats_snapshot()
        assert snap["submitted"] == 1
        (shard,) = snap["shards"]
        assert shard["shard"] == 0
        assert shard["restarts"] == 0
        assert "latency_ms" in shard and shard["latency_ms"]["count"] == 1
        # the embedded cluster metrics make the snapshot offline-gateable
        assert "counters" in snap["metrics"]
        assert "dropped_total" in snap["telemetry"]


class TestDurableCatalog:
    """``state_dir``: mutations survive whole-supervisor restarts."""

    def test_catalog_survives_supervisor_restart(self, tmp_path):
        state = str(tmp_path / "state")
        with ProcSupervisor(_spec(), _config(state_dir=state)) as sup:
            assert sup.wait_ready(60)
            created = sup.submit(CREATE, session="s0")
            created.wait(60)
            assert created.outcome == "ok", created.error
        # a brand-new supervisor — new PID in production — rebuilds the
        # catalog from the snapshot + WAL before any worker boots
        with ProcSupervisor(_spec(), _config(state_dir=state)) as sup:
            assert sup.wait_ready(60)
            listing = sup.submit("SHOW CADVIEWS", session="s1")
            listing.wait(60)
            assert listing.outcome == "ok", listing.error
            assert listing.result_payload == ["v"]
            snap = sup.stats_snapshot()
            assert snap["recovery"]["views"] == {"v": 0}
            assert snap["wal"] is not None

    def test_journal_growth_warns_once(self, tmp_path):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        with ProcSupervisor(
            _spec(),
            _config(state_dir=str(tmp_path / "state")),
            metrics=metrics,
        ) as sup:
            assert sup.wait_ready(60)
            for i, sql in enumerate([CREATE, REORDER, REORDER]):
                ticket = sup.submit(sql, session=f"s{i}")
                ticket.wait(60)
                assert ticket.outcome == "ok", ticket.error
            assert metrics.gauge("proc.s0.journal_len").value == 3.0

    def test_snapshot_compaction_resets_journal_gauge(self, tmp_path):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        with ProcSupervisor(
            _spec(),
            _config(state_dir=str(tmp_path / "state")),
            metrics=metrics,
        ) as sup:
            assert sup.wait_ready(60)
            for i, sql in enumerate([CREATE, "DROP CADVIEW v"]):
                ticket = sup.submit(sql, session=f"s{i}")
                ticket.wait(60)
                assert ticket.outcome == "ok", ticket.error
            # the DROP compacts CREATE+DROP to nothing as it lands
            assert metrics.gauge("proc.s0.journal_len").value == 0.0
        assert metrics.gauge("proc.s0.journal_len").value == 0.0

    def test_wal_failure_fail_stops_the_supervisor(self, tmp_path):
        """After a WAL failure the supervisor refuses new work instead
        of acknowledging mutations it can no longer make durable."""
        from repro.errors import DurabilityError

        with ProcSupervisor(
            _spec(), _config(state_dir=str(tmp_path / "state"))
        ) as sup:
            assert sup.wait_ready(60)
            # sever the WAL out from under the supervisor: every
            # subsequent commit attempt fails like a dead disk would
            sup._wal.close(final_snapshot=False)
            ticket = sup.submit(CREATE, session="s0")
            ticket.wait(60)
            assert ticket.outcome == "failed"
            assert "durability failure" in str(ticket.error)
            with pytest.raises(DurabilityError):
                sup.submit("SELECT Make FROM data", session="s1")


class TestCatalogJournal:
    """One rule (``catalog_write``) decides what a statement writes, and
    each shard's journal is compacted as every mutation lands."""

    def test_explain_analyze_create_then_drop_stays_dropped(self, tmp_path):
        state = str(tmp_path / "state")
        with ProcSupervisor(_spec(), _config(state_dir=state)) as sup:
            assert sup.wait_ready(60)
            for i, sql in enumerate(
                [f"EXPLAIN ANALYZE {CREATE}", "DROP CADVIEW v"]
            ):
                ticket = sup.run(sql, session=f"s{i}", timeout=60)
                assert ticket.outcome == "ok", ticket.error
        with ProcSupervisor(_spec(), _config(state_dir=state)) as sup:
            assert sup.wait_ready(60)
            listing = sup.run("SHOW CADVIEWS", session="s2", timeout=60)
            assert listing.outcome == "ok", listing.error
            assert listing.result_payload == []
            assert sup.stats_snapshot()["recovery"]["views"] == {}

    def test_plain_explain_drop_writes_nothing(self, tmp_path):
        from repro.obs import MetricsRegistry

        # v lives on the shard of its table; a REORDER routed by the
        # view name's own hash would miss it
        owner = zlib.crc32(b"data") % 2
        assert owner != zlib.crc32(b"v") % 2
        metrics = MetricsRegistry()
        with ProcSupervisor(
            _spec(),
            _config(shards=2, state_dir=str(tmp_path / "state")),
            metrics=metrics,
        ) as sup:
            assert sup.wait_ready(60)
            created = sup.run(CREATE, session="s0", timeout=60)
            assert created.outcome == "ok", created.error
            journal = sup.stats_snapshot()["shards"][owner]["journal"]
            appends = metrics.counter("wal.appends").value
            explained = sup.run(
                "EXPLAIN DROP CADVIEW v", session="s1", timeout=60
            )
            assert explained.outcome == "ok", explained.error
            assert sup.stats_snapshot()["shards"][owner]["journal"] == \
                journal
            assert metrics.counter("wal.appends").value == appends
            reordered = sup.run(REORDER, session="s2", timeout=60)
            assert reordered.outcome == "ok", reordered.error

    def test_journal_compacts_without_a_state_dir(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        with ProcSupervisor(_spec(), _config(), metrics=metrics) as sup:
            assert sup.wait_ready(60)
            for i, sql in enumerate([CREATE, REORDER, "DROP CADVIEW v"]):
                ticket = sup.run(sql, session=f"s{i}", timeout=60)
                assert ticket.outcome == "ok", ticket.error
            assert metrics.gauge("proc.s0.journal_len").value == 0.0

    def test_failed_drop_keeps_the_view_routed(self):
        """A DROP whose worker dies (and is not resubmitted) drops
        nothing, so the view's statements must still reach its shard."""
        assert zlib.crc32(b"data") % 2 != zlib.crc32(b"v") % 2
        spec = _spec(faults_spec="proc.worker_crash:1=crash*1")
        with ProcSupervisor(
            spec, _config(shards=2, proc_retries=0)
        ) as sup:
            assert sup.wait_ready(60)
            outcomes = []
            for i, sql in enumerate(
                [CREATE, "DROP CADVIEW v", REORDER, "SHOW CADVIEWS"]
            ):
                ticket = sup.submit(sql, session=f"s{i}", fault_index=i)
                assert ticket.wait(120)
                outcomes.append((ticket.outcome, ticket.error))
            assert [outcome for outcome, _ in outcomes] == \
                ["ok", "failed", "ok", "ok"], outcomes
            assert ticket.result_payload == ["v"]


class TestEofGrace:
    def test_worker_exiting_a_second_after_eof_is_a_drain(self):
        """The death path gives a process whose pipe reached EOF
        ``heartbeat_timeout_s`` to exit: one that exits 0 about 1 s
        later is a drain with exit code 0, not a crash."""
        from repro.serve.proc.supervisor import _REAP_LOCK, _WorkerHandle

        sup = ProcSupervisor(_spec(), _config(heartbeat_timeout_s=3.0))
        try:
            assert sup.wait_ready(60)
            process = sup._ctx.Process(
                target=time.sleep, args=(1.0,), daemon=True,
            )
            with _REAP_LOCK:
                process.start()
            handle = _WorkerHandle(0, 99, process, None, time.monotonic())
            sup._worker_down(handle, None)  # what the reader runs at EOF
            assert handle.exitcode == 0
            assert sup.chaos_stats()["total_deaths"] == 0
        finally:
            sup.close()
