"""Unit tests for the concurrent serving core (repro.serve).

Covers the breaker state machine transition-by-transition with an
injected clock, the executor's admission/rejection/cancellation/retry
paths, and — as a hypothesis property — the terminal-outcome contract:
every admitted statement ends in exactly one of the four outcomes and
leaves a workload-log record behind.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DBExplorer
from repro.dataset.generators import generate_usedcars
from repro.errors import (
    OverloadedError,
    QueryCancelledError,
    ServeError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.worklog import NO_WORKLOG, WorkLogWriter, read_worklog
from repro.robustness import FaultInjector
from repro.serve import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    ServeConfig,
    SessionExecutor,
)
from repro.serve.breaker import BreakerBoard
from repro.serve.executor import OUTCOMES


@pytest.fixture(scope="module")
def cars():
    return generate_usedcars(1_000, seed=7)


def _explorer(cars, worklog=None, faults=None):
    dbx = DBExplorer(worklog=worklog or NO_WORKLOG, faults=faults)
    dbx.register("data", cars)
    return dbx


class FakeClock:
    """An injectable monotonic clock for breaker/watchdog tests."""

    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# -- configuration validation ----------------------------------------------


class TestServeConfig:
    def test_defaults_are_valid(self):
        config = ServeConfig()
        assert config.workers >= 1
        assert config.queue_limit >= 0

    @pytest.mark.parametrize("kwargs", [
        {"workers": 0},
        {"queue_limit": -1},
        {"deadline_s": 0.0},
        {"deadline_s": -1.0},
        {"max_retries": -1},
        {"watchdog_interval_s": 0.0},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    def test_breaker_config_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(trip_after=0)
        with pytest.raises(ValueError):
            BreakerConfig(cooldown_s=0.0)
        with pytest.raises(ValueError):
            BreakerConfig(probe_successes=0)


# -- the breaker state machine, transition by transition -------------------


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        clock = FakeClock()
        config = BreakerConfig(
            trip_after=kwargs.pop("trip_after", 3),
            cooldown_s=kwargs.pop("cooldown_s", 5.0),
            probe_successes=kwargs.pop("probe_successes", 1),
        )
        brk = CircuitBreaker(
            "data", config, now=clock, metrics=MetricsRegistry()
        )
        return brk, clock

    def test_starts_closed_and_allows(self):
        brk, _ = self._breaker()
        assert brk.state is BreakerState.CLOSED
        assert brk.allow() == (True, False)

    def test_failures_below_threshold_stay_closed(self):
        brk, _ = self._breaker(trip_after=3)
        brk.on_failure()
        brk.on_failure()
        assert brk.state is BreakerState.CLOSED

    def test_success_resets_the_failure_count(self):
        brk, _ = self._breaker(trip_after=3)
        brk.on_failure()
        brk.on_failure()
        brk.on_success()  # consecutive-failure streak broken
        brk.on_failure()
        brk.on_failure()
        assert brk.state is BreakerState.CLOSED

    def test_closed_to_open_on_consecutive_failures(self):
        brk, _ = self._breaker(trip_after=3)
        for _ in range(3):
            brk.on_failure()
        assert brk.state is BreakerState.OPEN
        assert brk.allow() == (False, False)

    def test_open_stays_open_before_cooldown(self):
        brk, clock = self._breaker(trip_after=1, cooldown_s=5.0)
        brk.on_failure()
        clock.advance(4.9)
        assert brk.state is BreakerState.OPEN
        assert brk.allow() == (False, False)

    def test_open_to_half_open_after_cooldown(self):
        brk, clock = self._breaker(trip_after=1, cooldown_s=5.0)
        brk.on_failure()
        clock.advance(5.0)
        assert brk.state is BreakerState.HALF_OPEN

    def test_half_open_allows_exactly_one_probe(self):
        brk, clock = self._breaker(trip_after=1, cooldown_s=1.0)
        brk.on_failure()
        clock.advance(1.0)
        assert brk.allow() == (True, True)    # the probe
        assert brk.allow() == (False, False)  # everyone else waits

    def test_probe_success_closes(self):
        brk, clock = self._breaker(trip_after=1, cooldown_s=1.0)
        brk.on_failure()
        clock.advance(1.0)
        _, probe = brk.allow()
        assert probe
        brk.on_success(probe=True)
        assert brk.state is BreakerState.CLOSED
        assert brk.allow() == (True, False)

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        brk, clock = self._breaker(trip_after=1, cooldown_s=1.0)
        brk.on_failure()
        clock.advance(1.0)
        _, probe = brk.allow()
        assert probe
        brk.on_failure(probe=True)
        assert brk.state is BreakerState.OPEN
        clock.advance(0.5)
        assert brk.state is BreakerState.OPEN   # fresh cooldown running
        clock.advance(0.5)
        assert brk.state is BreakerState.HALF_OPEN  # and expiring again

    def test_cancelled_probe_stays_half_open(self):
        """Regression: a probe cancelled for health-unrelated reasons
        (drain, client disconnect) must not latch the breaker open.

        Before the fix this raced: the half-open probe got cancelled,
        the executor routed it to ``on_failure``, and the breaker
        re-opened with a fresh cooldown — a perfectly healthy dataset
        could stay short-circuited indefinitely under periodic drains.
        An inconclusive probe frees the slot and stays HALF_OPEN, so
        the next arrival becomes the new probe.
        """
        brk, clock = self._breaker(trip_after=1, cooldown_s=1.0)
        brk.on_failure()
        clock.advance(1.0)
        _, probe = brk.allow()
        assert probe
        brk.on_cancelled(probe=True)
        assert brk.state is BreakerState.HALF_OPEN
        # the slot is free: the very next arrival probes, and its
        # success closes the breaker without waiting out a cooldown
        assert brk.allow() == (True, True)
        brk.on_success(probe=True)
        assert brk.state is BreakerState.CLOSED

    def test_cancelled_probe_never_starts_a_cooldown(self):
        brk, clock = self._breaker(trip_after=1, cooldown_s=10.0)
        brk.on_failure()
        clock.advance(10.0)
        _, probe = brk.allow()
        assert probe
        brk.on_cancelled(probe=True)
        # no clock advance needed: had on_failure run instead, the
        # breaker would be OPEN for another 10s from *now*
        assert brk.allow() == (True, True)

    def test_cancelled_outside_half_open_is_inert(self):
        brk, _ = self._breaker(trip_after=3)
        brk.on_failure()
        brk.on_cancelled()
        brk.on_failure()
        # cancellation neither adds a failure nor resets the streak
        assert brk.state is BreakerState.CLOSED
        brk.on_failure()
        assert brk.state is BreakerState.OPEN

    def test_reclose_then_trip_again(self):
        brk, clock = self._breaker(trip_after=2, cooldown_s=1.0)
        brk.on_failure()
        brk.on_failure()
        assert brk.state is BreakerState.OPEN
        clock.advance(1.0)
        brk.allow()
        brk.on_success(probe=True)
        assert brk.state is BreakerState.CLOSED
        # the failure counter restarted from zero after the re-close
        brk.on_failure()
        assert brk.state is BreakerState.CLOSED
        brk.on_failure()
        assert brk.state is BreakerState.OPEN

    def test_transitions_are_counted(self):
        clock = FakeClock()
        metrics = MetricsRegistry()
        brk = CircuitBreaker(
            "data", BreakerConfig(trip_after=1, cooldown_s=1.0),
            now=clock, metrics=metrics,
        )
        brk.on_failure()
        clock.advance(1.0)
        brk.allow()
        brk.on_success(probe=True)
        snap = metrics.snapshot()
        assert snap["counters"]["serve.breaker.data.closed_to_open"] == 1
        assert snap["counters"]["serve.breaker.data.open_to_half_open"] == 1
        assert snap["counters"]["serve.breaker.data.half_open_to_closed"] == 1

    def test_board_get_or_create_and_states(self):
        board = BreakerBoard(
            BreakerConfig(trip_after=1), now=FakeClock(),
            metrics=MetricsRegistry(),
        )
        a = board.breaker("data")
        assert board.breaker("data") is a
        board.breaker("other").on_failure()
        assert board.states() == {"data": "closed", "other": "open"}


# -- the executor -----------------------------------------------------------


class TestSessionExecutor:
    def test_ok_statement(self, cars):
        dbx = _explorer(cars)
        with SessionExecutor(dbx, ServeConfig(workers=2)) as ex:
            ticket = ex.run("SELECT Make, Price FROM data LIMIT 5")
        assert ticket.done
        assert ticket.outcome == "ok"
        assert ticket.status == "ok"
        assert ticket.error is None
        assert ticket.result is not None
        assert ticket.kind == "select"

    def test_parse_error_fails_on_the_caller_thread(self, cars):
        dbx = _explorer(cars)
        with SessionExecutor(dbx, ServeConfig(workers=1)) as ex:
            ticket = ex.submit("SELEC nonsense FORM data")
            # the analyzer gate finished the ticket synchronously at
            # submit: no pool thread was consumed
            assert ticket.done
        assert ticket.outcome == "failed"
        assert ticket.status == "parse_error"

    def test_analysis_error_fails_at_the_gate(self, cars):
        dbx = _explorer(cars)
        with SessionExecutor(dbx, ServeConfig(workers=1)) as ex:
            ticket = ex.submit(
                "SELECT Price FROM data WHERE Price > 9000 AND Price < 5000"
            )
            assert ticket.done
        assert ticket.outcome == "failed"
        assert ticket.status == "analysis_error"

    def test_full_queue_rejects_with_retry_after(self, cars):
        dbx = _explorer(cars)
        metrics = MetricsRegistry()
        config = ServeConfig(workers=1, queue_limit=0, breaker=None)
        stall = FaultInjector.parse("serve.slow_worker=sleep:0.3*1")
        with SessionExecutor(dbx, config, metrics=metrics) as ex:
            first = ex.submit(
                "SELECT Make FROM data LIMIT 1", faults=stall
            )
            with pytest.raises(OverloadedError) as excinfo:
                ex.submit("SELECT Price FROM data LIMIT 1")
            first.wait(5.0)
        assert excinfo.value.retry_after_s > 0
        assert first.outcome in ("ok", "degraded")
        snap = metrics.snapshot()
        assert snap["counters"]["serve.rejected"] == 1

    def test_queue_full_fault_site_forces_rejection(self, cars):
        dbx = _explorer(cars)
        with SessionExecutor(dbx, ServeConfig(workers=2)) as ex:
            with pytest.raises(OverloadedError):
                ex.submit(
                    "SELECT Make FROM data LIMIT 1",
                    faults=FaultInjector.parse("serve.queue_full=crash*1"),
                )

    def test_transient_faults_are_retried(self, cars):
        dbx = _explorer(cars)
        config = ServeConfig(workers=1, max_retries=2)
        crashes = FaultInjector.parse("serve.slow_worker=crash*2")
        with SessionExecutor(dbx, config) as ex:
            ticket = ex.submit(
                "SELECT Make FROM data LIMIT 1", faults=crashes
            )
            ticket.wait(5.0)
        assert ticket.outcome == "ok"
        assert ticket.attempts == 3  # two crashes absorbed, then success

    def test_retries_exhausted_fail_the_ticket(self, cars):
        dbx = _explorer(cars)
        config = ServeConfig(workers=1, max_retries=1)
        crashes = FaultInjector.parse("serve.slow_worker=crash*5")
        with SessionExecutor(dbx, config) as ex:
            ticket = ex.submit(
                "SELECT Make FROM data LIMIT 1", faults=crashes
            )
            ticket.wait(5.0)
        assert ticket.outcome == "failed"
        assert ticket.attempts == 2
        assert isinstance(ticket.error, RuntimeError)

    def test_watchdog_cancels_past_the_deadline(self, cars):
        dbx = _explorer(cars)
        metrics = MetricsRegistry()
        config = ServeConfig(
            workers=1, deadline_s=0.05, watchdog_interval_s=0.005,
            breaker=None,
        )
        stall = FaultInjector.parse("serve.slow_worker=sleep:0.3*1")
        with SessionExecutor(dbx, config, metrics=metrics) as ex:
            ticket = ex.submit(
                "SELECT Make FROM data LIMIT 1", faults=stall
            )
            ticket.wait(5.0)
        assert ticket.outcome == "failed"
        assert ticket.status == "cancelled"
        assert isinstance(ticket.error, QueryCancelledError)
        snap = metrics.snapshot()
        assert snap["counters"]["serve.deadline_tripped"] >= 1

    def test_open_breaker_short_circuits_builds(self, cars):
        dbx = _explorer(cars)
        config = ServeConfig(
            workers=1, max_retries=0,
            breaker=BreakerConfig(trip_after=1, cooldown_s=60.0),
        )
        create = (
            "CREATE CADVIEW v{} AS SET pivot = Make "
            "SELECT Price, Mileage FROM data WHERE BodyType = SUV"
        )
        with SessionExecutor(dbx, config) as ex:
            # crash clustering for *every* pivot value: per-pivot
            # isolation drops them all and the build fails hard
            failed = ex.submit(
                create.format(0),
                faults=FaultInjector.parse("cluster=crash*"),
            )
            failed.wait(10.0)
            assert failed.outcome == "failed"
            assert failed.status == "build_failed"
            assert ex.breaker_states() == {"data": "open"}
            # while open, builds run under open_budget — ladder mode
            ticket = ex.submit(create.format(1))
            ticket.wait(10.0)
        assert ticket.short_circuited
        assert ticket.outcome in ("degraded", "failed")

    def test_submit_after_close_raises(self, cars):
        dbx = _explorer(cars)
        ex = SessionExecutor(dbx, ServeConfig(workers=1))
        ex.close()
        with pytest.raises(ServeError):
            ex.submit("SELECT Make FROM data LIMIT 1")

    def test_sessions_are_isolated(self, cars):
        dbx = _explorer(cars)
        with SessionExecutor(dbx, ServeConfig(workers=2)) as ex:
            a = ex.run("SELECT Make FROM data LIMIT 1", session="alice")
            b = ex.run("SELEC nonsense", session="bob")
        assert a.outcome == "ok"
        assert b.outcome == "failed"
        # bob's parse error never touched alice's session state
        assert dbx.session("alice").statements == 1
        assert dbx.session("bob").statements == 0


# -- the no-silent-drops worklog contract -----------------------------------


STATEMENT_POOL = (
    "SELECT Make, Price FROM data LIMIT 5",
    "DESCRIBE data",
    "SHOW CADVIEWS",
    "SELECT Price FROM data WHERE Price > 9000 AND Price < 5000",
    "SELEC nonsense FORM data",
)


class TestOutcomeContract:
    def test_every_path_leaves_a_worklog_record(self, cars, tmp_path):
        log = tmp_path / "serve.worklog.jsonl"
        with WorkLogWriter(str(log)) as worklog:
            dbx = _explorer(cars, worklog=worklog)
            config = ServeConfig(workers=1, queue_limit=0, breaker=None)
            stall = FaultInjector.parse("serve.slow_worker=sleep:0.2*1")
            with SessionExecutor(dbx, config) as ex:
                tickets = [
                    ex.submit("SELECT Make FROM data LIMIT 1", faults=stall)
                ]
                submitted = 1
                with pytest.raises(OverloadedError):
                    ex.submit("SELECT Price FROM data LIMIT 1")
                submitted += 1
                tickets[0].wait(5.0)
                tickets.append(ex.submit("SELEC nonsense"))
                submitted += 1
                tickets.append(ex.submit("DESCRIBE data"))
                submitted += 1
                for t in tickets:
                    t.wait(5.0)
        records = [
            r for r in read_worklog(str(log)) if r["kind"] == "statement"
        ]
        assert len(records) == submitted
        statuses = sorted(r["status"] for r in records)
        assert statuses == ["ok", "ok", "parse_error", "rejected"]

    @settings(max_examples=10, deadline=None)
    @given(st.lists(
        st.sampled_from(STATEMENT_POOL), min_size=1, max_size=6
    ))
    def test_every_admitted_statement_ends_in_one_outcome(self, batch):
        # hypothesis shares the module fixture poorly across examples,
        # so the table/explorer are rebuilt per example (small on
        # purpose) with a throwaway worklog file
        cars = generate_usedcars(300, seed=7)
        with tempfile.TemporaryDirectory() as tmp:
            log = Path(tmp) / "prop.worklog.jsonl"
            with WorkLogWriter(str(log)) as worklog:
                dbx = _explorer(cars, worklog=worklog)
                config = ServeConfig(
                    workers=2, queue_limit=len(batch) + 1, breaker=None
                )
                with SessionExecutor(dbx, config) as ex:
                    tickets = [ex.submit(sql) for sql in batch]
                    for ticket in tickets:
                        assert ticket.wait(10.0)
            for ticket in tickets:
                # exactly one terminal outcome from the fixed vocabulary
                assert ticket.done
                assert OUTCOMES.count(ticket.outcome) == 1
                assert (ticket.error is None) or (ticket.result is None)
            records = [
                r for r in read_worklog(str(log))
                if r["kind"] == "statement"
            ]
            assert len(records) == len(batch)
