"""The two serving transports run one statement core.

The thread executor (:class:`~repro.serve.SessionExecutor`) and the
multi-process supervisor (:class:`~repro.serve.proc.ProcSupervisor`)
share admission, the transient-retry loop and the outcome ledger of
:mod:`repro.serve.executor`.  Every test here runs the same statements
through both transports and expects the same observable result: the
``serve.statements.*`` / ``serve.outcome.*`` counters the SLO layer
reads, the in-band retry count, and the rule that a statement which
never reached ``dbx.execute`` carries no work counters.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.core import DBExplorer
from repro.core.cadview import CADViewConfig
from repro.dataset.generators import generate_usedcars
from repro.errors import OverloadedError
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import evaluate_slos, parse_slos
from repro.obs.worklog import NO_WORKLOG
from repro.robustness import FaultInjector
from repro.robustness.faults import NO_FAULTS
from repro.serve import ServeConfig, SessionExecutor
from repro.serve.proc import ProcServeConfig, ProcSupervisor, WorkerSpec

ROWS = 400
TRANSPORTS = ("thread", "proc")
SELECT = "SELECT Make FROM data LIMIT 1"
CREATE = (
    "CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM data "
    "LIMIT COLUMNS 3 IUNITS 2"
)


@contextmanager
def serving(transport, metrics, faults_spec=None, state_dir=None, **retry):
    """One transport over the same table, counting into ``metrics``.

    ``faults_spec`` is the transport's fault plan (forked per statement
    in both); ``retry`` overrides the transient-retry policy.
    """
    if transport == "thread":
        dbx = DBExplorer(
            CADViewConfig(seed=7),
            faults=(
                FaultInjector.parse(faults_spec) if faults_spec
                else NO_FAULTS
            ),
            worklog=NO_WORKLOG,
        )
        dbx.register("data", generate_usedcars(ROWS, seed=7))
        config = ServeConfig(workers=1, breaker=None, **retry)
        with SessionExecutor(dbx, config, metrics=metrics) as executor:
            yield executor
        return
    spec = WorkerSpec(
        dataset="usedcars", rows=ROWS, seed=7, faults_spec=faults_spec,
        **retry,
    )
    config = ProcServeConfig(
        shards=1, breaker=None, state_dir=state_dir,
        heartbeat_interval_s=0.05, heartbeat_timeout_s=0.5,
    )
    with ProcSupervisor(spec, config, metrics=metrics) as supervisor:
        assert supervisor.wait_ready(60)
        yield supervisor


def _counters(metrics, prefix):
    return {
        name[len(prefix):]: value
        for name, value in metrics.snapshot()["counters"].items()
        if name.startswith(prefix)
    }


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_every_terminal_ticket_is_counted_once(transport):
    """An ok statement, a parse error, an analysis error and an
    admission rejection: four statements, four statuses, four outcomes
    — in either transport, so ``*:error_rate`` reads the same."""
    metrics = MetricsRegistry()
    with serving(transport, metrics) as server:
        for sql in (SELECT, "SELEC nonsense", "SELECT Nope FROM data"):
            assert server.submit(sql, session="s").wait(60)
        with pytest.raises(OverloadedError):
            server.submit(
                SELECT, session="s",
                faults=FaultInjector.parse("serve.queue_full=crash*1"),
            )
    assert _counters(metrics, "serve.statements.") == {
        "ok": 1, "parse_error": 1, "analysis_error": 1, "rejected": 1,
    }
    assert _counters(metrics, "serve.outcome.") == {
        "ok": 1, "failed": 2, "rejected": 1,
    }
    report = evaluate_slos(
        parse_slos("*:error_rate<=1.0"), metrics.snapshot()
    )
    assert report.results[0].observed == pytest.approx(0.75)


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("crashes, max_retries, outcome, attempts", [
    (2, 2, "ok", 3),       # two injected crashes absorbed, then success
    (5, 1, "failed", 2),   # retries exhausted
])
def test_transient_retries_match(
    transport, crashes, max_retries, outcome, attempts
):
    metrics = MetricsRegistry()
    with serving(
        transport, metrics,
        faults_spec=f"serve.slow_worker=crash*{crashes}",
        max_retries=max_retries,
    ) as server:
        ticket = server.submit(SELECT, session="s")
        assert ticket.wait(60)
    assert ticket.outcome == outcome
    assert ticket.attempts == attempts
    assert metrics.counter("serve.retries").value == attempts - 1


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_never_executed_statement_carries_no_work(transport, tmp_path):
    """Session ``a`` last ran a CREATE; a SELECT on ``a`` that crashes
    before ``dbx.execute`` must not report the CREATE's work counters.
    In proc mode the CREATE reaches the worker by journal replay."""
    state_dir = str(tmp_path / "state")
    if transport == "proc":
        with serving("proc", MetricsRegistry(), state_dir=state_dir) as sup:
            created = sup.submit(CREATE, session="a")
            assert created.wait(60) and created.outcome == "ok"
    with serving(
        transport, MetricsRegistry(),
        faults_spec="serve.slow_worker=crash*9", state_dir=state_dir,
        max_retries=0,
    ) as server:
        if transport == "thread":
            created = server.submit(CREATE, session="a", faults=NO_FAULTS)
            assert created.wait(60) and created.work
        ticket = server.submit(SELECT, session="a")
        assert ticket.wait(60)
    assert ticket.outcome == "failed"
    assert ticket.attempts == 1
    assert ticket.work is None
