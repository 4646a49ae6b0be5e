"""The two serving transports run one statement core.

The thread executor (:class:`~repro.serve.SessionExecutor`) and the
multi-process supervisor (:class:`~repro.serve.proc.ProcSupervisor`)
share admission, the transient-retry loop and the outcome ledger of
:mod:`repro.serve.executor`.  Every test here runs the same statements
through both transports and expects the same observable result: the
``serve.statements.*`` / ``serve.outcome.*`` counters the SLO layer
reads, the in-band retry count, the rule that a statement which
never reached ``dbx.execute`` carries no work counters, and the
workload-log record each statement leaves.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.core import DBExplorer
from repro.core.cadview import CADViewConfig
from repro.core.explorer import statement_fields
from repro.dataset.generators import generate_usedcars
from repro.errors import OverloadedError
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import evaluate_slos, parse_slos
from repro.obs.worklog import (
    NO_WORKLOG,
    STATEMENT_FIELDS,
    WorkLogWriter,
    read_worklog,
)
from repro.robustness import FaultInjector
from repro.robustness.faults import NO_FAULTS
from repro.serve import ServeConfig, SessionExecutor
from repro.serve.proc import ProcServeConfig, ProcSupervisor, WorkerSpec
from repro.serve.stress import result_payload

ROWS = 400
TRANSPORTS = ("thread", "proc")
SELECT = "SELECT Make FROM data LIMIT 1"
CREATE = (
    "CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM data "
    "LIMIT COLUMNS 3 IUNITS 2"
)


@contextmanager
def serving(transport, metrics, faults_spec=None, state_dir=None, shards=1,
            worklog=NO_WORKLOG, **retry):
    """One transport over the same table, counting into ``metrics``.

    ``faults_spec`` is the transport's fault plan (forked per statement
    in both); ``retry`` overrides the transient-retry policy; ``shards``
    sets the proc transport's worker count; ``worklog`` receives the
    statement records.
    """
    if transport == "thread":
        dbx = DBExplorer(
            CADViewConfig(seed=7),
            faults=(
                FaultInjector.parse(faults_spec) if faults_spec
                else NO_FAULTS
            ),
            worklog=worklog,
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
        shards=shards, breaker=None, state_dir=state_dir,
        heartbeat_interval_s=0.05, heartbeat_timeout_s=0.5,
    )
    with ProcSupervisor(
        spec, config, worklog=worklog, metrics=metrics
    ) as supervisor:
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


# a pivot with more than 30 distinct values draws the QA406 warning
WIDE_CREATE = (
    "CREATE CADVIEW m AS SET pivot = Model SELECT Price FROM data "
    "LIMIT COLUMNS 3 IUNITS 2"
)


def test_worklog_records_match(tmp_path):
    """Each statement leaves the same workload-log record under either
    transport: input and output rows, pivot, phase names, degradations,
    analyzer warnings, error and work.  Only the timings, the
    writer's stamps and the proc provenance may differ."""
    records = {}
    for transport in TRANSPORTS:
        path = str(tmp_path / f"{transport}.jsonl")
        writer = WorkLogWriter(path)
        with serving(transport, MetricsRegistry(), worklog=writer) as server:
            for sql in (WIDE_CREATE, SELECT):
                ticket = server.submit(sql, session="s")
                assert ticket.wait(60) and ticket.outcome == "ok"
        writer.close()
        records[transport] = [
            _comparable(record) for record in read_worklog(path)
        ]
    # the supervisor copies STATEMENT_FIELDS: they must be every field
    # statement_fields builds
    assert tuple(
        statement_fields(None, None, None, None, None, None)
    ) == STATEMENT_FIELDS
    create, select = records["thread"]
    assert isinstance(create["rows_in"], int)
    assert any("QA406" in w for w in create["analysis_warnings"])
    assert select["rows_out"] == 1
    assert records["proc"] == records["thread"]


def _comparable(record):
    record = {
        key: value for key, value in record.items()
        if key not in ("seq", "ts", "t_rel_s", "elapsed_ms", "proc")
    }
    if record.get("phases_ms") is not None:
        record["phases_ms"] = sorted(record["phases_ms"])
    return record


FAILING_CREATE = (
    "CREATE CADVIEW bad AS SET pivot = Make SELECT Price FROM data "
    "WHERE Price < 0 LIMIT COLUMNS 3 IUNITS 2"
)


@pytest.mark.parametrize("sql", [
    "HIGHLIGHT SIMILAR IUNITS IN bad WHERE SIMILARITY(Ford, 1) > 0.5",
    "HIGHLIGHT SIMILAR IUNITS IN w0 WHERE SIMILARITY(Ford, 1) > 0.5",
    "REORDER ROWS IN w0 ORDER BY SIMILARITY(Ford) DESC",
    "DROP CADVIEW w0",
])
def test_unknown_view_error_lists_every_view(sql):
    """A statement naming an unknown view fails with the in-process
    QA501 text under two shards too.  ``v`` lives on the shard its
    table hashes to and ``w0`` hashes to the other one, whose own
    catalog is empty: the error must still list ``v``, and not ``bad``,
    whose CREATE failed."""
    errors = {}
    for transport in TRANSPORTS:
        with serving(transport, MetricsRegistry(), shards=2) as server:
            created = server.submit(CREATE, session="s")
            assert created.wait(60) and created.outcome == "ok"
            failed = server.submit(FAILING_CREATE, session="s")
            assert failed.wait(60) and failed.status == "build_failed"
            ticket = server.submit(sql, session="s")
            assert ticket.wait(60)
        assert ticket.status == "analysis_error"
        assert ticket.work is None
        errors[transport] = str(ticket.error)
    assert "QA501" in errors["thread"]
    assert "; have ['v']" in errors["thread"]
    assert errors["proc"] == errors["thread"]


@pytest.mark.parametrize("sql", [
    "EXPLAIN SELECT Nope FROM data",
    "EXPLAIN SELECT Price FROM data WHERE Price > 9 AND Price < 5",
])
def test_plain_explain_is_not_analyzed(sql):
    """A plain ``EXPLAIN`` describes the plan even of a statement the
    analyzer rejects (here QA102 and QA301): in process, and so under
    both transports, where it answers ``ok`` with the same payload."""
    dbx = DBExplorer(CADViewConfig(seed=7), worklog=NO_WORKLOG)
    dbx.register("data", generate_usedcars(ROWS, seed=7))
    plan = dbx.execute(sql)
    payloads = {}
    for transport in TRANSPORTS:
        with serving(transport, MetricsRegistry(), shards=2) as server:
            ticket = server.submit(sql, session="s")
            assert ticket.wait(60)
        assert (ticket.status, ticket.outcome) == ("ok", "ok"), ticket.error
        if transport == "thread":
            assert ticket.result == plan
            payloads[transport] = result_payload(ticket.result)
        else:
            payloads[transport] = ticket.result_payload
    assert payloads["proc"] == payloads["thread"]
