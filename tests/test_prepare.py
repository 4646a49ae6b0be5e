"""Each statement is parsed and analyzed once on every serving path.

``DBExplorer.prepare`` parses and analyzes a statement into a
``Prepared``; ``DBExplorer.execute`` runs it without parsing again and
re-analyzes only when the view or table catalog moved in between.  The
thread executor prepares at submit, the proc supervisor parses once at
submit, and a proc worker parses once for both the execution and its
reply.  Counting ``parse`` calls pins each of those, and the
re-analysis cases pin that execution stays the source of truth: a
prepared statement fails or answers exactly as its SQL text would.  The
thread executor analyzes only what it admits: a statement refused at
admission is parsed, for its kind, and never analyzed.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

import repro.serve.proc.supervisor  # noqa: F401  (patched below)
from repro.core import DBExplorer
from repro.core.cadview import CADViewConfig
from repro.core.explorer import Prepared
from repro.dataset import AttrKind, Attribute, Schema, Table
from repro.dataset.generators import generate_usedcars
from repro.errors import AnalysisError, OverloadedError, ParseError
from repro.obs.metrics import MetricsRegistry
from repro.obs.worklog import NO_WORKLOG, WorkLogWriter, read_worklog
from repro.query import parser
from repro.robustness import CancelToken, FaultInjector
from repro.robustness.faults import NO_FAULTS
from repro.serve import ServeConfig, SessionExecutor
from repro.serve.proc import ProcServeConfig, ProcSupervisor, WorkerSpec
from repro.serve.proc.worker import _Worker

REPO = Path(__file__).resolve().parent.parent
ROWS = 400
SELECT = "SELECT Make, Price FROM data WHERE Price > 1000 LIMIT 3"
CREATE = (
    "CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM data "
    "LIMIT COLUMNS 3 IUNITS 2"
)
HIGHLIGHT = "HIGHLIGHT SIMILAR IUNITS IN v WHERE SIMILARITY(Ford, 1) > 0.5"
# one statement per outcome the executor's gate tells apart
OUTCOMES = {
    "executed": (SELECT, "ok"),
    "parse error": ("SELEC nonsense", "parse_error"),
    "analysis error": ("SELECT Nope FROM data", "analysis_error"),
    "plain explain": ("EXPLAIN SELECT Nope FROM data", "ok"),
}


@pytest.fixture(scope="module")
def cars():
    return generate_usedcars(ROWS, seed=7)


def _explorer(cars, worklog=NO_WORKLOG):
    dbx = DBExplorer(CADViewConfig(seed=7), faults=NO_FAULTS, worklog=worklog)
    dbx.register("data", cars)
    return dbx


@pytest.fixture
def parses(monkeypatch):
    """Every ``parse`` call made in this process, by SQL text.

    Patches the name in every loaded ``repro`` module that imported it,
    and in the parser module itself for imports made at call time.
    """
    calls = []
    real = parser.parse

    def counting(sql):
        calls.append(sql)
        return real(sql)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "parse", None) is real:
            monkeypatch.setattr(module, "parse", counting)
    return calls


@pytest.fixture
def analyses(monkeypatch):
    """Every ``DBExplorer.analyze`` call, by statement class."""
    calls = []
    real = DBExplorer.analyze

    def counting(self, stmt_or_sql, text=""):
        calls.append(type(stmt_or_sql).__name__)
        return real(self, stmt_or_sql, text)

    monkeypatch.setattr(DBExplorer, "analyze", counting)
    return calls


class TestPrepare:
    def test_holds_statement_report_and_catalogs(self, cars):
        dbx = _explorer(cars)
        prepared = dbx.prepare(SELECT)
        assert isinstance(prepared, Prepared)
        assert prepared.sql == SELECT
        assert prepared.ok and prepared.report.ok
        assert prepared.views is dbx.views.snapshot()
        assert prepared.tables is dbx.engine.snapshot()

    def test_rejection_is_returned_not_raised(self, cars):
        dbx = _explorer(cars)
        prepared = dbx.prepare("SELECT Nope FROM data")
        assert not prepared.ok
        with pytest.raises(AnalysisError, match="QA102"):
            dbx.execute(prepared)

    def test_parse_error_raises(self, cars):
        with pytest.raises(ParseError):
            _explorer(cars).prepare("SELEC nonsense")

    def test_plain_explain_is_not_analyzed(self, cars, analyses):
        prepared = _explorer(cars).prepare("EXPLAIN SELECT Nope FROM data")
        assert prepared.report is None and prepared.ok
        assert analyses == []

    def test_concurrent_registers_lose_no_table(self, cars):
        # copy-and-swap without the lock would drop a concurrent
        # writer's table: more threads than cores, frequent switches
        engine = _explorer(cars).engine
        names = [[f"t{w}_{i}" for i in range(200)] for w in range(8)]

        def register_all(batch):
            for name in batch:
                engine.register(name, cars)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=register_all, args=(batch,))
                for batch in names
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(engine.snapshot()) == 1 + 8 * 200


class TestReanalysis:
    def test_unchanged_catalogs_analyze_once(self, cars, analyses):
        dbx = _explorer(cars)
        prepared = dbx.prepare(SELECT)
        first = dbx.execute(prepared)
        second = dbx.execute(prepared)
        assert analyses == ["SelectStatement"]
        assert len(first) == len(second) == 3
        assert dbx.last_analysis is prepared.report

    def test_a_new_view_triggers_one_more_analysis(self, cars, analyses):
        dbx = _explorer(cars)
        prepared = dbx.prepare(SELECT)
        dbx.execute(CREATE)
        analyses.clear()
        dbx.execute(prepared)
        assert analyses == ["SelectStatement"]

    def test_dropped_view_fails_as_the_text_does(self, cars):
        dbx = _explorer(cars)
        dbx.execute(CREATE)
        prepared = dbx.prepare(HIGHLIGHT)
        assert prepared.ok
        dbx.execute("DROP CADVIEW v")
        with pytest.raises(AnalysisError) as from_prepared:
            dbx.execute(prepared)
        with pytest.raises(AnalysisError) as from_text:
            dbx.execute(HIGHLIGHT)
        assert "QA501" in str(from_prepared.value)
        assert str(from_prepared.value) == str(from_text.value)

    def test_reregistered_table_answers_as_the_text_does(self, cars):
        # Price turns categorical: an ordering comparison on it is now
        # an error, though the column name still resolves
        dbx = _explorer(cars)
        prepared = dbx.prepare(SELECT)
        assert prepared.ok
        schema = Schema([
            Attribute("Make", AttrKind.CATEGORICAL),
            Attribute("Price", AttrKind.CATEGORICAL),
        ])
        dbx.register("data", Table.from_rows(schema, [
            {"Make": "Ford", "Price": "cheap"},
        ]))
        with pytest.raises(AnalysisError) as from_prepared:
            dbx.execute(prepared)
        with pytest.raises(AnalysisError) as from_text:
            dbx.execute(SELECT)
        assert str(from_prepared.value) == str(from_text.value)

    def test_reregistered_table_is_what_runs(self, cars):
        dbx = _explorer(cars)
        prepared = dbx.prepare(SELECT)
        other = generate_usedcars(ROWS, seed=8)
        dbx.register("data", other)
        expected = DBExplorer(worklog=NO_WORKLOG)
        expected.register("data", other)
        assert (
            list(dbx.execute(prepared).iter_rows())
            == list(expected.execute(SELECT).iter_rows())
        )


class TestThreadExecutorParsesOnce:
    @pytest.mark.parametrize("outcome", sorted(OUTCOMES))
    def test_each_outcome(self, cars, parses, analyses, outcome):
        sql, status = OUTCOMES[outcome]
        with SessionExecutor(
            _explorer(cars), ServeConfig(workers=1, breaker=None)
        ) as executor:
            ticket = executor.submit(sql, session="s")
            assert ticket.wait(30)
        assert ticket.status == status
        assert parses == [sql]
        unanalyzed = ("parse error", "plain explain")
        assert len(analyses) == (0 if outcome in unanalyzed else 1)

    @pytest.mark.parametrize("sql, kind", [
        (SELECT, "select"), ("SELEC nonsense", "invalid"),
    ])
    def test_refused_at_admission(
        self, cars, parses, analyses, tmp_path, sql, kind
    ):
        # parsed for its kind, never analyzed
        log = tmp_path / "rejected.worklog.jsonl"
        with WorkLogWriter(str(log)) as worklog, SessionExecutor(
            _explorer(cars, worklog), ServeConfig(workers=1)
        ) as executor:
            with pytest.raises(OverloadedError):
                executor.submit(
                    sql, session="s",
                    faults=FaultInjector.parse("serve.queue_full=crash*1"),
                )
        assert parses == [sql]
        assert analyses == []
        (record,) = [
            r for r in read_worklog(str(log)) if r["kind"] == "statement"
        ]
        assert record["status"] == "rejected"
        assert record["statement_kind"] == kind


class TestProcParsesOnce:
    def test_supervisor_parses_each_statement_once(self, parses):
        spec = WorkerSpec(dataset="usedcars", rows=ROWS, seed=7)
        config = ProcServeConfig(
            shards=1, breaker=None, heartbeat_interval_s=0.05,
            heartbeat_timeout_s=0.5,
        )
        with ProcSupervisor(spec, config, metrics=MetricsRegistry()) as sup:
            assert sup.wait_ready(60)
            statuses = {}
            for outcome, (sql, _) in sorted(OUTCOMES.items()):
                parses.clear()
                ticket = sup.submit(sql, session="s")
                assert ticket.wait(60)
                statuses[outcome] = ticket.status
                assert parses == [sql], outcome
            parses.clear()
            with pytest.raises(OverloadedError):
                sup.submit(
                    SELECT, session="s",
                    faults=FaultInjector.parse("serve.queue_full=crash*1"),
                )
            assert parses == [SELECT]
        assert statuses == {k: status for k, (_, status) in OUTCOMES.items()}

    @pytest.mark.parametrize("sql, kind, pivot", [
        (SELECT, "select", None),
        (CREATE, "create_cadview", "Make"),
        ("SELECT Nope FROM data", "select", None),
        ("EXPLAIN SELECT Nope FROM data", "explain", None),
    ])
    def test_worker_parses_once_for_run_and_reply(
        self, parses, sql, kind, pivot
    ):
        worker = _Worker(
            WorkerSpec(dataset="usedcars", rows=ROWS, seed=7), None,
            0, 0, [], 1.0,
        )
        parses.clear()
        reply = worker._execute(sql, "s", NO_FAULTS, CancelToken(), None, 0)
        assert parses == [sql]
        assert reply["kind"] == kind
        assert reply["pivot"] == pivot


# the fields a worklog record carries that depend on the run's timing
TIMING_FIELDS = ("elapsed_ms", "phases_ms", "seq", "t_rel_s", "ts")


def test_canned_session_writes_the_committed_records(tmp_path):
    """Replaying the committed session through the executor's prepared
    path writes the records the log holds, timing aside; the SQL-text
    path (each statement parsed and analyzed at execution) writes the
    same records, work counters included."""
    canned = REPO / "examples" / "session_nba.worklog.jsonl"
    records = [json.loads(line) for line in canned.read_text().splitlines()]
    header = records[0]
    expected = [r for r in records if r["kind"] == "statement"]
    table = generate_usedcars(header["rows"], seed=header["seed"])

    def replay(path, through_executor):
        with WorkLogWriter(str(path)) as worklog:
            dbx = _explorer(table, worklog)
            if through_executor:
                with SessionExecutor(
                    dbx, ServeConfig(workers=1, breaker=None)
                ) as executor:
                    for record in expected:
                        assert executor.run(record["statement"]).done
            else:
                for record in expected:
                    try:
                        dbx.execute(record["statement"])
                    except AnalysisError:
                        pass
        return [
            {k: v for k, v in r.items() if k not in TIMING_FIELDS}
            for r in read_worklog(str(path)) if r["kind"] == "statement"
        ]

    prepared = replay(tmp_path / "prepared.jsonl", True)
    text = replay(tmp_path / "text.jsonl", False)
    assert prepared == text
    for got, want in zip(prepared, expected):
        for key in want:
            if key not in TIMING_FIELDS:
                assert got[key] == want[key], (want["statement"], key)
    assert len(prepared) == len(expected)
