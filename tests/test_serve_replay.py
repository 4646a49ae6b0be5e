"""Determinism tests for concurrent workload replay (repro.serve.stress).

The contract under test: replaying the committed example session at
``--concurrency 8`` produces byte-identical per-statement results —
status, degradation rungs, IUnit contents — to ``--concurrency 1``,
both on a clean run and under fault injection (``REPRO_FAULTS``-style
plans), because results depend only on the statement's position in the
log, never on worker interleaving.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core import DBExplorer
from repro.dataset.generators import generate_usedcars
from repro.obs.worklog import NO_WORKLOG, read_worklog
from repro.robustness import FaultInjector
from repro.serve import replay_concurrent, statement_scopes
from repro.serve.stress import ALL_VIEWS, result_payload

EXAMPLE_LOG = (
    Path(__file__).parent.parent
    / "examples" / "session_nba.worklog.jsonl"
)


@pytest.fixture(scope="module")
def records():
    return read_worklog(str(EXAMPLE_LOG))


@pytest.fixture(scope="module")
def cars():
    # smaller than the session header's 10k rows: both runs share the
    # table, so digests stay comparable and the test stays fast
    return generate_usedcars(1_000, seed=7)


def _replay(records, cars, concurrency, faults=None):
    dbx = DBExplorer(worklog=NO_WORKLOG, faults=faults)
    dbx.register("data", cars)
    return replay_concurrent(records, dbx, concurrency=concurrency)


class TestStatementScopes:
    def test_select_has_no_view_scope(self):
        reads, writes = statement_scopes(
            "SELECT Make FROM data LIMIT 5"
        )
        assert reads == frozenset() and writes == frozenset()

    def test_create_writes_the_view(self):
        _, writes = statement_scopes(
            "CREATE CADVIEW suvs AS SET pivot = Make "
            "SELECT Price FROM data WHERE BodyType = SUV"
        )
        assert writes == frozenset({"suvs"})

    def test_drop_reads_the_whole_catalog(self):
        # DROP returns the remaining catalog listing, so it must order
        # after every other create/drop, not just its own view's
        reads, writes = statement_scopes("DROP CADVIEW suvs")
        assert ALL_VIEWS in reads
        assert writes == frozenset({"suvs"})

    def test_show_reads_the_whole_catalog(self):
        reads, writes = statement_scopes("SHOW CADVIEWS")
        assert ALL_VIEWS in reads and writes == frozenset()

    def test_reorder_reads_and_writes_its_view(self):
        reads, writes = statement_scopes(
            "REORDER ROWS IN suvs ORDER BY SIMILARITY(Ford) DESC"
        )
        assert reads == frozenset({"suvs"})
        assert writes == frozenset({"suvs"})

    def test_highlight_only_reads(self):
        reads, writes = statement_scopes(
            "HIGHLIGHT SIMILAR IUNITS IN suvs "
            "WHERE SIMILARITY(Ford, 1) > 0.5"
        )
        assert reads == frozenset({"suvs"})
        assert writes == frozenset()

    def test_unparsable_text_has_empty_scope(self):
        assert statement_scopes("SELEC nonsense") == (
            frozenset(), frozenset()
        )


class TestConcurrentReplayDeterminism:
    def test_concurrency_8_matches_sequential_clean(self, records, cars):
        baseline = _replay(records, cars, concurrency=1)
        report = _replay(records, cars, concurrency=8)
        assert len(baseline.results) == 17
        assert baseline.mismatches(report) == []
        # the analyzer-rejected SELECT from the captured session fails
        # identically in both runs; everything else completes
        assert report.statuses.get("analysis_error") == 1
        assert report.outcomes.get("failed") == 1

    def test_concurrency_8_matches_sequential_under_faults(
        self, records, cars
    ):
        plan = "cluster=convergence*1,serve.slow_worker=crash*1"
        baseline = _replay(
            records, cars, concurrency=1,
            faults=FaultInjector.parse(plan),
        )
        report = _replay(
            records, cars, concurrency=8,
            faults=FaultInjector.parse(plan),
        )
        assert baseline.mismatches(report) == []

    def test_mismatches_reports_divergence(self, records, cars):
        # different tables genuinely change result digests — the
        # mismatch detector must say so, per statement
        small = generate_usedcars(500, seed=7)
        a = _replay(records, cars, concurrency=2)
        b = _replay(records, small, concurrency=2)
        diverged = a.mismatches(b)
        assert diverged
        assert all(ours != theirs for _, ours, theirs in diverged)

    def test_report_shape(self, records, cars):
        report = _replay(records, cars, concurrency=4)
        dumped = report.as_dict()
        assert dumped["concurrency"] == 4
        assert dumped["statements"] == len(report.results)
        assert set(report.outcomes) <= {
            "ok", "degraded", "rejected", "failed"
        }
        text = report.render()
        assert "concurrent replay" in text
        for res in report.results:
            assert res.digest in text


class TestResultPayload:
    def test_table_rows_hash_their_values(self, cars):
        # same columns, different rows: the payloads must differ
        first = result_payload(cars.take([0, 1]))
        other = result_payload(cars.take([5, 9]))
        assert first["attributes"] == other["attributes"]
        assert first != other

    def test_table_row_lists_values_in_column_order(self, cars):
        payload = result_payload(cars.take([3]))
        row = cars.row(3)
        assert payload["data"] == [
            [str(row[name]) for name in payload["attributes"]]
        ]
