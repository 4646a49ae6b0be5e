"""Unit tests for the workload log (writer, capture, replay, validator)."""

import importlib.util
import json
import threading
from pathlib import Path

import pytest

from repro.core import CADViewConfig, DBExplorer
from repro.dataset.generators import generate_usedcars
from repro.errors import AnalysisError, ParseError
from repro.obs import (
    NO_WORKLOG,
    NullWorkLogWriter,
    WORKLOG_VERSION,
    WorkLogWriter,
    iter_worklog,
    read_worklog,
    replay,
    statement_kind,
)
from repro.query.parser import parse


def _load_check_trace():
    """Import benchmarks/check_trace.py (not an installed package)."""
    path = Path(__file__).parent.parent / "benchmarks" / "check_trace.py"
    spec = importlib.util.spec_from_file_location("check_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def cars():
    return generate_usedcars(2_000, seed=7)


def _explorer(cars, worklog):
    dbx = DBExplorer(CADViewConfig(seed=7), worklog=worklog)
    dbx.register("data", cars)
    return dbx


class TestStatementKind:
    @pytest.mark.parametrize("sql,kind", [
        ("SELECT Make FROM data", "select"),
        ("CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM data",
         "create_cadview"),
        ("DESCRIBE data", "describe"),
        ("SHOW CADVIEWS", "show_cadviews"),
        ("DROP CADVIEW v", "drop_cadview"),
        ("EXPLAIN SELECT Make FROM data", "explain"),
    ])
    def test_known_statements(self, sql, kind):
        assert statement_kind(parse(sql)) == kind

    def test_unparsed_is_invalid(self):
        assert statement_kind(None) == "invalid"

    def test_unknown_class_snake_cases(self):
        class FancyNewStatement:
            pass

        assert statement_kind(FancyNewStatement()) == "fancy_new_statement"


class TestWorkLogWriter:
    def test_stamps_version_seq_and_clocks(self, tmp_path):
        path = str(tmp_path / "w.jsonl")
        with WorkLogWriter(path) as writer:
            writer.session(dataset="usedcars", rows=10)
            writer.statement("SELECT x FROM data", "select", "ok", 1.5)
        records = read_worklog(path)
        assert [r["kind"] for r in records] == ["session", "statement"]
        for record in records:
            assert record["v"] == WORKLOG_VERSION
            assert record["ts"] > 0
        assert [r["seq"] for r in records] == [1, 2]
        assert records[0]["t_rel_s"] <= records[1]["t_rel_s"]

    def test_closed_writer_raises(self, tmp_path):
        writer = WorkLogWriter(str(tmp_path / "w.jsonl"))
        writer.close()
        writer.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            writer.log({"kind": "statement"})

    def test_statement_proc_envelope(self, tmp_path):
        """The supervisor stamps {shard, incarnation, ...} onto its
        records; plain statements must stay envelope-free."""
        path = str(tmp_path / "p.jsonl")
        with WorkLogWriter(path) as writer:
            writer.statement(
                "SELECT Make FROM data", "select", "ok", 1.2,
                proc={"shard": 1, "incarnation": 2,
                      "proc_attempts": 1, "cause": "crash"},
            )
            writer.statement("DESCRIBE data", "describe", "ok", 0.3)
        records = read_worklog(path)
        assert records[0]["proc"] == {
            "shard": 1, "incarnation": 2,
            "proc_attempts": 1, "cause": "crash",
        }
        assert "proc" not in records[1]

    def test_rotation_keeps_bounded_generations(self, tmp_path):
        path = tmp_path / "w.jsonl"
        writer = WorkLogWriter(str(path), max_bytes=500, max_files=2)
        for i in range(50):
            writer.statement(f"SELECT c{i} FROM data", "select", "ok", 0.1)
        writer.close()
        assert path.exists()
        assert (tmp_path / "w.jsonl.1").exists()
        # max_files=2 -> at most the live file plus .1 and .2
        generations = sorted(p.name for p in tmp_path.iterdir())
        assert len(generations) <= 3
        # every surviving line is still one complete JSON object
        for gen in generations:
            for line in (tmp_path / gen).read_text().splitlines():
                assert json.loads(line)["v"] == WORKLOG_VERSION

    def test_rotated_generations_start_with_the_session_header(
        self, tmp_path
    ):
        path = tmp_path / "w.jsonl"
        writer = WorkLogWriter(str(path), max_bytes=600, max_files=3)
        writer.session(dataset="usedcars", rows=123, seed=7)
        for i in range(40):
            writer.statement(f"SELECT c{i} FROM data", "select", "ok", 0.1)
        writer.close()
        rotated = sorted(
            p for p in tmp_path.iterdir() if p.name != "w.jsonl"
        )
        assert rotated, "the log never rotated"
        for gen in [path] + rotated:
            records = read_worklog(str(gen))
            header = records[0]
            # each generation is self-describing: replay can reconstruct
            # the dataset from any surviving file
            assert header["kind"] == "session"
            assert header["dataset"] == "usedcars"
            assert header["rows"] == 123
            # seq stays strictly increasing within the file even though
            # the re-written header consumed one mid-rotation
            seqs = [r["seq"] for r in records]
            assert seqs == sorted(seqs)
            assert len(set(seqs)) == len(seqs)
        # no temp file survives a clean rotation
        assert not (tmp_path / "w.jsonl.tmp").exists()

    def test_rotation_without_header_stays_headerless(self, tmp_path):
        path = tmp_path / "w.jsonl"
        writer = WorkLogWriter(str(path), max_bytes=400, max_files=2)
        for i in range(30):
            writer.statement(f"SELECT c{i} FROM data", "select", "ok", 0.1)
        writer.close()
        for gen in tmp_path.iterdir():
            for record in read_worklog(str(gen)):
                assert record["kind"] == "statement"

    def test_concurrent_writers_never_interleave(self, tmp_path):
        path = str(tmp_path / "w.jsonl")
        writer = WorkLogWriter(path)
        n_threads, per_thread = 8, 50

        def hammer(tid):
            for i in range(per_thread):
                writer.statement(
                    f"SELECT t{tid}_{i} FROM data", "select", "ok", 0.1
                )

        threads = [
            threading.Thread(target=hammer, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        writer.close()
        records = read_worklog(path)
        assert len(records) == n_threads * per_thread
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        rels = [r["t_rel_s"] for r in records]
        assert rels == sorted(rels)

    def test_from_env(self, tmp_path):
        assert WorkLogWriter.from_env({}) is None
        assert WorkLogWriter.from_env({"REPRO_WORKLOG": ""}) is None
        assert WorkLogWriter.from_env({"REPRO_WORKLOG": "0"}) is None
        path = str(tmp_path / "env.jsonl")
        writer = WorkLogWriter.from_env({"REPRO_WORKLOG": path})
        assert writer is not None and writer.enabled
        writer.close()

    def test_null_writer_is_inert(self):
        assert not NO_WORKLOG.enabled
        assert NO_WORKLOG.log({"kind": "statement"}) == {
            "kind": "statement"
        }
        NO_WORKLOG.close()
        assert isinstance(NO_WORKLOG, NullWorkLogWriter)

    def test_reader_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v": 1}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_worklog(str(path))
        path.write_text('[1, 2]\n')
        with pytest.raises(ValueError, match="not an object"):
            list(iter_worklog(str(path)))

    def test_tolerant_reader_skips_truncated_trailing_line(self, tmp_path):
        """A writer killed mid-write leaves a torn last line; the
        tolerant reader must recover every intact record and say how
        many lines it dropped."""
        path = tmp_path / "torn.jsonl"
        path.write_text(
            '{"kind": "session", "v": 1}\n'
            '{"kind": "statement", "statement": "SELECT Make FROM data"}\n'
            '{"kind": "statement", "statement": "SELECT Pri'  # torn
        )
        corrupt: list = []
        records = read_worklog(
            str(path), strict=False, corrupt_lines=corrupt
        )
        assert [r["kind"] for r in records] == ["session", "statement"]
        assert corrupt == [3]

    def test_tolerant_reader_skips_mid_file_corruption(self, tmp_path):
        path = tmp_path / "mid.jsonl"
        path.write_text(
            '{"kind": "session"}\n'
            'garbage here\n'
            '[1, 2, 3]\n'
            '{"kind": "statement", "statement": "DESCRIBE data"}\n'
        )
        corrupt: list = []
        records = read_worklog(
            str(path), strict=False, corrupt_lines=corrupt
        )
        assert len(records) == 2
        assert corrupt == [2, 3]

    def test_strict_reader_still_fails_on_the_same_file(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"kind": "session"}\n{"kind": "stat')
        with pytest.raises(ValueError, match="torn.jsonl:2"):
            read_worklog(str(path), strict=True)


class TestExplorerCapture:
    def test_statements_logged_with_phases(self, tmp_path, cars):
        path = str(tmp_path / "s.jsonl")
        with WorkLogWriter(path) as worklog:
            dbx = _explorer(cars, worklog)
            dbx.execute("SELECT Make FROM data LIMIT 3")
            dbx.execute(
                "CREATE CADVIEW v AS SET pivot = Make SELECT Price, Mileage"
                " FROM data WHERE BodyType = SUV LIMIT COLUMNS 3 IUNITS 2"
            )
        select_rec, cad_rec = read_worklog(path)
        assert select_rec["statement_kind"] == "select"
        assert select_rec["status"] == "ok"
        assert select_rec["rows_out"] == 3
        assert select_rec["error"] is None
        assert cad_rec["statement_kind"] == "create_cadview"
        assert cad_rec["pivot"] == "Make"
        assert cad_rec["rows_in"] > 0
        assert set(cad_rec["phases_ms"]) == {
            "compare_attrs", "iunits", "others"
        }
        assert sum(cad_rec["phases_ms"].values()) <= cad_rec["elapsed_ms"]

    def test_analyzer_rejection_still_logged(self, tmp_path, cars):
        path = str(tmp_path / "s.jsonl")
        with WorkLogWriter(path) as worklog:
            dbx = _explorer(cars, worklog)
            with pytest.raises(AnalysisError):
                dbx.execute(
                    "SELECT Price FROM data"
                    " WHERE Price > 9000 AND Price < 5000"
                )
            with pytest.raises(ParseError):
                dbx.execute("FROBNICATE everything")
        bad, unparsable = read_worklog(path)
        assert bad["status"] == "analysis_error"
        assert "QA" in bad["error"]
        assert unparsable["status"] == "parse_error"
        assert unparsable["statement_kind"] == "invalid"

    def test_warnings_recorded_on_ok_statement(self, tmp_path, cars):
        path = str(tmp_path / "s.jsonl")
        with WorkLogWriter(path) as worklog:
            dbx = _explorer(cars, worklog)
            # numeric pivot: executes, but the analyzer warns (QA401)
            dbx.execute(
                "CREATE CADVIEW p AS SET pivot = Price SELECT Mileage"
                " FROM data WHERE BodyType = SUV"
                " LIMIT COLUMNS 3 IUNITS 2"
            )
        (record,) = read_worklog(path)
        assert record["status"] == "ok"
        assert any("QA401" in w for w in record["analysis_warnings"])

    def test_parse_error_logs_no_earlier_warnings(self, tmp_path, cars):
        """A statement that fails to parse was never analyzed: its
        record carries no warning of the statement before it."""
        path = str(tmp_path / "s.jsonl")
        with WorkLogWriter(path) as worklog:
            dbx = _explorer(cars, worklog)
            dbx.execute(
                "CREATE CADVIEW p AS SET pivot = Price SELECT Mileage"
                " FROM data WHERE BodyType = SUV"
                " LIMIT COLUMNS 3 IUNITS 2"
            )
            with pytest.raises(ParseError):
                dbx.execute("FROBNICATE everything")
        warned, unparsable = read_worklog(path)
        assert any("QA401" in w for w in warned["analysis_warnings"])
        assert unparsable["status"] == "parse_error"
        assert unparsable["analysis_warnings"] == []
        assert dbx.last_analysis is None

    def test_no_worklog_writes_nothing(self, tmp_path, cars):
        dbx = _explorer(cars, NO_WORKLOG)
        dbx.execute("SELECT Make FROM data LIMIT 1")
        assert list(tmp_path.iterdir()) == []


class TestReplay:
    def test_replay_reproduces_statuses(self, tmp_path, cars):
        path = str(tmp_path / "s.jsonl")
        with WorkLogWriter(path) as worklog:
            dbx = _explorer(cars, worklog)
            worklog.session(dataset="usedcars", rows=2_000, seed=7)
            dbx.execute("SELECT Make FROM data LIMIT 3")
            dbx.execute(
                "CREATE CADVIEW v AS SET pivot = Make SELECT Price"
                " FROM data WHERE BodyType = SUV LIMIT COLUMNS 3 IUNITS 2"
            )
            with pytest.raises(AnalysisError):
                dbx.execute("SELECT Nope FROM data")
        records = read_worklog(path)
        report = replay(records, _explorer(cars, NO_WORKLOG))
        assert report.statements == 3
        assert report.errors == 1
        assert report.statuses == {"ok": 2, "analysis_error": 1}
        assert report.skipped == 0  # the session header is not "skipped"
        assert set(report.by_kind) == {"select", "create_cadview"}
        stats = report.by_kind["create_cadview"]
        assert stats["count"] == 1
        assert stats["p50_ms"] <= stats["p95_ms"] <= stats["p99_ms"]
        assert report.phase_totals_ms["iunits"] > 0
        assert report.throughput_stmt_s > 0

    def test_replay_skips_malformed_records(self, cars):
        records = [
            {"kind": "session"},
            {"kind": "statement"},                   # no statement text
            {"kind": "statement", "statement": "  "},
            {"kind": "garbage"},
            {"kind": "statement", "statement": "SELECT Make FROM data",
             "statement_kind": "select"},
        ]
        report = replay(records, _explorer(cars, NO_WORKLOG))
        assert report.statements == 1
        assert report.skipped == 3

    def test_render_mentions_percentiles(self, cars):
        records = [{
            "kind": "statement", "statement": "SELECT Make FROM data",
            "statement_kind": "select",
        }]
        text = replay(records, _explorer(cars, NO_WORKLOG)).render()
        assert "p50" in text and "p95" in text and "p99" in text
        assert "select" in text


class TestWorklogValidator:
    def _ok_lines(self):
        return [
            {"v": 1, "seq": 1, "ts": 1e9, "t_rel_s": 0.0,
             "kind": "session", "dataset": "usedcars"},
            {"v": 1, "seq": 2, "ts": 1e9, "t_rel_s": 0.5,
             "kind": "statement", "statement": "SELECT x FROM data",
             "statement_kind": "select", "status": "ok",
             "elapsed_ms": 2.0,
             "phases_ms": {"iunits": 1.0, "others": 0.5}},
        ]

    def _write(self, tmp_path, lines):
        path = tmp_path / "w.jsonl"
        path.write_text("".join(
            json.dumps(line) + "\n" if isinstance(line, dict) else line
            for line in lines
        ))
        return str(path)

    def test_valid_log_passes(self, tmp_path):
        check = _load_check_trace()
        assert check.validate_worklog(
            self._write(tmp_path, self._ok_lines())
        ) == []

    def test_seq_must_strictly_increase(self, tmp_path):
        check = _load_check_trace()
        lines = self._ok_lines()
        lines[1]["seq"] = 1
        problems = check.validate_worklog(self._write(tmp_path, lines))
        assert any("strictly increasing" in p for p in problems)

    def test_t_rel_must_not_go_backwards(self, tmp_path):
        check = _load_check_trace()
        lines = self._ok_lines()
        lines[0]["t_rel_s"] = 9.0
        problems = check.validate_worklog(self._write(tmp_path, lines))
        assert any("went backwards" in p for p in problems)

    def test_phase_sum_must_reconcile(self, tmp_path):
        check = _load_check_trace()
        lines = self._ok_lines()
        lines[1]["phases_ms"] = {"iunits": 100.0}
        problems = check.validate_worklog(self._write(tmp_path, lines))
        assert any("phase sum" in p for p in problems)

    def test_unknown_status_flagged(self, tmp_path):
        check = _load_check_trace()
        lines = self._ok_lines()
        lines[1]["status"] = "great"
        problems = check.validate_worklog(self._write(tmp_path, lines))
        assert any("unknown status" in p for p in problems)

    def test_non_json_line_flagged(self, tmp_path):
        check = _load_check_trace()
        lines = self._ok_lines() + ["not json\n"]
        problems = check.validate_worklog(self._write(tmp_path, lines))
        assert any("not JSON" in p for p in problems)

    def test_ok_create_needs_integer_rows_in(self, tmp_path):
        check = _load_check_trace()
        lines = self._ok_lines()
        create = dict(
            lines[1], statement_kind="create_cadview", rows_in=None,
            statement="CREATE CADVIEW v AS SET pivot = Make "
                      "SELECT Price FROM data",
        )
        problems = check.validate_worklog(
            self._write(tmp_path, [lines[0], create])
        )
        assert any("rows_in" in p for p in problems)
        create["rows_in"] = 400
        assert check.validate_worklog(
            self._write(tmp_path, [lines[0], create])
        ) == []
        failed = dict(create, rows_in=None, status="build_failed")
        assert check.validate_worklog(
            self._write(tmp_path, [lines[0], failed])
        ) == []

    def test_committed_session_log_validates(self):
        check = _load_check_trace()
        canned = (
            Path(__file__).parent.parent
            / "examples" / "session_nba.worklog.jsonl"
        )
        assert check.validate_worklog(str(canned)) == []
