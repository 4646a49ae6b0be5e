"""CLI surface of multi-process serving and tolerant worklog reads.

The in-process tests drive ``main()`` directly; the SIGTERM test has
to launch ``python -m repro`` as a real subprocess, because graceful
drain on SIGTERM is a whole-process contract (signal handler, drain,
artifact flush, exit 0) that cannot be observed from inside pytest.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import EXIT_BUILD_FAILED, EXIT_OK, EXIT_USAGE, main

REPO = Path(__file__).parent.parent

SQLS = [
    "SELECT Make FROM data",
    "CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM data "
    "LIMIT COLUMNS 3 IUNITS 2",
    "SHOW CADVIEWS",
    "SELECT Price FROM data",
]


def _workload(tmp_path, sqls=SQLS, rows=400):
    path = tmp_path / "wl.jsonl"
    lines = [json.dumps(
        {"kind": "session", "dataset": "usedcars",
         "rows": rows, "seed": 7}
    )]
    for sql in sqls:
        lines.append(json.dumps(
            {"kind": "statement", "statement": sql,
             "statement_kind": "select"}
        ))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestTolerantWorklogReads:
    def _torn(self, tmp_path):
        path = _workload(tmp_path, sqls=SQLS[:2])
        # a writer killed mid-record leaves a truncated trailing line
        with open(path, "a") as fh:
            fh.write('{"kind": "statement", "statement": "SELE')
        return path

    def test_replay_skips_torn_line_with_warning(self, tmp_path, capsys):
        path = self._torn(tmp_path)
        rc = main(["replay", path, "--rows", "300", "--json"])
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        assert "corrupt worklog line skipped" in captured.err
        report = json.loads(captured.out)
        assert report["corrupt_lines"] == 1
        assert report["statements"] == 2  # the torn record is not run

    def test_strict_replay_fails_on_the_same_file(self, tmp_path, capsys):
        path = self._torn(tmp_path)
        rc = main(["replay", path, "--rows", "300", "--strict"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "not valid JSON" in err and ":4" in err

    def test_concurrent_replay_reports_corrupt_count(
        self, tmp_path, capsys
    ):
        path = self._torn(tmp_path)
        rc = main([
            "replay", path, "--rows", "300", "--concurrency", "2",
            "--json",
        ])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["corrupt_lines"] == 1

    def test_clean_log_prints_no_warning(self, tmp_path, capsys):
        rc = main([
            "replay", _workload(tmp_path, sqls=SQLS[:2]),
            "--rows", "300",
        ])
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        assert "corrupt" not in captured.err
        assert "corrupt" not in captured.out


class TestServeFlagValidation:
    def test_chaos_requires_procs(self, tmp_path, capsys):
        rc = main([
            "serve", _workload(tmp_path), "--stress", "--chaos",
        ])
        assert rc == EXIT_USAGE
        assert "--chaos requires --procs" in capsys.readouterr().err

    def test_verify_sequential_requires_procs(self, tmp_path, capsys):
        rc = main([
            "serve", _workload(tmp_path), "--stress",
            "--verify-sequential",
        ])
        assert rc == EXIT_USAGE
        assert "requires --procs" in capsys.readouterr().err

    def test_procs_must_be_positive(self, tmp_path, capsys):
        rc = main([
            "serve", _workload(tmp_path), "--stress", "--procs", "0",
        ])
        assert rc == EXIT_USAGE
        assert "--procs must be >= 1" in capsys.readouterr().err


class TestServeProcs:
    def test_calm_proc_run_drains_clean(self, tmp_path, capsys):
        rc = main([
            "serve", _workload(tmp_path), "--stress",
            "--procs", "1", "--json",
        ])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["statements"] == len(SQLS)
        assert set(report["outcomes"]) <= {"ok", "degraded"}
        assert report["drain"]["clean"]
        assert all(
            code == 0 for code in report["drain"]["exitcodes"].values()
        )
        assert report["chaos"]["wedged"] == 0
        assert report["chaos"]["total_deaths"] == 0

    def test_chaos_run_recovers_and_verifies(self, tmp_path, capsys):
        """The headline acceptance gate, end to end: injected crash,
        hang and pipe-drop, every statement terminal, restarts within
        the backoff cap, digests byte-identical to a sequential run."""
        rc = main([
            "serve", _workload(tmp_path), "--stress",
            "--procs", "2", "--chaos", "--verify-sequential", "--json",
        ])
        captured = capsys.readouterr()
        assert rc == EXIT_OK, captured.err
        assert "chaos plan:" in captured.err
        report = json.loads(captured.out)
        assert report["chaos"]["total_deaths"] >= 1
        assert report["chaos"]["wedged"] == 0
        assert (
            report["chaos"]["max_restart_delay_s"]
            <= report["chaos"]["backoff_cap_s"] + 1e-9
        )
        assert set(report["outcomes"]) <= {"ok", "degraded"}

    def test_proc_run_stamps_proc_envelope_into_worklog(
        self, tmp_path, capsys
    ):
        out = tmp_path / "out.worklog.jsonl"
        rc = main([
            "serve", _workload(tmp_path), "--stress",
            "--procs", "1", "--worklog", str(out),
        ])
        assert rc == EXIT_OK
        records = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        statements = [r for r in records if r["kind"] == "statement"]
        assert len(statements) == len(SQLS)
        assert all(r["proc"]["shard"] == 0 for r in statements)


class TestStressDriverModes:
    """``replay --concurrency``, ``serve --stress`` and ``serve --stress
    --procs`` run one stress driver, so they share its contracts."""

    SESSION = str(REPO / "examples" / "session_nba.worklog.jsonl")

    def test_calm_verified_proc_run_rejects_nothing(self, capsys):
        """A verified run serves with admission wide open, so a calm
        2-shard run of the canned session answers every statement."""
        rc = main([
            "serve", self.SESSION, "--stress", "--rows", "2000",
            "--procs", "2", "--verify-sequential", "--json",
        ])
        captured = capsys.readouterr()
        assert rc == EXIT_OK, captured.err
        report = json.loads(captured.out)
        assert "rejected" not in report["outcomes"]
        assert "verified: 17 statement(s)" in captured.err

    def test_every_mode_reports_empty_logs_and_parseable_json(
        self, tmp_path, capsys
    ):
        header_only = tmp_path / "empty.jsonl"
        header_only.write_text(json.dumps(
            {"kind": "session", "dataset": "usedcars", "rows": 300}
        ) + "\n")
        modes = [
            ["replay", "--concurrency", "2", "--verify-sequential"],
            ["serve", "--stress"],
            ["serve", "--stress", "--procs", "1", "--verify-sequential"],
        ]
        for command, *flags in modes:
            rc = main([command, str(header_only), *flags, "--json"])
            captured = capsys.readouterr()
            assert rc == EXIT_USAGE, (command, flags, captured)
            assert "no statement records" in captured.err, flags
            rc = main([command, _workload(tmp_path), *flags, "--json"])
            captured = capsys.readouterr()
            assert rc == EXIT_OK, (command, flags, captured.err)
            report = json.loads(captured.out)
            assert report["statements"] == len(SQLS), flags


class TestSigtermGracefulDrain:
    def test_sigterm_mid_run_exits_zero_and_flushes(self, tmp_path):
        """SIGTERM during a proc-mode stress run: admission stops,
        in-flight statements resolve, workers are reaped, the worklog
        and metrics snapshot land on disk, and the exit code is 0.

        Timing-robust by construction: a SIGTERM that arrives before
        the replay starts just rejects every statement (still terminal,
        still exit 0); one that arrives after the run completed is
        ignored.  Either way the drain contract holds.
        """
        workload = _workload(tmp_path, sqls=SQLS * 3, rows=4_000)
        out_worklog = tmp_path / "out.worklog.jsonl"
        metrics = tmp_path / "metrics.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", workload,
                "--stress", "--procs", "1",
                "--worklog", str(out_worklog),
                "--metrics", str(metrics),
            ],
            cwd=str(REPO), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        # sync on evidence, not a fixed sleep: the session header lands
        # in the output worklog just before the CLI installs its
        # SIGTERM handler, so once the file exists the drain path is
        # armed — no matter how slowly imports or worker boot go
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if out_worklog.exists() or proc.poll() is not None:
                break
            time.sleep(0.05)
        time.sleep(1.0)  # let the workers boot / the replay begin
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, (stdout, stderr)
        # artifacts flushed despite the interruption
        snap = json.loads(metrics.read_text())
        assert "counters" in snap
        records = [
            json.loads(line)
            for line in out_worklog.read_text().splitlines()
        ]
        assert records[0]["kind"] == "session"
        # every statement a worker actually served carries provenance;
        # ones rejected at admission (drain already begun, queue full)
        # never reached a shard and legitimately have none
        for record in records[1:]:
            if record["kind"] == "statement" and \
                    record["status"] in ("ok", "degraded"):
                assert "proc" in record

    def test_sigterm_after_the_run_still_flushes_and_exits_zero(
        self, tmp_path
    ):
        """A SIGTERM that lands once the run has printed its report —
        during the artifact flush or interpreter exit — is ignored: the
        metrics snapshot still lands and the exit code stays 0."""
        workload = _workload(tmp_path, sqls=SQLS[:1])
        metrics = tmp_path / "metrics.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro", "serve", workload,
                "--stress", "--procs", "1", "--metrics", str(metrics),
            ],
            cwd=str(REPO), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        # the telemetry line is the last one printed before teardown
        for line in proc.stdout:
            if line.startswith(b"telemetry:"):
                proc.send_signal(signal.SIGTERM)
                break
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, (stdout, stderr)
        assert "counters" in json.loads(metrics.read_text())


class TestTelemetryCLI:
    @pytest.fixture(autouse=True)
    def _fresh_registry(self):
        """In-process main() calls share the global registry; the
        conservation assertions need a clean slate per test."""
        from repro.obs import MetricsRegistry, registry, set_registry

        old = registry()
        set_registry(MetricsRegistry())
        yield
        set_registry(old)

    def test_proc_run_emits_stitched_obs_artifacts(self, tmp_path, capsys):
        """One --procs run exercises the whole telemetry surface:
        stitched trace, merged cluster metrics, stats snapshot, SLO
        gate, and the `repro stats` offline renderer."""
        trace = tmp_path / "stitched.json"
        metrics = tmp_path / "cluster.json"
        stats = tmp_path / "stats.json"
        rc = main([
            "serve", _workload(tmp_path), "--stress", "--procs", "2",
            "--trace", str(trace), "--metrics", str(metrics),
            "--stats-file", str(stats),
            "--slo", "*:error_rate<=1.0", "--json",
        ])
        captured = capsys.readouterr()
        assert rc == EXIT_OK, captured.err
        assert "SLO check: PASS" in captured.err
        report = json.loads(captured.out)
        assert report["telemetry"]["workers_seen"] == 2

        # the stitched trace passes the CI validator's stitched mode
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "check_trace", REPO / "benchmarks" / "check_trace.py"
        )
        checker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checker)
        assert checker.validate_trace(str(trace), stitched=True) == []
        assert checker.validate_metrics(
            str(metrics),
            require_counters=["proc.telemetry.dropped"],
        ) == []

        # cluster metrics conserve the statement count
        counters = json.loads(metrics.read_text())["counters"]
        completed = sum(
            v for k, v in counters.items()
            if k.startswith("proc.s") and k.endswith(".completed")
            and ".g" not in k
        ) + counters.get("proc.unrouted.completed", 0)
        assert completed == len(SQLS)

        # the stats snapshot renders offline, with the SLO gate attached
        rc = main(["stats", str(stats), "--slo", "*:error_rate<=1.0"])
        captured = capsys.readouterr()
        assert rc == EXIT_OK, captured.err
        assert "serve stats" in captured.out
        rc = main(["stats", str(stats), "--slo", "*:p99_ms<=0.0001"])
        assert rc == EXIT_BUILD_FAILED
        capsys.readouterr()

    def test_replay_reports_captured_per_shard_breakdown(
        self, tmp_path, capsys
    ):
        out = tmp_path / "out.worklog.jsonl"
        rc = main([
            "serve", _workload(tmp_path), "--stress", "--procs", "2",
            "--worklog", str(out),
        ])
        assert rc == EXIT_OK
        capsys.readouterr()
        rc = main(["replay", str(out), "--rows", "300", "--json"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        shards = report["captured_by_shard"]
        assert shards  # records were stamped, so the breakdown exists
        assert all(k.startswith("s") for k in shards)
        assert sum(int(s["count"]) for s in shards.values()) == len(SQLS)

    def test_serve_slo_failure_exits_nonzero(self, tmp_path, capsys):
        rc = main([
            "serve", _workload(tmp_path), "--stress", "--procs", "1",
            "--slo", "*:mean_ms<=0.000001",
        ])
        captured = capsys.readouterr()
        assert rc == EXIT_BUILD_FAILED
        assert "SLO check: FAIL" in captured.err

    def test_slo_warn_downgrades_to_warning(self, tmp_path, capsys):
        rc = main([
            "replay", _workload(tmp_path), "--rows", "300",
            "--slo", "*:mean_ms<=0.000001", "--slo-warn",
        ])
        captured = capsys.readouterr()
        assert rc == EXIT_OK
        assert "SLO check: FAIL" in captured.err
        assert "not fatal" in captured.err

    def test_stats_cmd_reports_corrupt_snapshot(self, tmp_path, capsys):
        # a torn/garbage snapshot (SIGUSR1 dump racing a reader) is an
        # operational failure (exit 2), not an operator mistake
        bogus = tmp_path / "nope.json"
        bogus.write_text("not json")
        rc = main(["stats", str(bogus)])
        assert rc == EXIT_BUILD_FAILED
        assert "corrupt snapshot" in capsys.readouterr().err

    def test_stats_cmd_reports_truncated_snapshot(self, tmp_path, capsys):
        torn = tmp_path / "torn.json"
        torn.write_text('{"uptime_s": 1.5, "sessions": {"coun')
        rc = main(["stats", str(torn)])
        assert rc == EXIT_BUILD_FAILED
        assert "corrupt snapshot" in capsys.readouterr().err

    def test_stats_cmd_missing_file_is_usage_error(self, tmp_path, capsys):
        rc = main(["stats", str(tmp_path / "absent.json")])
        assert rc == EXIT_USAGE
        assert "cannot read" in capsys.readouterr().err
