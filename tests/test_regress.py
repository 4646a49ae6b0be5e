"""Unit tests for the benchmark regression gate (benchmarks/regress.py)."""

import ast
import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def _load_regress():
    """Import benchmarks/regress.py (not an installed package)."""
    path = Path(__file__).parent.parent / "benchmarks" / "regress.py"
    spec = importlib.util.spec_from_file_location("regress", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def regress():
    return _load_regress()


class TestLatencyLeaves:
    def test_collects_nested_ms_scalars(self, regress):
        payload = {
            "total_ms": 10.0,
            "n_states": 5,                       # not *_ms: ignored
            "phase_totals_ms": {"iunits": 1.0},  # dict, not scalar leaf
            "by_kind": {"select": {"p50_ms": 2.0}},
            "series": [{"total_ms": 3.0}, {"total_ms": 4.0}],
            "latencies_ms": [1.0, 2.0, 3.0],     # raw samples: ignored
        }
        leaves = dict(
            (path, value)
            for path, _key, value in regress.latency_leaves(payload)
        )
        assert leaves == {
            "total_ms": 10.0,
            "by_kind.select.p50_ms": 2.0,
            "series[0].total_ms": 3.0,
            "series[1].total_ms": 4.0,
        }

    def test_bools_are_not_latencies(self, regress):
        assert list(regress.latency_leaves({"flag_ms": True})) == []

    def test_quantized_key_detection(self, regress):
        assert regress.is_quantized_key("p50_ms")
        assert regress.is_quantized_key("p99_ms")
        assert not regress.is_quantized_key("total_ms")
        assert not regress.is_quantized_key("mean_ms")


class TestComparePayloads:
    def test_within_threshold_is_ok(self, regress):
        records = regress.compare_payloads(
            {"total_ms": 100.0}, {"total_ms": 160.0},
        )
        assert [r["status"] for r in records] == ["ok"]

    def test_regression_past_threshold(self, regress):
        # 100 * 1.75 + 25 = 200; 201 regresses
        records = regress.compare_payloads(
            {"total_ms": 100.0}, {"total_ms": 201.0},
        )
        assert [r["status"] for r in records] == ["regression"]

    def test_quantized_leaf_gets_looser_threshold(self, regress):
        # a one-bucket flip (2.5x) passes for p50_ms but would fail for
        # a continuous leaf of the same magnitude
        quantized = regress.compare_payloads(
            {"p50_ms": 100.0}, {"p50_ms": 250.0},
        )
        assert [r["status"] for r in quantized] == ["ok"]
        continuous = regress.compare_payloads(
            {"mean_ms": 100.0}, {"mean_ms": 250.0},
        )
        assert [r["status"] for r in continuous] == ["regression"]

    def test_abs_slack_forgives_tiny_phases(self, regress):
        # 0.2ms -> 20ms is a 100x blowup but under the 25ms noise floor
        records = regress.compare_payloads(
            {"others_ms": 0.2}, {"others_ms": 20.0},
        )
        assert [r["status"] for r in records] == ["ok"]

    def test_improvement_reported_not_failed(self, regress):
        records = regress.compare_payloads(
            {"total_ms": 500.0}, {"total_ms": 100.0},
        )
        assert [r["status"] for r in records] == ["improvement"]

    def test_missing_leaf_reported(self, regress):
        records = regress.compare_payloads(
            {"total_ms": 100.0}, {"other_ms": 100.0},
        )
        by_status = {r["status"] for r in records}
        assert by_status == {"missing"}


class TestCompareDirs:
    def _write(self, directory, name, payload):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"BENCH_{name}.json").write_text(json.dumps(payload))

    def test_ok_verdict(self, regress, tmp_path):
        self._write(tmp_path / "base", "x", {"total_ms": 100.0})
        self._write(tmp_path / "cur", "x", {"total_ms": 110.0})
        verdict = regress.compare_dirs(
            str(tmp_path / "base"), str(tmp_path / "cur")
        )
        assert verdict["verdict"] == "ok"
        assert verdict["counts"]["ok"] == 1

    def test_regression_verdict(self, regress, tmp_path):
        self._write(tmp_path / "base", "x", {"total_ms": 100.0})
        self._write(tmp_path / "cur", "x", {"total_ms": 9_000.0})
        verdict = regress.compare_dirs(
            str(tmp_path / "base"), str(tmp_path / "cur")
        )
        assert verdict["verdict"] == "regression"

    def test_missing_bench_file_is_error(self, regress, tmp_path):
        self._write(tmp_path / "base", "x", {"total_ms": 100.0})
        (tmp_path / "cur").mkdir()
        verdict = regress.compare_dirs(
            str(tmp_path / "base"), str(tmp_path / "cur")
        )
        assert verdict["verdict"] == "error"
        assert verdict["problems"]

    def test_main_exit_codes_and_verdict_file(self, regress, tmp_path):
        self._write(tmp_path / "base", "x", {"total_ms": 100.0})
        self._write(tmp_path / "cur", "x", {"total_ms": 110.0})
        out = tmp_path / "verdict.json"
        rc = regress.main([
            "--baseline", str(tmp_path / "base"),
            "--current", str(tmp_path / "cur"),
            "--out", str(out),
        ])
        assert rc == 0
        assert json.loads(out.read_text())["verdict"] == "ok"

        self._write(tmp_path / "cur", "x", {"total_ms": 9_000.0})
        assert regress.main([
            "--baseline", str(tmp_path / "base"),
            "--current", str(tmp_path / "cur"),
        ]) == 1
        assert regress.main([
            "--baseline", str(tmp_path / "nope"),
            "--current", str(tmp_path / "cur"),
        ]) == 2

    def test_committed_baselines_have_leaves(self, regress):
        baselines = Path(__file__).parent.parent \
            / "benchmarks" / "baselines"
        names = sorted(p.name for p in baselines.glob("BENCH_*.json"))
        assert names == [
            "BENCH_fig8_worst_case.json",
            "BENCH_session_replay.json",
            "BENCH_workload_latency.json",
        ]
        for name in names:
            payload = json.loads((baselines / name).read_text())
            assert list(regress.latency_leaves(payload)), name


class TestWorkGate:
    """Deterministic work counters are compared with exact equality."""

    def _write(self, directory, name, payload):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"BENCH_{name}.json").write_text(json.dumps(payload))

    def test_work_leaves_found_at_any_nesting(self, regress):
        payload = {
            "work": {"totals": {"work.x": 3},
                     "by_kind": {"select": {"work.x": 3}}},
            "results": [{"work": {"work.y": 1}}],
        }
        leaves = dict(regress.work_leaves(payload))
        assert leaves == {
            "work.totals.work.x": 3,
            "work.by_kind.select.work.x": 3,
            "results[0].work.work.y": 1,
        }

    def test_equal_counts_ok(self, regress):
        base = {"work": {"totals": {"work.x": 5}}}
        records, problems = regress.compare_work(base, base, "B")
        assert [r["status"] for r in records] == ["ok"]
        assert problems == []

    def test_any_drift_is_regression_no_slack(self, regress):
        base = {"work": {"totals": {"work.x": 1_000_000}}}
        cur = {"work": {"totals": {"work.x": 1_000_001}}}
        records, _ = regress.compare_work(base, cur, "B")
        assert [r["status"] for r in records] == ["regression"]

    def test_baseline_without_work_block_demands_rebaseline(self, regress):
        records, problems = regress.compare_work(
            {"total_ms": 1.0}, {"work": {"totals": {"work.x": 5}}}, "B"
        )
        assert records == []
        assert len(problems) == 1
        assert "re-baseline needed" in problems[0]

    def test_new_counter_in_current_demands_rebaseline(self, regress):
        base = {"work": {"totals": {"work.x": 5}}}
        cur = {"work": {"totals": {"work.x": 5, "work.y": 1}}}
        _, problems = regress.compare_work(base, cur, "B")
        assert any("re-baseline" in p for p in problems)

    def test_compare_dirs_fails_on_work_drift(self, regress, tmp_path):
        self._write(tmp_path / "base", "x",
                    {"total_ms": 100.0, "work": {"totals": {"work.x": 5}}})
        self._write(tmp_path / "cur", "x",
                    {"total_ms": 100.0, "work": {"totals": {"work.x": 6}}})
        verdict = regress.compare_dirs(
            str(tmp_path / "base"), str(tmp_path / "cur")
        )
        assert verdict["verdict"] == "regression"
        rendered = regress.render(verdict)
        assert "exact match required" in rendered

    def test_compare_dirs_stale_baseline_is_error(self, regress, tmp_path):
        self._write(tmp_path / "base", "x", {"total_ms": 100.0})
        self._write(tmp_path / "cur", "x",
                    {"total_ms": 100.0, "work": {"totals": {"work.x": 5}}})
        verdict = regress.compare_dirs(
            str(tmp_path / "base"), str(tmp_path / "cur")
        )
        assert verdict["verdict"] == "error"
        assert any("re-baseline needed" in p for p in verdict["problems"])

    def test_committed_baselines_carry_work_blocks(self, regress):
        baselines = Path(__file__).parent.parent \
            / "benchmarks" / "baselines"
        for path in sorted(baselines.glob("BENCH_*.json")):
            payload = json.loads(path.read_text())
            assert dict(regress.work_leaves(payload)), path.name


class TestBenchCommand:
    """The printed re-baseline command selects every emitting test."""

    @staticmethod
    def _emitters(path):
        """``{bench name: test function}`` for each ``bench_emit`` call."""
        out = {}
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            for call in ast.walk(node):
                if (
                    isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "bench_emit"
                ):
                    out[call.args[0].value] = node.name
        return out

    def test_docstring_prints_the_command(self, regress):
        flat = " ".join(regress.__doc__.replace("\\\n", " ").split())
        assert " ".join(regress.BENCH_COMMAND.split()) in flat

    def test_command_selects_every_baseline_emitter(self, regress):
        argv = shlex.split(regress.BENCH_COMMAND)
        assert argv[:3] == ["python", "-m", "pytest"]
        files = [a for a in argv if a.endswith(".py")]
        emitters = {}
        for name in files:
            for bench, test in self._emitters(ROOT / name).items():
                emitters[bench] = f"{name}::{test}"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        # -v offsets the config's addopts -q, so node ids are listed
        proc = subprocess.run(
            [sys.executable, *argv[1:], "--collect-only", "-v",
             "-p", "no:cacheprovider"],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        collected = {t for t in proc.stdout.split() if "::" in t}
        baselines = sorted((ROOT / "benchmarks" / "baselines").glob(
            "BENCH_*.json"
        ))
        assert baselines
        for path in baselines:
            bench = path.stem[len("BENCH_"):]
            assert bench in emitters, f"no test in {files} emits {bench}"
            assert emitters[bench] in collected, emitters[bench]
