"""The benchmark command end to end, and the shape of its percentiles."""

import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

import child
import stats
import workloads
from conftest import BENCH, ROOT
from names import END_TO_END, PER_LAYER
from workloads import CLASS_OF, CLASSES, script, sessions_for

RUN_SECONDS = 15
# sessions per short measuring run used to see each statement type's
# latency range (a run of the default size takes 30-50 s)
SHORT = {"explore": 16, "worst-build": 6, "explore-procs": 16}


def run_bench(*args, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return out.returncode, out.stdout


def _result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def _field(stdout, prefix):
    return next(line for line in stdout.splitlines()
                if line.startswith(prefix))


def test_benchmark_json_matches_the_reported_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(PER_LAYER)
    # worst-build runs on demand; the gated set leaves it out (README)
    assert [w["name"] for w in spec["workloads"]] == [
        "explore", "explore-procs",
    ]
    assert spec["run_seconds"] == RUN_SECONDS
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_explore_and_procs_report_one_fingerprint():
    prints = {}
    for workload in ("explore", "explore-procs"):
        code, out = run_bench("--workload", workload, "--seed", "5",
                              "--seconds", "1", "--trace", "0")
        assert code == 0, out
        result = _result(out)
        assert result["correct"] and result["failed"] == 0, out
        # replays of sessions the host stole CPU from add attempts
        assert result["attempted"] >= sessions_for(workload, 1) * 12
        assert set(result["metrics"]) <= {name for name, _ in END_TO_END}
        prints[workload] = _field(out, "# fingerprint:")
    assert prints["explore"] == prints["explore-procs"]


def test_traced_run_prints_every_per_layer_metric():
    code, out = run_bench("--workload", "explore", "--seed", "2",
                          "--seconds", "1", "--trace", "1")
    assert code == 0, out
    result = _result(out)
    assert result["correct"], out
    assert list(result["metrics"]) == [name for name, _, _ in PER_LAYER]
    assert result["metrics"]["query.parse_calls"]["value"] > 1.5
    assert "wrappers restored: True" in out


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out = run_bench("--workload", "explore", "--seed", "1",
                          "--seconds", "25", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in out.splitlines())


class _Broken:
    """A transport whose builds come back degraded."""

    def __init__(self, inner):
        self.inner = inner

    def call(self, sql, session):
        return self.inner.call(sql, session)

    def inspect(self, handle, session):
        reply = self.inner.inspect(handle, session)
        if reply.payload and isinstance(reply.payload, dict) \
                and "pivot_values" in reply.payload:
            reply.outcome = "degraded"
        return reply


@pytest.fixture(scope="module")
def short_runs(tmp_path_factory):
    """Per-type latencies of a short real run of each workload."""
    from repro.obs.metrics import MetricsRegistry

    runs = {}
    for workload in workloads.WORKLOADS:
        tmp = str(tmp_path_factory.mktemp(workload))
        transport = child.TRANSPORTS[workload](MetricsRegistry(), tmp)
        try:
            client = child.Client(transport)
            for session in script(workload, 8, SHORT[workload]):
                client.run_session(session)
            broken = child.Client(_Broken(transport))
            broken.run_session(script(workload, 9, 1)[0])
        finally:
            transport.close()
        assert not client.problems, client.problems
        runs[workload] = (client.records, broken.problems)
    return runs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_an_unexpected_outcome_is_counted(workload, short_runs):
    _, problems = short_runs[workload]
    # the CREATE and the REORDER both return a (degraded) view
    assert len(problems) == 2
    assert all("degraded" in p for p in problems)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_percentile_sits_in_a_gap_between_statement_types(
    workload, short_runs
):
    """Within a class, statement types whose latency ranges do not
    overlap leave a gap; the p50/p90 rank of a default-size run must
    keep 5 points away from it, or a one-sample shift would jump it."""
    records, _ = short_runs[workload]
    latency = {}
    for rec in records:
        latency.setdefault(rec["kind"], []).append(rec["latency_ms"])
    counts = {}
    for session in script(workload, 1, sessions_for(workload, RUN_SECONDS)):
        for stmt in session.statements:
            counts[stmt.kind] = counts.get(stmt.kind, 0) + 1
    for cls in CLASSES:
        kinds = sorted(
            (k for k in counts if CLASS_OF[k] == cls),
            key=lambda k: statistics.median(latency[k]),
        )
        total = sum(counts[k] for k in kinds)
        share = 0.0
        for low, high in zip(kinds, kinds[1:]):
            share += counts[low] / total
            if max(latency[low]) < min(latency[high]):
                for q in (0.5, float(stats.TAIL)):
                    assert abs(q - share) >= 0.05, (cls, low, high, q)
