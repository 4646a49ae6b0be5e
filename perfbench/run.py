"""Run one benchmark workload from a seed and print its metrics.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 15 --trace 0

Run from the root of a checkout (the program is imported from
``src/``; nothing is installed).  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
ones.  Everything above it is the run's forensics: host and BLAS
settings, CPU steal and load, per-class sample counts, the result
fingerprint, work totals and serving-layer deaths.  See README.md.

A timed run launches the workload process three times: twice to time
set-up alone, the third time to set up and then run the seeded
statements.  ``setup_s`` is the median of the three set-ups.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

import stats
import workloads
from names import END_TO_END, PER_LAYER

SETUPS = 3
RUN_BUDGET_S = 170.0   # the whole run, every child included
CLEARED_ENV = (
    "REPRO_FAULTS", "REPRO_WORKLOG", "REPRO_WAL_ACK_LOG", "REPRO_BENCH_DIR",
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Child:
    """One workload process, in its own process group."""

    def __init__(self, args: List[str], env: Dict[str, str]):
        self.lines: "queue.Queue[Tuple[float, Optional[str]]]" = queue.Queue()
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py")] + args,
            stdout=subprocess.PIPE, env=env, cwd=ROOT,
            start_new_session=True, text=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put((time.perf_counter(), line))
        self.lines.put((time.perf_counter(), None))

    def next_event(self, deadline: float) -> Tuple[float, dict]:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        try:
            stamp, line = self.lines.get(timeout=remaining)
        except queue.Empty:
            raise BenchError("workload process timed out") from None
        if line is None:
            raise BenchError(
                f"workload process exited early (code {self.proc.wait()})"
            )
        return stamp, json.loads(line)

    def finish(self, deadline: float) -> None:
        remaining = max(0.1, deadline - time.monotonic())
        try:
            code = self.proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("workload process did not exit") from None
        self._reader.join(timeout=5.0)
        if code != 0:
            raise BenchError(f"workload process exited with code {code}")

    def kill(self) -> None:
        """Stop the whole process group and wait until it is gone."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        for _ in range(100):
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for name in CLEARED_ENV:
        env.pop(name, None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


def run_sessions(args, trace: bool) -> int:
    """Sessions in one run; a traced run plays each session twice
    (untraced and traced), so it takes the first half of the script."""
    n = workloads.sessions_for(args.workload, args.seconds)
    return (n + 1) // 2 if trace else n


def launch(mode: str, args, tmp: str, deadline: float, children: List[Child]):
    """Run one workload process; ``(setup_s, ready event, result event)``."""
    workdir = tempfile.mkdtemp(dir=tmp)
    child = Child([
        "--workload", args.workload, "--seed", str(args.seed),
        "--sessions", str(run_sessions(args, mode == "trace")),
        "--mode", mode, "--tmp", workdir,
    ], child_env())
    children.append(child)
    stamp, ready = child.next_event(deadline)
    if ready.get("event") != "ready":
        raise BenchError(f"unexpected first event {ready!r}")
    _, result = child.next_event(deadline)
    child.finish(deadline)
    return stamp - child.started, ready, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to measure under {ROOT}/src",
              file=sys.stderr)
        return 2

    # a terminated run still stops its workload processes (finally below)
    signal.signal(signal.SIGTERM, _terminate)
    deadline = time.monotonic() + RUN_BUDGET_S
    base = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=base)
    children: List[Child] = []
    steal0, load0 = stats.steal_ticks(), stats.loadavg()
    launches = []
    try:
        modes = ["trace"] if args.trace else (
            ["setup"] * (SETUPS - 1) + ["measure"]
        )
        for mode in modes:
            launches.append(launch(mode, args, tmp, deadline, children))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        for child in children:
            if child.proc.poll() is None:
                child.kill()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass   # another run is using it
    host = {"steal": (steal0, stats.steal_ticks()),
            "load": (load0, stats.loadavg())}
    report(args, launches, host, trace=bool(args.trace))
    return 0


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def _line(text: str) -> None:
    print(f"# {text}")


def report(args, launches, host, trace=False) -> None:
    """Print the forensics lines, then the one-line JSON result.

    ``launches`` holds ``(setup_s, ready, result)`` per workload
    process; the last one ran the statements.
    """
    _, ready, result = launches[-1]
    info = stats.host_info()
    sessions = workloads.script(
        args.workload, args.seed, run_sessions(args, trace)
    )
    _line(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={int(trace)} "
          f"sessions={len(sessions)}")
    _line(f"host: nproc={info['nproc']} python={info['python']} "
          f"numpy={info['numpy']} blas/openmp threads: " + " ".join(
              f"{k}={v}" for k, v in info["blas_env"].items()))
    (s0, s1), (l0, l1) = host["steal"], host["load"]
    _line(f"noise: cpu steal ticks {s0} -> {s1} "
          f"(+{(s1 or 0) - (s0 or 0)}) over the run; loadavg {l0} -> {l1}")
    if not trace:
        _line(f"measured window: steal ticks {result.get('steal_before')} "
              f"-> {result.get('steal_after')}; loadavg "
              f"{result.get('load_before')} -> {result.get('load_after')}")
    gating = result.get("gating") or {}
    if gating:
        _line(f"steal gate: {gating['replays']} session replay(s); "
              f"{gating['stolen_sessions']} kept session(s) still saw "
              f"steal ({gating['stolen_ticks']} ticks); replay budget "
              f"left {max(0.0, gating['budget_left_s']):.1f} s")
    rows = sorted(s.rows for s in sessions)
    _line(f"build result sizes (rows): min {rows[0]} median "
          f"{rows[len(rows) // 2]} max {rows[-1]} over {len(rows)} builds")
    # every process's warm-up is checked too, set-up-only ones included
    warmup = [p for _, r, _ in launches for p in r["warmup_problems"]]
    problems = warmup + (result.get("problems") or [])
    failed = int(result.get("failed", 0)) + len(warmup)
    attempted = int(result.get("attempted", 0))
    for problem in problems[:20]:
        _line(f"unexpected outcome: {problem}")
    _line(f"fingerprint: {result.get('fingerprint')}")
    _line("work totals: " + " ".join(
        f"{k}={v}" for k, v in (result.get("work_totals") or {}).items()))
    for i, (_, _, res) in enumerate(launches):
        serving = res.get("serving") or {}
        if serving:
            role = "measuring" if i == len(launches) - 1 else "set-up"
            _line(f"serving ({role} process): " + " ".join(
                f"{k}={serving[k]}" for k in sorted(serving)))
    if trace:
        metrics, correct = _trace_metrics(result, failed)
    else:
        setups = [setup_s for setup_s, _, _ in launches]
        metrics, correct = _timed_metrics(result, ready, setups, failed)
    _line(f"outcomes: attempted={attempted} failed={failed} "
          f"error_rate={failed / max(1, attempted):.6f} fraction")
    for name, value in metrics.items():
        _line(f"{name} = {value['value']:.6g} {value['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=False))


def _timed_metrics(result, ready, setups, failed):
    breakdown = ready.get("breakdown_s") or {}
    _line("setup_s samples: " + " ".join(f"{s:.3f}" for s in setups)
          + "; last set-up: " + " ".join(
              f"{k} {v:.3f}s" for k, v in breakdown.items()))
    latency = result["latency_ms"]
    _line("samples per class: " + " ".join(
        f"{c}={len(latency[c])}" for c in workloads.CLASSES)
        + f" (p90 reported when >= {stats.TAIL_MIN_BEYOND} samples "
        "lie beyond it)")
    _line("statement types: " + " ".join(
        f"{k}={v}" for k, v in sorted(result["kinds"].items())))
    values: Dict[str, float] = {
        "setup_s": stats.median(setups),
        "throughput_sps": result["completed"] / result["window_s"],
        "peak_rss_mb": sum(result["rss_mb"].values()),
    }
    for cls in workloads.CLASSES:
        samples = latency[cls]
        if samples:
            values[f"{cls}_p50_ms"] = stats.median(samples)
        if stats.tail_ok(len(samples)):
            values[f"{cls}_p90_ms"] = stats.percentile(samples, stats.TAIL)
        else:
            _line(f"{cls}_p90_ms not reported: {len(samples)} samples "
                  f"leave {stats.beyond(len(samples), stats.TAIL)} "
                  "beyond it")
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in END_TO_END if name in values
    }
    return metrics, failed == 0


def _trace_metrics(result, failed):
    _line("traced statements per class: " + " ".join(
        f"{c}={n}" for c, n in result["class_counts"].items()))
    table = result["layer_table"]
    classes = [c for c in workloads.CLASSES
               if any(c in row for row in table.values())]
    _line("self ms per statement, by layer and class: "
          + " ".join(f"{c:>10}" for c in classes))
    last = ("unattributed", "latency")
    order = [k for k in table if k not in last] + list(last)
    for layer in order:
        _line(f"  {layer:<22}" + " ".join(
            f"{table[layer].get(c, 0.0):10.4f}" for c in classes))
    same = result["fingerprint_traced"] == result["fingerprint"]
    _line(f"self-time conservation: max |layers + unattributed - latency| "
          f"= {result['conservation_max_err_ms']:.3g} ms; wrappers restored: "
          f"{result['restored']}; traced fingerprint "
          f"{'matches' if same else 'DIFFERS'}")
    metrics = {
        name: {"value": result["per_layer"][name], "unit": unit}
        for name, unit, _ in PER_LAYER
    }
    correct = (
        failed == 0 and same and result["restored"]
        and result["conservation_max_err_ms"] < 1e-6
    )
    return metrics, correct


if __name__ == "__main__":
    sys.exit(main())
