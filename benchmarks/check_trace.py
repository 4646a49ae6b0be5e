"""Validate observability artifacts: ``--trace``/``--metrics``/``--worklog``.

Stdlib-only, so CI can run it without installing the package::

    python benchmarks/check_trace.py --trace trace.json --metrics metrics.json
    python benchmarks/check_trace.py --worklog session.worklog.jsonl

Exit code 0 when every given file is well-formed, 1 otherwise (with the
problems printed to stderr).  The checks mirror what the consumers
require:

* the trace must load as Chrome trace-event JSON — a ``traceEvents``
  list of complete (``"ph": "X"``) and instant (``"ph": "i"``) events
  with numeric, non-negative ``ts``/``dur``, exactly what
  ``chrome://tracing`` and https://ui.perfetto.dev accept;
* a stitched multi-process trace (``--stitched-trace``, the ``--procs``
  ``--trace`` output) additionally allows ``"ph": "M"`` metadata, and
  must name every pid via ``process_name`` metadata, contain events
  from at least two distinct processes, keep each span name on one
  side of the process boundary (``serve.request`` only on the
  supervisor pid, ``worker.*`` never on it), and link every
  ``worker.request`` span by ``args.request_id`` to a
  ``serve.request`` span — no orphan worker spans;
* ``--require-counter NAME`` asserts each given metrics snapshot
  carries that counter (the telemetry drop counters under chaos);
* the metrics snapshot must have ``counters``/``gauges``/``histograms``
  maps, every histogram internally consistent (counts length =
  bounds length + 1, count = sum of bucket counts);
* a collapsed-stack flamegraph (``--flamegraph``, the ``repro profile
  --flamegraph`` output) must be non-empty lines of
  ``frame;frame;... count`` with positive integer counts and no frame
  containing a space; ``--require-span-frames`` additionally demands
  at least one ``span:<name>`` frame — the profiler's semantic span
  attribution, without which the flamegraph is file:function noise;
* the workload log must be one JSON object per line, every record
  carrying the schema version and a strictly increasing ``seq``,
  ``t_rel_s`` non-decreasing (the writer stamps both under its lock),
  statement records complete (statement text, kind, a known status,
  non-negative ``elapsed_ms``) with their span-derived per-phase times
  reconciling: ``sum(phases_ms) <= elapsed_ms`` up to a small
  tolerance — phases are a breakdown of the statement, never more —
  and every ``ok`` ``create_cadview`` record naming its build's input
  rows as an integer ``rows_in``, in either serving mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List


def validate_trace(path: str, stitched: bool = False) -> List[str]:
    """Problems found in a Chrome trace-event JSON file (empty = valid).

    With ``stitched=True`` the file is held to the multi-process
    contract of ``--procs --trace`` output (see module docstring).
    """
    problems: List[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"{path}: cannot load as JSON: {exc}"]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return [f"{path}: missing 'traceEvents' list"]
    if not events:
        problems.append(f"{path}: trace is empty")
    allowed_phases = ("X", "i", "M") if stitched else ("X", "i")
    complete = 0
    for i, ev in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in ev:
                problems.append(f"{where}: missing {key!r}")
        ph = ev.get("ph")
        if ph not in allowed_phases:
            problems.append(f"{where}: unexpected phase {ph!r}")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            complete += 1
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
    if events and not complete:
        problems.append(f"{path}: no complete ('X') span events")
    if stitched and not problems:
        problems.extend(_check_stitching(path, events))
    return problems


def _check_stitching(path: str, events) -> List[str]:
    """The multi-process invariants of a stitched trace.

    Runs only on structurally valid events (``validate_trace`` gates
    it), so it can index into them without re-checking shapes.
    """
    problems: List[str] = []
    named_pids = set()
    span_pids = set()
    serve_ids = set()
    serve_pids = set()
    worker_span_pids = set()
    worker_ids = []
    unlabeled_workers = 0
    for ev in events:
        pid = ev.get("pid")
        ph = ev.get("ph")
        name = ev.get("name")
        if ph == "M":
            if name == "process_name":
                named_pids.add(pid)
            continue
        span_pids.add(pid)
        args = ev.get("args") or {}
        if name == "serve.request":
            serve_pids.add(pid)
            req_id = args.get("request_id")
            if req_id is None:
                problems.append(
                    f"{path}: serve.request span without args.request_id"
                )
            else:
                serve_ids.add(str(req_id))
        elif isinstance(name, str) and name.startswith("worker."):
            worker_span_pids.add(pid)
            if name == "worker.request":
                req_id = args.get("request_id")
                if req_id is None:
                    unlabeled_workers += 1
                else:
                    worker_ids.append(str(req_id))
    if len(span_pids) < 2:
        problems.append(
            f"{path}: stitched trace has events from "
            f"{len(span_pids)} process(es), expected >= 2 "
            "(supervisor + at least one worker)"
        )
    unnamed = sorted(p for p in span_pids if p not in named_pids)
    if unnamed:
        problems.append(
            f"{path}: pid(s) without process_name metadata: {unnamed}"
        )
    overlap = serve_pids & worker_span_pids
    if overlap:
        problems.append(
            f"{path}: pid(s) emit both serve.request and worker.* "
            f"spans: {sorted(overlap)} — stitching attributed spans "
            "to the wrong process"
        )
    if unlabeled_workers:
        problems.append(
            f"{path}: {unlabeled_workers} worker.request span(s) "
            "without args.request_id"
        )
    orphans = sorted(r for r in worker_ids if r not in serve_ids)
    if orphans:
        problems.append(
            f"{path}: worker.request span(s) with no matching "
            f"serve.request span: {orphans[:5]}"
            f"{' ...' if len(orphans) > 5 else ''}"
        )
    return problems


def validate_metrics(path: str, require_counters=()) -> List[str]:
    """Problems found in a metrics snapshot JSON file (empty = valid).

    ``require_counters`` names counters that must be present — chaos CI
    passes the telemetry drop counters, so a run that silently stopped
    counting drops fails loudly here rather than reading as drop-free.
    """
    problems: List[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"{path}: cannot load as JSON: {exc}"]
    if not isinstance(data, dict):
        return [f"{path}: snapshot is not an object"]
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(data.get(section), dict):
            problems.append(f"{path}: missing {section!r} map")
    for name, value in data.get("counters", {}).items():
        if not isinstance(value, (int, float)) or value < 0:
            problems.append(f"{path}: counter {name!r} not >= 0: {value!r}")
    for name, dump in data.get("histograms", {}).items():
        where = f"{path}: histogram {name!r}"
        bounds = dump.get("bounds")
        counts = dump.get("counts")
        if not isinstance(bounds, list) or not isinstance(counts, list):
            problems.append(f"{where}: missing bounds/counts")
            continue
        if len(counts) != len(bounds) + 1:
            problems.append(
                f"{where}: counts length {len(counts)} != "
                f"bounds length {len(bounds)} + 1"
            )
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            problems.append(f"{where}: bounds not strictly increasing")
        if sum(counts) != dump.get("count"):
            problems.append(
                f"{where}: count {dump.get('count')!r} != "
                f"sum of bucket counts {sum(counts)}"
            )
    counters = data.get("counters", {})
    for name in require_counters:
        if name not in counters:
            problems.append(f"{path}: required counter {name!r} missing")
    return problems


# duplicated from repro.obs.worklog on purpose: this checker must stay
# importable without the package installed (and would hide schema drift
# if it read the vocabulary from the code under test)
WORKLOG_VERSION = 1
WORKLOG_STATUSES = (
    "ok", "analysis_error", "parse_error", "build_failed",
    "budget_exhausted", "cancelled", "rejected", "error",
)
# phases are measured by perf_counter spans inside the statement's own
# perf_counter window; 5% + 1ms absorbs float rounding on tiny builds
PHASE_SUM_TOLERANCE = 1.05
PHASE_SUM_SLACK_MS = 1.0


def validate_worklog(path: str) -> List[str]:
    """Problems found in a workload-log JSONL file (empty = valid)."""
    problems: List[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        return [f"{path}: cannot read: {exc}"]
    if not lines:
        return [f"{path}: worklog is empty"]
    last_seq = 0
    last_t_rel = float("-inf")
    statements = 0
    for i, line in enumerate(lines, start=1):
        where = f"{path}:{i}"
        if not line.strip():
            problems.append(f"{where}: blank line")
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            problems.append(f"{where}: not JSON: {exc}")
            continue
        if not isinstance(record, dict):
            problems.append(f"{where}: record is not an object")
            continue
        if record.get("v") != WORKLOG_VERSION:
            problems.append(
                f"{where}: schema version {record.get('v')!r} != "
                f"{WORKLOG_VERSION}"
            )
        kind = record.get("kind")
        if kind == "session":
            # a new session appended to the same file restarts the
            # writer's seq/t_rel clocks; monotonicity is per-session
            last_seq = 0
            last_t_rel = float("-inf")
        seq = record.get("seq")
        if not isinstance(seq, int) or seq <= last_seq:
            problems.append(
                f"{where}: seq {seq!r} not strictly increasing "
                f"(previous {last_seq})"
            )
        else:
            last_seq = seq
        t_rel = record.get("t_rel_s")
        if not isinstance(t_rel, (int, float)) or t_rel < last_t_rel:
            problems.append(
                f"{where}: t_rel_s {t_rel!r} went backwards "
                f"(previous {last_t_rel:.6f})"
            )
        else:
            last_t_rel = float(t_rel)
        ts = record.get("ts")
        if not isinstance(ts, (int, float)) or ts <= 0:
            problems.append(f"{where}: bad ts {ts!r}")
        if kind == "session":
            continue
        if kind != "statement":
            problems.append(f"{where}: unknown record kind {kind!r}")
            continue
        statements += 1
        stmt = record.get("statement")
        if not isinstance(stmt, str) or not stmt.strip():
            problems.append(f"{where}: missing statement text")
        if not isinstance(record.get("statement_kind"), str):
            problems.append(f"{where}: missing statement_kind")
        if record.get("status") not in WORKLOG_STATUSES:
            problems.append(
                f"{where}: unknown status {record.get('status')!r}"
            )
        if (
            record.get("statement_kind") == "create_cadview"
            and record.get("status") == "ok"
            and not isinstance(record.get("rows_in"), int)
        ):
            problems.append(
                f"{where}: ok create_cadview record without an integer "
                f"rows_in (got {record.get('rows_in')!r})"
            )
        elapsed = record.get("elapsed_ms")
        if not isinstance(elapsed, (int, float)) or elapsed < 0:
            problems.append(f"{where}: bad elapsed_ms {elapsed!r}")
            continue
        phases = record.get("phases_ms")
        if phases is None:
            continue
        if not isinstance(phases, dict) or not all(
            isinstance(v, (int, float)) and v >= 0
            for v in phases.values()
        ):
            problems.append(f"{where}: bad phases_ms {phases!r}")
            continue
        total = sum(phases.values())
        if total > elapsed * PHASE_SUM_TOLERANCE + PHASE_SUM_SLACK_MS:
            problems.append(
                f"{where}: phase sum {total:.3f}ms exceeds elapsed_ms "
                f"{elapsed:.3f}ms (phases are a breakdown, not a superset)"
            )
    if not statements:
        problems.append(f"{path}: no statement records")
    return problems


def validate_flamegraph(
    path: str, require_span_frames: bool = False
) -> List[str]:
    """Problems found in a collapsed-stack file (empty = valid).

    The format is what flamegraph.pl and speedscope consume: one stack
    per line, frames joined by ``;``, a space, then the sample count.
    """
    problems: List[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        return [f"{path}: cannot read: {exc}"]
    if not any(line.strip() for line in lines):
        return [f"{path}: flamegraph is empty (no samples collected)"]
    span_frames = 0
    total_samples = 0
    for i, line in enumerate(lines, start=1):
        where = f"{path}:{i}"
        line = line.rstrip("\n")
        if not line.strip():
            problems.append(f"{where}: blank line")
            continue
        stack, sep, count_text = line.rpartition(" ")
        if not sep or not stack:
            problems.append(f"{where}: no 'stack count' separator")
            continue
        if not count_text.isdigit() or int(count_text) <= 0:
            problems.append(
                f"{where}: sample count {count_text!r} not a "
                "positive integer"
            )
            continue
        total_samples += int(count_text)
        frames = stack.split(";")
        if any(not frame or " " in frame for frame in frames):
            problems.append(
                f"{where}: empty frame or embedded space in stack "
                f"{stack[:60]!r}"
            )
            continue
        span_frames += sum(
            1 for frame in frames if frame.startswith("span:")
        )
    if require_span_frames and not span_frames and not problems:
        problems.append(
            f"{path}: no 'span:<name>' frames — samples never attributed "
            "to tracer spans (was the profiled run traced?)"
        )
    return problems


def main(argv=None) -> int:
    """CLI entry point; returns 0 iff every given artifact validates."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="append", default=[],
                        help="Chrome trace-event JSON file to validate")
    parser.add_argument("--stitched-trace", action="append", default=[],
                        help="multi-process stitched trace (--procs "
                             "--trace output) to validate")
    parser.add_argument("--metrics", action="append", default=[],
                        help="metrics snapshot JSON file to validate")
    parser.add_argument("--require-counter", action="append", default=[],
                        metavar="NAME",
                        help="counter that must exist in every "
                             "--metrics snapshot")
    parser.add_argument("--worklog", action="append", default=[],
                        help="workload-log JSONL file to validate")
    parser.add_argument("--flamegraph", action="append", default=[],
                        help="collapsed-stack flamegraph file (repro "
                             "profile --flamegraph output) to validate")
    parser.add_argument("--require-span-frames", action="store_true",
                        help="fail a --flamegraph file with no "
                             "'span:<name>' frames (span attribution "
                             "never engaged)")
    args = parser.parse_args(argv)
    if (not args.trace and not args.stitched_trace and not args.metrics
            and not args.worklog and not args.flamegraph):
        parser.error(
            "give at least one --trace, --stitched-trace, --metrics, "
            "--worklog, or --flamegraph file"
        )
    if args.require_counter and not args.metrics:
        parser.error("--require-counter needs a --metrics file")
    if args.require_span_frames and not args.flamegraph:
        parser.error("--require-span-frames needs a --flamegraph file")
    problems: List[str] = []
    for path in args.trace:
        problems.extend(validate_trace(path))
    for path in args.stitched_trace:
        problems.extend(validate_trace(path, stitched=True))
    for path in args.metrics:
        problems.extend(
            validate_metrics(path, require_counters=args.require_counter)
        )
    for path in args.worklog:
        problems.extend(validate_worklog(path))
    for path in args.flamegraph:
        problems.extend(validate_flamegraph(
            path, require_span_frames=args.require_span_frames
        ))
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        checked = (len(args.trace) + len(args.stitched_trace)
                   + len(args.metrics) + len(args.worklog)
                   + len(args.flamegraph))
        print(f"ok: {checked} artifact(s) valid")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
