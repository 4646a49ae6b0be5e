"""kill -9 torture: prove acked == durable at adversarial crash points.

The WAL's contract is simple to state and easy to get subtly wrong:
*every acknowledged catalog mutation survives a crash, and no
unacknowledged one resurrects*.  This module proves it the only way
that counts — by actually killing the process.

Each torture iteration:

1. launches a **fresh serving process** (``repro serve --stress`` with
   ``--state-dir``) over a mutation-rich workload, with one planned
   fault (``--faults "wal.<site>:<seq>=crash*1"``) that makes the WAL
   writer ``SIGKILL`` its own process — the whole supervisor, not a
   worker — at a deterministic point in the durability path;
2. reads the **ack log** the child wrote (``REPRO_WAL_ACK_LOG``): one
   fsync'd JSON line per mutation, appended *after* the WAL fsync and
   *before* the client's response is released.  The ack log is the
   ground truth of what the client was promised;
3. runs :func:`~repro.serve.durability.recovery.recover_state` over the
   state dir and asserts the recovered catalog is **identical to the
   acked prefix**: same last seq, and per shard the compacted recovered
   journal equals the compacted acked journal (byte-compared as
   canonical JSON).  A torn tail is fine — it must be *truncated with a
   warning*, never replayed and never fatal;
4. periodically restarts the server over the recovered state dir with
   no faults and requires a clean exit — recovery must not merely
   parse, it must *serve*.

The four crash sites cover the interesting windows:

``wal.pre_fsync``
    Before the batch is durable.  The harness additionally writes a
    *torn prefix* of the batch's first record before dying, so recovery
    must truncate a half-written tail.  Nothing was acked; nothing may
    survive.
``wal.post_fsync_pre_ack``
    After fsync, after the ack-log line, before the in-process waiter
    is released.  The mutation is durable and (per the ack log) was
    promised; it must survive.
``wal.segment_rotate``
    Just after a new segment was opened.  Recovery must stitch records
    across the segment boundary and tolerate an empty newest segment.
``wal.mid_compaction``
    Between the snapshot temp file's fsync and its atomic rename.
    Recovery must ignore the orphan temp file and fall back to the
    previous snapshot plus the WAL.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import RecoveryError
from repro.serve.durability.recovery import (
    compact_journal,
    journal_write,
    recover_state,
)
from repro.serve.durability.wal import ACK_LOG_ENV

__all__ = [
    "SITES",
    "run_torture",
    "torture_schedule",
    "write_torture_workload",
]

SITES = (
    "wal.pre_fsync",
    "wal.post_fsync_pre_ack",
    "wal.segment_rotate",
    "wal.mid_compaction",
)

# The torture workload: six catalog mutations (seq 1..6 in the WAL)
# interleaved with reads, exercising create / reorder / re-create /
# drop so journal compaction has real work to do.
_TORTURE_STATEMENTS = (
    "SELECT Make FROM data",
    "CREATE CADVIEW torture_a AS SET pivot = Make "
    "SELECT Price FROM data LIMIT COLUMNS 3 IUNITS 2",
    "CREATE CADVIEW torture_b AS SET pivot = BodyType "
    "SELECT Price FROM data LIMIT COLUMNS 3 IUNITS 2",
    "REORDER ROWS IN torture_a ORDER BY SIMILARITY(Ford) DESC",
    "SHOW CADVIEWS",
    "DROP CADVIEW torture_b",
    "CREATE CADVIEW torture_b AS SET pivot = Make "
    "SELECT Mileage FROM data LIMIT COLUMNS 3 IUNITS 2",
    "SHOW CADVIEWS",
    "DROP CADVIEW torture_a",
)
TORTURE_MUTATIONS = 6  # CREATE x3, REORDER x1, DROP x2


def write_torture_workload(
    path: str, rows: int = 120, seed: int = 7
) -> str:
    """Write the standard mutation-rich torture workload (JSONL)."""
    # repro-lint: ignore[RL010] — harness input, not the durable state
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "kind": "session", "dataset": "usedcars",
            "rows": int(rows), "seed": int(seed),
        }, sort_keys=True) + "\n")
        for sql in _TORTURE_STATEMENTS:
            fh.write(json.dumps(
                {"kind": "statement", "statement": sql}, sort_keys=True,
            ) + "\n")
    return path


def torture_schedule(
    iterations: int, mutations: int = TORTURE_MUTATIONS
) -> List[Tuple[str, int]]:
    """``iterations`` deterministic ``(site, seq)`` crash points.

    Sites rotate so any prefix of >= 4 iterations covers all four; seqs
    walk the mutation range so crashes land early, mid, and late in the
    log.  Rotation and compaction targets use only *even* seqs: under
    the torture config (``--wal-segment-bytes 1 --wal-snapshot-every
    2``) the segment is freshly emptied by each snapshot, so rotation
    and snapshotting both fire on every second mutation.
    """
    if mutations < 2:
        raise ValueError("torture needs a workload with >= 2 mutations")
    schedule: List[Tuple[str, int]] = []
    evens = max(1, mutations // 2)
    for i in range(iterations):
        site = SITES[i % len(SITES)]
        k = i // len(SITES)
        if site == "wal.pre_fsync":
            seq = 1 + (k % mutations)
        elif site == "wal.post_fsync_pre_ack":
            seq = 1 + ((k + 1) % mutations)
        else:  # rotate / mid_compaction: even seqs only (see above)
            seq = 2 * (1 + (k % evens))
        schedule.append((site, seq))
    return schedule


def run_torture(
    workload: str,
    state_root: str,
    iterations: int = 20,
    rows: int = 120,
    procs: int = 1,
    verify_restart_every: int = 5,
    timeout_s: float = 180.0,
    log: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Run the kill -9 torture loop; return a machine-readable report.

    ``report["ok"]`` is the verdict; ``report["failures"]`` lists every
    violated invariant with enough context to reproduce (site, seq,
    acked entries, recovered journals).  On failure the full diff is
    also written to ``<state_root>/torture-failure-<i>.json`` — the
    artifact CI uploads.
    """
    emit = log or (lambda line: print(line, file=sys.stderr))
    os.makedirs(state_root, exist_ok=True)
    workload, mutations = _ensure_mutations(
        workload, state_root, rows, emit
    )
    schedule = torture_schedule(iterations, mutations)
    report: Dict[str, object] = {
        "iterations": iterations,
        "workload": workload,
        "schedule": [list(point) for point in schedule],
        "killed": 0,
        "torn_tails": 0,
        "restarts_verified": 0,
        "site_counts": {site: 0 for site in SITES},
        "failures": [],
    }
    failures: List[Dict[str, object]] = report["failures"]  # type: ignore[assignment]

    for i, (site, seq) in enumerate(schedule):
        state_dir = os.path.join(state_root, f"iter-{i:03d}")
        ack_path = os.path.join(state_root, f"iter-{i:03d}.acks.jsonl")
        emit(f"torture[{i + 1}/{iterations}] {site}:{seq} "
             f"-> {state_dir}")
        proc = _launch(
            workload, state_dir, rows, procs, timeout_s,
            faults=f"{site}:{seq}=crash*1", ack_path=ack_path,
        )
        report["site_counts"][site] += 1  # type: ignore[index]
        failure = _check_iteration(
            i, site, seq, proc, state_dir, ack_path, report,
        )
        if failure is not None:
            failures.append(failure)
            _write_artifact(state_root, i, failure)
            emit(f"torture[{i + 1}/{iterations}] FAILED: "
                 f"{failure['problem']}")
            continue
        if verify_restart_every and (i + 1) % verify_restart_every == 0:
            restart = _launch(
                workload, state_dir, rows, procs, timeout_s,
                faults=None, ack_path=None,
            )
            if restart.returncode != 0:
                failure = {
                    "iteration": i, "site": site, "seq": seq,
                    "problem": (
                        f"faultless restart over the recovered state "
                        f"dir exited {restart.returncode}"
                    ),
                    "stderr": restart.stderr[-4000:],
                }
                failures.append(failure)
                _write_artifact(state_root, i, failure)
                emit(f"torture[{i + 1}/{iterations}] FAILED: "
                     f"{failure['problem']}")
            else:
                report["restarts_verified"] += 1  # type: ignore[operator]

    report["ok"] = not failures
    return report


# -- internals -------------------------------------------------------------


def _launch(
    workload: str,
    state_dir: str,
    rows: int,
    procs: int,
    timeout_s: float,
    faults: Optional[str],
    ack_path: Optional[str],
) -> "subprocess.CompletedProcess[str]":
    argv = [
        sys.executable, "-m", "repro", "serve", workload,
        "--stress", "--procs", str(procs), "--rows", str(rows),
        "--state-dir", state_dir,
        "--fsync-interval-ms", "0",      # batch-of-1: seq == crash pivot
        "--wal-segment-bytes", "1",      # rotate on every second record
        "--wal-snapshot-every", "2",     # compact on every second record
        "--drain-grace-ms", "2000",
    ]
    if faults:
        argv += ["--faults", faults]
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if ack_path is not None:
        env[ACK_LOG_ENV] = ack_path
    else:
        env.pop(ACK_LOG_ENV, None)
    return subprocess.run(
        argv, env=env, capture_output=True, text=True,
        timeout=timeout_s,
    )


def _read_acks(ack_path: str) -> List[Dict[str, object]]:
    """Parse the ack log; a torn *final* line (the writer died inside
    ``os.write``) is ignored, torn earlier lines are an error."""
    if not os.path.exists(ack_path):
        return []
    with open(ack_path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    lines = raw.split("\n")
    acks: List[Dict[str, object]] = []
    for j, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            acks.append(json.loads(line))
        except ValueError:
            if j == len(lines) - 1:
                break  # torn final line: never completed, not promised
            raise
    return acks


def _check_iteration(
    i: int,
    site: str,
    seq: int,
    proc: "subprocess.CompletedProcess[str]",
    state_dir: str,
    ack_path: str,
    report: Dict[str, object],
) -> Optional[Dict[str, object]]:
    """One iteration's invariants; a dict describes the violation."""
    context: Dict[str, object] = {
        "iteration": i, "site": site, "seq": seq,
        "returncode": proc.returncode,
        "stderr": proc.stderr[-4000:],
    }
    if proc.returncode != -signal.SIGKILL:
        context["problem"] = (
            f"crash point never fired: child exited "
            f"{proc.returncode}, expected -SIGKILL"
        )
        return context
    report["killed"] += 1  # type: ignore[operator]

    acks = _read_acks(ack_path)
    acked_last = max((int(a["seq"]) for a in acks), default=0)
    context["acked_last_seq"] = acked_last
    try:
        rec = recover_state(state_dir, truncate=True)
    except RecoveryError as exc:
        context["problem"] = f"recovery refused: {exc}"
        return context
    context["recovered_last_seq"] = rec.last_seq
    if rec.torn_tail is not None:
        report["torn_tails"] += 1  # type: ignore[operator]
        if not rec.warnings:
            context["problem"] = "torn tail truncated without a warning"
            return context

    if rec.last_seq < acked_last:
        context["problem"] = (
            f"LOST ACKED MUTATIONS: acked through seq {acked_last}, "
            f"recovered only through {rec.last_seq}"
        )
        return context
    if rec.last_seq > acked_last and site != "wal.post_fsync_pre_ack":
        # post_fsync_pre_ack can die between the ack-log fsync and the
        # fault consultation of a *later* record in the same batch;
        # with --fsync-interval-ms 0 batches are singletons, so any
        # other site recovering *more* than was promised means an
        # unacked record was resurrected.
        context["problem"] = (
            f"RESURRECTED UNACKED MUTATIONS: acked through seq "
            f"{acked_last}, recovered through {rec.last_seq}"
        )
        return context

    expected: Dict[int, List[Tuple[str, str]]] = {}
    for ack in acks:
        expected.setdefault(int(ack["shard"]), []).append(
            (str(ack["sql"]), str(ack["session"]))
        )
    shards = set(expected) | set(rec.journals)
    for shard in sorted(shards):
        want = json.dumps(
            compact_journal(expected.get(shard, [])), sort_keys=True,
        )
        got = json.dumps(
            compact_journal(rec.journals.get(shard, [])),
            sort_keys=True,
        )
        if want != got:
            context["problem"] = (
                f"catalog mismatch on shard {shard}: compacted "
                f"recovered journal differs from compacted acked "
                f"journal"
            )
            context["expected_journal"] = json.loads(want)
            context["recovered_journal"] = json.loads(got)
            return context
    return None


def _ensure_mutations(
    workload: str,
    state_root: str,
    rows: int,
    emit: Callable[[str], None],
) -> Tuple[str, int]:
    """Use the given workload only if it mutates the catalog enough."""
    mutations = 0
    try:
        with open(workload, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if record.get("kind") != "statement":
                    continue
                if journal_write(str(record.get("statement", ""))):
                    mutations += 1
    except (OSError, ValueError):
        mutations = 0
    if mutations >= 4:
        return workload, mutations
    synthesized = os.path.join(state_root, "torture.worklog.jsonl")
    write_torture_workload(synthesized, rows=rows)
    emit(
        f"workload {workload} has only {mutations} catalog "
        f"mutation(s); torturing the synthesized workload "
        f"{synthesized} instead"
    )
    return synthesized, TORTURE_MUTATIONS


def _write_artifact(
    state_root: str, iteration: int, failure: Dict[str, object]
) -> None:
    path = os.path.join(
        state_root, f"torture-failure-{iteration:03d}.json"
    )
    # repro-lint: ignore[RL010] — failure report, not the durable state
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(failure, fh, indent=2, sort_keys=True)
        fh.write("\n")
