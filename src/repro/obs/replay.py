"""Replay a captured workload log and report its latency distribution.

``repro replay <worklog>`` re-executes every statement of a session
captured by :mod:`repro.obs.worklog` against a freshly loaded table —
optionally under a build budget or a fault plan — and prints the
numbers an interactive system is judged on: p50/p95/p99 latency per
statement kind, throughput, degradation and failure counts.

The percentiles come from :class:`~repro.obs.metrics.MetricsRegistry`
histograms (``replay.latency.<kind>``), so a replay embedded in a
bigger process merges into its metrics like any other workload, and
two replays merge by plain snapshot addition.  Bucket-bound quantiles
are deliberately coarse: they are byte-stable across runs whose
latencies stay in the same bucket, which is exactly what the benchmark
regression gate wants to compare.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, TYPE_CHECKING

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.worklog import statement_status

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids core<->obs cycle
    from repro.core.explorer import DBExplorer

__all__ = ["ReplayReport", "replay"]


@dataclass
class ReplayReport:
    """Everything one replay run measured."""

    statements: int = 0
    errors: int = 0
    skipped: int = 0
    corrupt_lines: int = 0
    wall_s: float = 0.0
    degradations: int = 0
    by_kind: Dict[str, Dict[str, float]] = field(default_factory=dict)
    statuses: Dict[str, int] = field(default_factory=dict)
    phase_totals_ms: Dict[str, float] = field(default_factory=dict)
    # deterministic work counters (repro.obs.work): totals over the
    # whole replay and per statement kind — exact integers, compared
    # with equality (not slack) by the regression gate
    work_totals: Dict[str, int] = field(default_factory=dict)
    work_by_kind: Dict[str, Dict[str, int]] = field(default_factory=dict)
    captured_by_shard: Dict[str, Dict[str, float]] = field(
        default_factory=dict
    )
    registry: Optional[MetricsRegistry] = None

    @property
    def throughput_stmt_s(self) -> float:
        """Statements replayed per wall-clock second."""
        return self.statements / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly dump (what the workload bench emits)."""
        return {
            "statements": self.statements,
            "errors": self.errors,
            "skipped": self.skipped,
            "corrupt_lines": self.corrupt_lines,
            "wall_s": self.wall_s,
            "throughput_stmt_s": self.throughput_stmt_s,
            "degradations": self.degradations,
            "statuses": dict(sorted(self.statuses.items())),
            "by_kind": {
                kind: dict(stats)
                for kind, stats in sorted(self.by_kind.items())
            },
            "phase_totals_ms": dict(sorted(self.phase_totals_ms.items())),
            "captured_by_shard": {
                shard: dict(stats)
                for shard, stats in sorted(self.captured_by_shard.items())
            },
            "work": {
                "totals": dict(sorted(self.work_totals.items())),
                "by_kind": {
                    kind: dict(sorted(counts.items()))
                    for kind, counts in sorted(self.work_by_kind.items())
                },
            },
        }

    def render(self) -> str:
        """The human-readable latency report printed by ``repro replay``."""
        lines = [
            f"== replay: {self.statements} statement(s) in "
            f"{self.wall_s:.2f}s ({self.throughput_stmt_s:.1f} stmt/s, "
            f"{self.errors} error(s), {self.skipped} skipped) =="
        ]
        if self.corrupt_lines:
            lines.append(
                f"warning: {self.corrupt_lines} corrupt worklog line(s) "
                "skipped (rerun with --strict to fail on them)"
            )
        header = (
            f"{'kind':<18} {'count':>5} {'errors':>6} "
            f"{'p50':>10} {'p95':>10} {'p99':>10} {'mean':>10}"
        )
        lines.append(header)
        for kind, stats in sorted(self.by_kind.items()):
            lines.append(
                f"{kind:<18} {int(stats['count']):>5} "
                f"{int(stats['errors']):>6} "
                f"{_fmt_ms(stats['p50_ms']):>10} "
                f"{_fmt_ms(stats['p95_ms']):>10} "
                f"{_fmt_ms(stats['p99_ms']):>10} "
                f"{_fmt_ms(stats['mean_ms']):>10}"
            )
        status_text = "  ".join(
            f"{status}={count}"
            for status, count in sorted(self.statuses.items())
        )
        lines.append(
            f"degradations: {self.degradations}  statuses: "
            f"{status_text or '(none)'}"
        )
        if self.work_totals:
            lines.append("work counters (deterministic, exact-gated):")
            per_kind = {
                name: "  ".join(
                    f"{kind}={counts[name]}"
                    for kind, counts in sorted(self.work_by_kind.items())
                    if name in counts
                )
                for name in self.work_totals
            }
            for name, total in sorted(self.work_totals.items()):
                lines.append(f"  {name} = {total}  [{per_kind[name]}]")
        if self.captured_by_shard:
            lines.append(
                "captured per-shard latency (from the log's --procs run):"
            )
            lines.append(
                f"{'shard':<18} {'count':>5} {'deaths':>6} "
                f"{'p50':>10} {'p95':>10} {'p99':>10} {'mean':>10}"
            )
            for shard, stats in sorted(self.captured_by_shard.items()):
                lines.append(
                    f"{shard:<18} {int(stats['count']):>5} "
                    f"{int(stats.get('proc_attempts', 0)):>6} "
                    f"{_fmt_ms(stats['p50_ms']):>10} "
                    f"{_fmt_ms(stats['p95_ms']):>10} "
                    f"{_fmt_ms(stats['p99_ms']):>10} "
                    f"{_fmt_ms(stats['mean_ms']):>10}"
                )
        return "\n".join(lines)


def _fmt_ms(value: float) -> str:
    if value == float("inf"):
        return ">10s"
    return f"{value:.1f} ms"


def replay(
    records: Iterable[Dict[str, object]],
    dbx: "DBExplorer",
    registry: Optional[MetricsRegistry] = None,
) -> ReplayReport:
    """Re-execute the statements of a workload log through ``dbx``.

    ``records`` is the output of
    :func:`~repro.obs.worklog.read_worklog`; session headers and
    malformed records are skipped (counted in ``report.skipped``).
    Per-statement failures are measured and counted, never raised — an
    exploratory session legitimately contains statements the analyzer
    rejects, and a degraded replay (tight ``--budget-ms``) is exactly
    the scenario worth reporting on.

    Latencies land in ``registry`` (a fresh private
    :class:`MetricsRegistry` when not given) as
    ``replay.latency.<statement_kind>`` histograms; degradation rungs
    hit during the replay are counted from each build's report.
    """
    reg = registry if registry is not None else MetricsRegistry()
    report = ReplayReport(registry=reg)
    errors_by_kind: Dict[str, int] = {}
    # the log's own elapsed_ms per shard, for records stamped with
    # proc={shard, incarnation, ...} by a --procs run — this reports the
    # *captured* run's per-shard behavior, not this replay's
    shard_samples: Dict[str, List[float]] = {}
    shard_attempts: Dict[str, int] = {}
    t0 = time.perf_counter()
    for record in records:
        if record.get("kind") != "statement":
            if record.get("kind") != "session":
                report.skipped += 1
            continue
        sql = record.get("statement")
        if not isinstance(sql, str) or not sql.strip():
            report.skipped += 1
            continue
        proc = record.get("proc")
        if isinstance(proc, dict) and proc.get("shard") is not None:
            key = f"s{proc['shard']}"
            captured_ms = record.get("elapsed_ms")
            if isinstance(captured_ms, (int, float)):
                shard_samples.setdefault(key, []).append(
                    float(captured_ms)
                )
            shard_attempts[key] = (
                shard_attempts.get(key, 0)
                + int(proc.get("proc_attempts") or 0)
            )
        report_before = dbx.last_report
        start = time.perf_counter()
        status = "ok"
        try:
            dbx.execute(sql)
        except ReproError as exc:
            status = statement_status(exc)
        elapsed = time.perf_counter() - start
        kind = str(record.get("statement_kind") or "unknown")
        executed_work = dbx.session().last_work
        if executed_work:
            kind_work = report.work_by_kind.setdefault(kind, {})
            for name, count in executed_work.items():
                report.work_totals[name] = (
                    report.work_totals.get(name, 0) + count
                )
                kind_work[name] = kind_work.get(name, 0) + count
        reg.histogram(f"replay.latency.{kind}").observe(elapsed)
        reg.counter(f"replay.statements.{status}").inc()
        report.statements += 1
        report.statuses[status] = report.statuses.get(status, 0) + 1
        if status != "ok":
            report.errors += 1
            errors_by_kind[kind] = errors_by_kind.get(kind, 0) + 1
        built = dbx.last_report
        if built is not None and built is not report_before:
            report.degradations += len(built.degradations)
            if built.profile is not None:
                for phase, seconds in (
                    ("compare_attrs", built.profile.compare_attrs_s),
                    ("iunits", built.profile.iunits_s),
                    ("others", built.profile.others_s),
                ):
                    report.phase_totals_ms[phase] = (
                        report.phase_totals_ms.get(phase, 0.0)
                        + seconds * 1e3
                    )
    report.wall_s = time.perf_counter() - t0
    for name, hist in sorted(
        reg.snapshot()["histograms"].items()
    ):
        if not name.startswith("replay.latency."):
            continue
        kind = name[len("replay.latency."):]
        live = reg.histogram(name)
        report.by_kind[kind] = {
            "count": float(live.count),
            "errors": float(errors_by_kind.get(kind, 0)),
            "p50_ms": live.quantile(0.50) * 1e3,
            "p95_ms": live.quantile(0.95) * 1e3,
            "p99_ms": live.quantile(0.99) * 1e3,
            "mean_ms": live.mean * 1e3,
        }
    for key, samples in sorted(shard_samples.items()):
        ordered = sorted(samples)
        report.captured_by_shard[key] = {
            "count": float(len(ordered)),
            "proc_attempts": float(shard_attempts.get(key, 0)),
            "p50_ms": _nearest_rank(ordered, 0.50),
            "p95_ms": _nearest_rank(ordered, 0.95),
            "p99_ms": _nearest_rank(ordered, 0.99),
            "mean_ms": sum(ordered) / len(ordered),
        }
    return report


def _nearest_rank(ordered: List[float], q: float) -> float:
    """Exact nearest-rank percentile over pre-sorted samples.

    Unlike the bucket-bound histogram quantiles above, these run over
    the log's recorded values directly — per-shard sample counts are
    small enough that exactness beats byte-stability here.
    """
    if not ordered:
        return 0.0
    rank = max(1, int(q * len(ordered) + 0.999999))
    return ordered[min(rank, len(ordered)) - 1]
