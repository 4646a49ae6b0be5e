"""The supervisor-side telemetry hub: cross-process span/metric merging.

Worker subprocesses cannot share the parent's :class:`Tracer` or
:class:`~repro.obs.metrics.MetricsRegistry` — each process has its own.
The telemetry plane closes that gap: workers batch their completed span
trees (wire form, :func:`~repro.obs.tracer.span_to_wire`), a cumulative
metrics snapshot, and lifecycle events into ``TELEMETRY`` frames, and
the supervisor feeds every frame into one :class:`TelemetryHub`.

The hub is deliberately loss-tolerant:

* **metrics** ship as *cumulative* snapshots, not deltas — the hub
  keeps the latest snapshot per ``(shard, incarnation)``, so a dropped
  frame is healed by the next one and a dead incarnation's last-known
  totals are retained (counts are conserved across worker deaths);
* **span trees** are bounded (``max_span_trees``): overflow is dropped
  *and counted*, never blocking ingestion;
* nothing under the hub lock does I/O (repro-lint RL009) — exporters
  copy state out under the lock and serialize outside it.

:meth:`cluster_registry` merges everything into one registry: the
supervisor's own metrics verbatim, plus each worker snapshot re-labeled
under ``proc.s<shard>.g<incarnation>.``, plus the explicit
``proc.telemetry.dropped`` counter (present even at zero — "no drops"
must be distinguishable from "not counting").

:func:`to_stitched_chrome_trace` emits the single cross-process Chrome
trace ``--trace`` writes under ``--procs``: supervisor spans keyed by
the supervisor pid, worker spans keyed by each worker's real pid, all
on one epoch-anchored timeline, linked by ``request_id`` (a worker's
``worker.request`` root carries the same id as the supervisor's
``serve.request`` span that dispatched it).  Every tree, the
supervisor's own included, is flattened from its wire form by
:func:`~repro.obs.export.wire_to_chrome_events`.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, List, Optional, Tuple

from repro.obs.atomic import atomic_write_text
from repro.obs.export import wire_to_chrome_events
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, epoch_anchor, span_to_wire

__all__ = [
    "TelemetryHub",
    "to_stitched_chrome_trace",
    "write_stitched_chrome_trace",
]


class TelemetryHub:
    """Merges per-worker telemetry into one cluster-wide view.

    ``metrics`` is the supervisor's own registry (merged verbatim into
    :meth:`cluster_registry`); ``max_span_trees`` / ``max_events``
    bound memory — overflow increments the drop counters instead of
    growing without limit.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        max_span_trees: int = 1024,
        max_events: int = 2048,
    ):
        self._metrics = metrics
        self._max_span_trees = max_span_trees
        self._max_events = max_events
        self._lock = threading.Lock()
        # (shard, incarnation) -> latest cumulative worker snapshot
        self._worker_metrics: Dict[Tuple[int, int], Dict[str, object]] = {}
        # (shard, incarnation) -> {"pid": ..., "dropped": ...}
        self._worker_meta: Dict[Tuple[int, int], Dict[str, object]] = {}
        # [{"shard", "incarnation", "pid", "tree"}]
        self._span_trees: List[Dict[str, object]] = []
        self._events: List[Dict[str, object]] = []
        self._frames = 0
        self._hub_span_drops = 0
        self._hub_event_drops = 0

    # -- ingestion ---------------------------------------------------------

    def ingest(
        self, shard: int, incarnation: int, payload: Dict[str, object]
    ) -> None:
        """Fold one ``TELEMETRY`` frame payload in.  Never blocks on I/O.

        Malformed fields are ignored rather than raised: a telemetry
        frame must never be able to take the supervisor down.
        """
        key = (int(shard), int(incarnation))
        pid = payload.get("pid")
        dropped = payload.get("dropped")
        metrics = payload.get("metrics")
        spans = payload.get("spans")
        events = payload.get("events")
        with self._lock:
            self._frames += 1
            meta = self._worker_meta.setdefault(
                key, {"pid": None, "dropped": 0.0}
            )
            if isinstance(pid, int):
                meta["pid"] = pid
            if isinstance(dropped, (int, float)) and dropped >= 0:
                # cumulative per incarnation: keep the max seen, frames
                # can arrive out of order around a worker death
                meta["dropped"] = max(float(meta["dropped"]),
                                      float(dropped))
            if isinstance(metrics, dict):
                self._worker_metrics[key] = metrics
            if isinstance(spans, list):
                for tree in spans:
                    if not isinstance(tree, dict):
                        continue
                    if len(self._span_trees) >= self._max_span_trees:
                        self._hub_span_drops += 1
                        continue
                    self._span_trees.append({
                        "shard": key[0],
                        "incarnation": key[1],
                        "pid": meta["pid"],
                        "tree": tree,
                    })
            if isinstance(events, list):
                for event in events:
                    if not isinstance(event, dict):
                        continue
                    if len(self._events) >= self._max_events:
                        self._hub_event_drops += 1
                        continue
                    entry = dict(event)
                    entry.setdefault("shard", key[0])
                    entry.setdefault("incarnation", key[1])
                    self._events.append(entry)

    def record_event(
        self,
        kind: str,
        shard: Optional[int] = None,
        incarnation: Optional[int] = None,
        ts: Optional[float] = None,
        **attrs,
    ) -> None:
        """A supervisor-side lifecycle event (spawn/ready/death/drain)."""
        entry: Dict[str, object] = {"kind": kind, "source": "supervisor"}
        if shard is not None:
            entry["shard"] = int(shard)
        if incarnation is not None:
            entry["incarnation"] = int(incarnation)
        if ts is not None:
            entry["ts"] = float(ts)
        entry.update(attrs)
        with self._lock:
            if len(self._events) >= self._max_events:
                self._hub_event_drops += 1
                return
            self._events.append(entry)

    # -- reading -----------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Frame/drop accounting, for stats snapshots and assertions."""
        with self._lock:
            worker_drops = sum(
                float(meta["dropped"])
                for meta in self._worker_meta.values()
            )
            return {
                "frames": self._frames,
                "workers_seen": len(self._worker_meta),
                "span_trees": len(self._span_trees),
                "events": len(self._events),
                "worker_drops": worker_drops,
                "hub_span_drops": self._hub_span_drops,
                "hub_event_drops": self._hub_event_drops,
                "dropped_total": (
                    worker_drops
                    + self._hub_span_drops + self._hub_event_drops
                ),
            }

    def span_trees(self) -> List[Dict[str, object]]:
        """Every shipped span tree, tagged with shard/incarnation/pid."""
        with self._lock:
            return [dict(entry) for entry in self._span_trees]

    def events(self) -> List[Dict[str, object]]:
        """Every lifecycle event (worker-shipped and supervisor-side)."""
        with self._lock:
            return [dict(entry) for entry in self._events]

    def incarnations(self) -> List[Tuple[int, int]]:
        """Every ``(shard, incarnation)`` that ever shipped telemetry."""
        with self._lock:
            return sorted(self._worker_meta)

    def cluster_registry(self) -> MetricsRegistry:
        """One registry for the whole process tree.

        Supervisor metrics merge verbatim; each worker's latest
        cumulative snapshot merges re-labeled under
        ``proc.s<shard>.g<incarnation>.``; telemetry drop totals land
        in ``proc.telemetry.dropped`` (worker-side buffer overflow) and
        ``proc.telemetry.hub_dropped`` (hub-side bounds), both present
        even when zero.
        """
        base = self._metrics.snapshot() if self._metrics is not None \
            else None
        with self._lock:
            workers = {
                key: snap for key, snap in self._worker_metrics.items()
            }
            worker_drops = sum(
                float(meta["dropped"])
                for meta in self._worker_meta.values()
            )
            hub_drops = self._hub_span_drops + self._hub_event_drops
            frames = self._frames
        reg = MetricsRegistry()
        if base is not None:
            reg.merge(base)
        for (shard, incarnation), snap in sorted(workers.items()):
            reg.merge(_relabel(snap, f"proc.s{shard}.g{incarnation}."))
        reg.counter("proc.telemetry.dropped").inc(worker_drops)
        reg.counter("proc.telemetry.hub_dropped").inc(float(hub_drops))
        reg.counter("proc.telemetry.frames_merged").inc(float(frames))
        return reg


def _relabel(
    snapshot: Dict[str, object], prefix: str
) -> Dict[str, object]:
    """A snapshot with every metric name prefixed (shard/incarnation label)."""
    out: Dict[str, object] = {}
    for section in ("counters", "gauges", "histograms"):
        values = snapshot.get(section)
        if isinstance(values, dict):
            out[section] = {
                f"{prefix}{name}": value for name, value in values.items()
            }
    return out


# -- stitched Chrome trace export ------------------------------------------


def _tree_min_ts(tree: Dict[str, object]) -> float:
    start = float(tree.get("start_ts") or float("inf"))
    for child in tree.get("children") or []:
        if isinstance(child, dict):
            start = min(start, _tree_min_ts(child))
    return start


def to_stitched_chrome_trace(
    root: Optional[Span],
    trees: List[Dict[str, object]],
    supervisor_pid: Optional[int] = None,
    anchor: Optional[float] = None,
) -> Dict[str, object]:
    """One Chrome trace across the whole process tree.

    ``root`` is the supervisor's session span tree (may be ``None`` in
    a headless merge); ``trees`` is :meth:`TelemetryHub.span_trees`.
    Every process gets its own ``pid`` lane with a ``process_name``
    metadata event; timestamps share one epoch-anchored origin, so
    worker build spans visually nest under the supervisor request spans
    that dispatched them.
    """
    if supervisor_pid is None:
        supervisor_pid = os.getpid()
    if anchor is None:
        anchor = epoch_anchor()
    origin = float("inf")
    if root is not None:
        origin = min(origin, anchor + root.start_s)
    for entry in trees:
        tree = entry.get("tree")
        if isinstance(tree, dict):
            origin = min(origin, _tree_min_ts(tree))
    if origin == float("inf"):
        origin = 0.0
    events: List[Dict[str, object]] = [{
        "name": "process_name",
        "ph": "M",
        "ts": 0,
        "pid": supervisor_pid,
        "tid": 0,
        "args": {"name": f"supervisor (pid {supervisor_pid})"},
    }]
    if root is not None:
        wire_to_chrome_events(
            span_to_wire(root, anchor), origin, supervisor_pid, 0, events
        )
    named_pids = {supervisor_pid}
    for entry in trees:
        tree = entry.get("tree")
        if not isinstance(tree, dict):
            continue
        shard = int(entry.get("shard") or 0)
        incarnation = int(entry.get("incarnation") or 0)
        pid = entry.get("pid")
        if not isinstance(pid, int):
            # a worker that died before its pid reached the hub still
            # gets a stable synthetic lane
            pid = 1_000_000 + shard * 1_000 + incarnation
        if pid not in named_pids:
            named_pids.add(pid)
            events.append({
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {
                    "name": (
                        f"worker s{shard} g{incarnation} (pid {pid})"
                    ),
                },
            })
        wire_to_chrome_events(tree, origin, pid, 0, events)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_stitched_chrome_trace(
    path: str,
    root: Optional[Span],
    trees: List[Dict[str, object]],
    supervisor_pid: Optional[int] = None,
    anchor: Optional[float] = None,
) -> None:
    """Write :func:`to_stitched_chrome_trace` to ``path`` atomically."""
    atomic_write_text(
        path,
        json.dumps(
            to_stitched_chrome_trace(
                root, trees, supervisor_pid=supervisor_pid, anchor=anchor
            ),
            indent=1,
        ) + "\n",
    )
