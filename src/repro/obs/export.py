"""Trace and metrics exporters.

Three consumers of the same :class:`~repro.obs.tracer.Span` tree:

* :func:`to_chrome_trace` / :func:`write_chrome_trace` — Chrome
  trace-event JSON (the ``traceEvents`` array format), loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev, flattened from the
  tree's wire form by :func:`wire_to_chrome_events`, as the stitched
  ``--procs`` trace is;
* :func:`render_trace` — the plain-text tree printed by
  ``EXPLAIN ANALYZE`` (times, rows, counters, and robustness events
  inline);
* :func:`write_metrics` — a :class:`~repro.obs.metrics.MetricsRegistry`
  snapshot as JSON.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.atomic import atomic_write_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, span_to_wire

__all__ = [
    "wire_to_chrome_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "render_trace",
    "write_metrics",
]


def wire_to_chrome_events(
    tree: Dict[str, object],
    origin: float,
    pid: int,
    tid: int,
    out: List[Dict[str, object]],
) -> None:
    """Flatten one wire-form span tree into Chrome trace events.

    ``tree`` is :func:`~repro.obs.tracer.span_to_wire` output; events
    land in ``out`` with timestamps in microseconds from ``origin`` (on
    the tree's own clock).  The one flattener of both exporters:
    :func:`to_chrome_trace` and the stitched ``--procs`` trace
    (:func:`~repro.obs.hub.to_stitched_chrome_trace`).
    """
    start = float(tree.get("start_ts") or origin)
    end = float(tree.get("end_ts") or start)
    args: Dict[str, object] = {}
    bucket = tree.get("bucket")
    if bucket:
        args["bucket"] = bucket
    attrs = tree.get("attrs")
    if isinstance(attrs, dict):
        args.update(attrs)
    counters = tree.get("counters")
    if isinstance(counters, dict):
        args.update(counters)
    if tree.get("error"):
        args["error"] = tree["error"]
    out.append({
        "name": str(tree.get("name") or "span"),
        "cat": str(bucket or "span"),
        "ph": "X",
        "ts": round(max(0.0, start - origin) * 1e6, 3),
        "dur": round(max(0.0, end - start) * 1e6, 3),
        "pid": pid,
        "tid": tid,
        "args": args,
    })
    for event in tree.get("events") or []:
        if not isinstance(event, dict):
            continue
        out.append({
            "name": f"{event.get('kind')}: {event.get('message')}",
            "cat": str(event.get("kind") or "note"),
            "ph": "i",
            "ts": round(
                max(0.0, float(event.get("ts") or start) - origin) * 1e6, 3
            ),
            "pid": pid,
            "tid": tid,
            "s": "t",  # thread-scoped instant
        })
    for child in tree.get("children") or []:
        if isinstance(child, dict):
            wire_to_chrome_events(child, origin, pid, tid, out)


def to_chrome_trace(root: Span) -> Dict[str, object]:
    """The span tree as a Chrome trace-event JSON object.

    Spans become complete (``"ph": "X"``) events; span events become
    instant (``"ph": "i"``) events, all on pid 1, tid 1.  Timestamps
    are microseconds relative to the root's start, so traces from
    different runs line up at zero when loaded side by side.  A span
    still open is drawn up to now.
    """
    events: List[Dict[str, object]] = []
    wire_to_chrome_events(
        span_to_wire(root, anchor=0.0), root.start_s, 1, 1, events
    )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(root: Span, path: str) -> None:
    """Write :func:`to_chrome_trace` output to ``path`` atomically.

    Trace exports happen at the end of runs that may be dying (the
    crash path flushes observability artifacts); the atomic write
    guarantees a half-exported trace never shadows a good one.
    """
    atomic_write_text(
        path, json.dumps(to_chrome_trace(root), indent=1) + "\n"
    )


def _fmt_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _span_line(span: Span, show_times: bool) -> str:
    parts = [span.name]
    if span.bucket:
        parts.append(f"[{span.bucket}]")
    if show_times:
        parts.append(f"{span.duration_s * 1e3:.1f}ms")
    parts.extend(
        f"{k}={_fmt_value(v)}" for k, v in sorted(span.attrs.items())
    )
    parts.extend(
        f"{k}={_fmt_value(v)}" for k, v in sorted(span.counters.items())
    )
    if span.status != "ok":
        parts.append(f"!{span.status}" + (
            f" ({span.error})" if span.error else ""
        ))
    return "  ".join(parts)


def render_trace(
    root: Span,
    show_times: bool = True,
    max_depth: Optional[int] = None,
) -> str:
    """The span tree as indented text (the ``EXPLAIN ANALYZE`` body).

    ``show_times=False`` drops every duration, leaving only the
    structure, attributes, counters and events — byte-stable across
    runs of the same seeded build, which is what the stability tests
    compare.
    """
    lines: List[str] = []

    def emit(span: Span, label: str, body: str, depth: int) -> None:
        lines.append(label + _span_line(span, show_times))
        items: List[object] = list(span.events) + list(span.children)
        if max_depth is not None and depth >= max_depth:
            items = list(span.events)
        for idx, item in enumerate(items):
            last = idx == len(items) - 1
            connector = "`- " if last else "|- "
            extend = "   " if last else "|  "
            if isinstance(item, Span):
                emit(item, body + connector, body + extend, depth + 1)
            else:
                lines.append(body + connector + f"! {item}")

    emit(root, "", "", 0)
    return "\n".join(lines)


def write_metrics(reg: MetricsRegistry, path: str) -> None:
    """Write a registry snapshot to ``path`` as JSON, atomically."""
    atomic_write_text(
        path,
        json.dumps(reg.snapshot(), indent=1, sort_keys=True) + "\n",
    )
