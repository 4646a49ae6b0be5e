"""The traced run: spans around each layer's entry points, from outside.

:class:`Recorder` installs wrappers on the public entry points listed
in :data:`ENTRY_POINTS` (module functions as the calling module looks
them up, and class methods), records one :class:`repro.obs.tracer.Span`
per call in memory, and puts every original back on :meth:`restore`.
Nothing under ``src/`` changes: the program runs its own code, and the
benchmark only observes the calls crossing each layer boundary.

Spans nest per thread.  A span opened while a statement is in flight
hangs under that statement's root span; the root covers exactly the
client-side latency (submit to response), and so does the attribution:
:func:`attribute` sweeps the root's window and gives each instant to
the innermost open span -- the one started last, when spans on two
threads overlap -- or to nobody.  A span's share is its *self time*;
the time nobody claims is ``unattributed``.  The shares always add up
to the latency, which the benchmark checks on every traced statement.

Layers that run inside proc workers cannot be wrapped from here.  For
them the traced run uses what the program ships: each RESPONSE frame's
``elapsed_ms`` / ``phases_ms`` (the fields the supervisor copies into
its worklog records), read off the wrapped ``decode_frame``, and the
tickets' work counters.  A RESPONSE becomes a synthetic
``proc.worker`` span ending where its decode began.
"""

from __future__ import annotations

import functools
import importlib
import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from names import PER_LAYER
from repro.obs.tracer import Span
from workloads import MUTATING

__all__ = [
    "ENTRY_POINTS", "LAYER_OF", "Recorder", "StatementTrace", "attribute",
]

ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str, str, str], ...] = (
    # (module, class or None, attribute, span name, layer)
    ("repro.core.explorer", None, "parse", "query.parse", "query"),
    ("repro.serve.executor", None, "parse", "query.parse", "query"),
    ("repro.serve.proc.supervisor", None, "parse", "query.parse", "query"),
    ("repro.core.explorer", "DBExplorer", "analyze", "query.analyze",
     "query"),
    ("repro.query.engine", "QueryEngine", "select", "query.select", "query"),
    ("repro.query.engine", "QueryEngine", "order_by", "query.order_by",
     "query"),
    ("repro.discretize.discretizer", "Discretizer", "fit", "discretize.fit",
     "discretize"),
    ("repro.core.builder", None, "select_compare_attributes",
     "features.select", "features"),
    ("repro.core.builder", None, "one_hot_encode", "clustering.encode",
     "clustering"),
    ("repro.clustering.kmeans", "KMeans", "fit", "clustering.fit",
     "clustering"),
    ("repro.core.builder", None, "build_iunits", "iunits.label", "iunits"),
    ("repro.core.builder", None, "diversified_topk", "iunits.diversify",
     "iunits"),
    ("repro.core.cadview", "CADView", "similar_iunits", "iunits.similar",
     "iunits"),
    ("repro.core.cadview", "CADView", "reorder_by_similarity",
     "iunits.reorder", "iunits"),
    ("repro.core.builder", "CADViewBuilder", "build", "core.build", "core"),
    ("repro.core.explorer", "DBExplorer", "execute", "core.execute", "core"),
    ("repro.dataset.generators", None, "generate_usedcars",
     "dataset.generate", "dataset"),
    ("repro.serve.executor", "SessionExecutor", "submit", "executor.submit",
     "serve.executor"),
    ("repro.serve.proc.supervisor", "ProcSupervisor", "__init__",
     "proc.start", "serve.proc"),
    ("repro.serve.proc.supervisor", "ProcSupervisor", "wait_ready",
     "proc.wait_ready", "serve.proc"),
    ("repro.serve.proc.supervisor", "ProcSupervisor", "submit",
     "proc.submit", "serve.proc"),
    ("repro.serve.proc.protocol", None, "encode_frame", "proc.encode_frame",
     "serve.proc"),
    ("repro.serve.proc.protocol", None, "decode_frame", "proc.decode_frame",
     "serve.proc"),
    ("repro.obs.hub", "TelemetryHub", "ingest", "obs.telemetry_ingest",
     "obs"),
    ("repro.serve.durability.wal", "WalWriter", "commit", "wal.commit",
     "serve.durability"),
)

WORKER_SPAN = "proc.worker"
WORKER_LAYER = "serve.proc.worker"

LAYER_OF: Dict[str, str] = {name: layer for *_, name, layer in ENTRY_POINTS}
LAYER_OF[WORKER_SPAN] = WORKER_LAYER

# spans kept when no statement is in flight (set-up timings)
SETUP_SPANS = frozenset({"dataset.generate", "proc.start", "proc.wait_ready"})


@dataclass
class StatementTrace:
    """The attributed trace of one statement (times in ms)."""

    latency_ms: float
    unattributed_ms: float
    self_ms: Dict[str, float]
    calls: Dict[str, int]
    execute_ms: float = 0.0          # full core.execute span time
    worker_ms: Optional[float] = None  # primary RESPONSE elapsed_ms
    phases_ms: Optional[Dict[str, float]] = None
    candidates: int = 0              # IUnits build_iunits returned

    def layer_ms(self) -> Dict[str, float]:
        """Self time per layer."""
        out: Dict[str, float] = defaultdict(float)
        for name, ms in self.self_ms.items():
            out[LAYER_OF[name]] += ms
        return dict(out)


def attribute(root: Span) -> Tuple[Dict[Span, float], float]:
    """``({span: self seconds}, unattributed seconds)`` over ``root``.

    Every instant of the root's window goes to the innermost open
    descendant (latest start; deeper on ties) or, if none is open, to
    "unattributed".  For spans nested on one thread this is exactly
    :attr:`Span.self_time_s`; overlapping spans from other threads are
    never counted twice, so the parts sum to the root's duration.
    """
    lo, hi = root.start_s, root.end_s
    depth: Dict[Span, int] = {}
    events: List[Tuple[float, int, Span]] = []

    def visit(span: Span, d: int) -> None:
        for child in list(span.children):
            start = max(child.start_s, lo)
            end = min(child.end_s if child.end_s is not None else hi, hi)
            if end > start:
                depth[child] = d
                events.append((start, 1, child))
                events.append((end, 0, child))
            visit(child, d + 1)

    visit(root, 1)
    events.sort(key=lambda e: (e[0], e[1]))
    shares: Dict[Span, float] = defaultdict(float)
    active: List[Span] = []
    unattributed = 0.0
    t = lo
    for when, opening, span in events:
        if when > t:
            if active:
                top = max(active, key=lambda s: (s.start_s, depth[s]))
                shares[top] += when - t
            else:
                unattributed += when - t
            t = when
        if opening:
            active.append(span)
        else:
            active.remove(span)
    unattributed += hi - t
    return dict(shares), unattributed


class Recorder:
    """Wrap the layers' entry points and record spans per statement."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._installed: List[Tuple[object, str, object]] = []
        self._originals: Dict[Tuple[str, Optional[str], str], object] = {}
        self.root: Optional[Span] = None
        self.setup: List[Span] = []
        self._responses: List[Dict[str, object]] = []
        self._candidates = 0

    # -- installing ---------------------------------------------------------

    @staticmethod
    def _owner(module: str, cls: Optional[str]) -> object:
        mod = importlib.import_module(module)
        return getattr(mod, cls) if cls else mod

    def install(self) -> None:
        """Wrap every entry point (idempotent)."""
        if self._installed:
            return
        for module, cls, attr, name, _layer in ENTRY_POINTS:
            owner = self._owner(module, cls)
            original = vars(owner)[attr]
            if isinstance(original, (staticmethod, classmethod)):
                wrapped = type(original)(self._wrap(original.__func__, name))
            elif callable(original):
                wrapped = self._wrap(original, name)
            else:
                raise TypeError(f"{module}.{cls or ''}.{attr} is not callable")
            self._originals[(module, cls, attr)] = original
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original back."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every entry point is the original object again."""
        return all(
            vars(self._owner(module, cls))[attr] is original
            for (module, cls, attr), original in self._originals.items()
        )

    def _wrap(self, fn: Callable, name: str) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                recorder._close(span, exc)
                raise
            recorder._close(span, None)
            if name == "proc.decode_frame":
                recorder._on_frame(span, result)
            elif name == "iunits.label":
                recorder._candidates += len(result)
            return result

        return wrapper

    # -- recording ----------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        root = self.root
        span = Span(name, statement=(
            root.attrs.get("statement") if root is not None else None
        ))
        if stack:
            stack[-1].children.append(span)
        elif root is not None:
            root.children.append(span)
        elif name in SETUP_SPANS:
            self.setup.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span, error: Optional[BaseException]) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        span.close(error)

    def _on_frame(self, decode: Span, frame) -> None:
        from repro.serve.proc.protocol import FRAME_RESPONSE

        kind, payload = frame
        root = self.root
        if kind != FRAME_RESPONSE or root is None:
            return
        elapsed_s = float(payload.get("elapsed_ms") or 0.0) / 1e3
        worker = Span(WORKER_SPAN, statement=root.attrs.get("statement"),
                      request=payload.get("id"))
        worker.start_s = max(root.start_s, decode.start_s - elapsed_s)
        worker.end_s = decode.start_s
        root.children.append(worker)
        self._responses.append(payload)

    # -- statements ---------------------------------------------------------

    def begin(self, statement: str) -> None:
        """Open the root span of the next statement."""
        self._responses = []
        self._candidates = 0
        self.root = Span("statement", statement=statement)

    def end(self, t0: float, t1: float) -> StatementTrace:
        """Close the root on the client's own clock readings; attribute."""
        root, self.root = self.root, None
        root.start_s, root.end_s = t0, t1
        shares, unattributed = attribute(root)
        self_ms: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        execute_ms = 0.0
        for span in root.walk():
            if span is root:
                continue
            calls[span.name] += 1
            if span.name == "core.execute":
                execute_ms += span.duration_s * 1e3
        for span, seconds in shares.items():
            self_ms[span.name] += seconds * 1e3
        primary = next(
            (r for r in self._responses
             if str(r.get("id", "")).endswith(".0")),
            None,
        )
        phases = primary.get("phases_ms") if primary is not None else None
        return StatementTrace(
            latency_ms=(t1 - t0) * 1e3,
            unattributed_ms=unattributed * 1e3,
            self_ms=dict(self_ms),
            calls=dict(calls),
            execute_ms=execute_ms,
            worker_ms=(
                float(primary.get("elapsed_ms") or 0.0)
                if primary is not None else None
            ),
            phases_ms=dict(phases) if isinstance(phases, dict) else None,
            candidates=self._candidates,
        )

    def setup_seconds(self, name: str) -> float:
        """Total duration of the set-up spans called ``name``."""
        return sum(s.duration_s for s in self.setup if s.name == name)




# the span names whose self time each "<layer>_ms" metric sums, and the
# statements it is averaged over ("all", a class, or "mutating")
_SELF_TIME = {
    "query.parse_ms": (("query.parse",), "all"),
    "query.analyze_ms": (("query.analyze",), "all"),
    "query.select_ms": (("query.select", "query.order_by"), "all"),
    "discretize.fit_ms": (("discretize.fit",), "build"),
    "features.select_ms": (("features.select",), "build"),
    "clustering.encode_ms": (("clustering.encode",), "build"),
    "clustering.fit_ms": (("clustering.fit",), "build"),
    "iunits.label_ms": (("iunits.label",), "build"),
    "iunits.diversify_ms": (("iunits.diversify",), "build"),
    "iunits.similarity_ms": (("iunits.similar", "iunits.reorder"), "search"),
    "core.build_self_ms": (("core.build",), "build"),
    "core.execute_self_ms": (("core.execute",), "all"),
    "executor.submit_ms": (("executor.submit",), "all"),
    "proc.frame_codec_ms": (
        ("proc.encode_frame", "proc.decode_frame"), "all",
    ),
    "obs.telemetry_ingest_ms": (("obs.telemetry_ingest",), "all"),
    "proc.worker_elapsed_ms": ((WORKER_SPAN,), "all"),
    "wal.commit_ms": (("wal.commit",), "mutating"),
}
_CALLS = {
    "query.parse_calls": ("query.parse", "all"),
    "discretize.fit_calls": ("discretize.fit", "build"),
}
_WORK = {
    "work.query.rows_scanned": "all",
    "work.query.predicate_evals": "all",
    "work.features.contingency_cells": "build",
    "work.features.chi2_cells": "build",
    "work.cluster.distance_evals": "build",
    "work.cluster.iterations": "build",
    "work.cluster.reseeds": "build",
    "work.diversify.astar_expanded": "build",
    "work.diversify.similarity_pairs": "build+search",
}


def _select(records: List[dict], scope: str) -> List[dict]:
    if scope == "all":
        return records
    if scope == "mutating":
        return [r for r in records if r["kind"] in MUTATING]
    classes = scope.split("+")
    return [r for r in records if r["cls"] in classes]


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer_metrics(records: List[dict], context: Dict) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run.

    ``records`` are the traced statements (kind, cls, trace, work,
    phases, shown, pivots); ``context`` carries what is measured
    outside them (set-up spans, the untraced twin run's latencies, CPU
    per wall second of the untraced sessions, serving counters).  A
    metric of a layer the workload never enters reads 0.
    """
    out: Dict[str, float] = {}
    for name, (spans, scope) in _SELF_TIME.items():
        chosen = _select(records, scope)
        out[name] = _mean([
            sum(r["trace"].self_ms.get(s, 0.0) for s in spans)
            for r in chosen
        ])
    for name, (span, scope) in _CALLS.items():
        out[name] = _mean([
            float(r["trace"].calls.get(span, 0))
            for r in _select(records, scope)
        ])
    for name, scope in _WORK.items():
        out[name] = _mean([
            float(r["work"].get(name, 0)) for r in _select(records, scope)
        ])
    builds = _select(records, "build")
    fits = sum(
        r["trace"].calls.get("clustering.fit", 0) or r["pivots"]
        for r in builds
    )
    iterations = sum(r["work"].get("work.cluster.iterations", 0)
                     for r in builds)
    out["clustering.iterations_per_fit"] = iterations / fits if fits else 0.0
    candidates = sum(r["trace"].candidates for r in builds)
    shown = sum(r["shown"] or 0 for r in builds)
    out["iunits.shown_per_candidate"] = (
        shown / candidates if candidates else 0.0
    )
    for phase in ("compare_attrs", "iunits", "others"):
        out[f"phase.{phase}_ms"] = _mean([
            float((r["phases"] or {}).get(phase, 0.0)) for r in builds
        ])
    out["dataset.generate_s"] = context["generate_s"]
    out["proc.ready_s"] = context["ready_s"]
    executed = [r for r in records if r["trace"].execute_ms > 0]
    out["executor.handoff_ms"] = _mean([
        r["trace"].latency_ms - r["trace"].execute_ms for r in executed
    ]) if context["executor"] else 0.0
    remote = [r for r in records if r["trace"].worker_ms is not None]
    out["proc.roundtrip_overhead_ms"] = _mean([
        r["trace"].latency_ms - r["trace"].worker_ms for r in remote
    ])
    for name, value in context["counters"].items():
        out[name] = float(value)
    traced = context["traced_counters"]
    out["wal.fsyncs"] = traced.get("wal.fsyncs", 0.0)
    out["wal.snapshots"] = traced.get("wal.snapshots", 0.0)
    out["wal.acks_per_fsync"] = (
        traced.get("wal.batched_acks", 0.0) / out["wal.fsyncs"]
        if out["wal.fsyncs"] else 0.0
    )
    out["process.cpu_per_wall"] = context["cpu_per_wall"]
    out["unattributed_ms"] = _mean(
        [r["trace"].unattributed_ms for r in records]
    )
    base = _mean(context["untraced_latency_ms"])
    traced_mean = _mean([r["trace"].latency_ms for r in records])
    out["obs.trace_overhead_pct"] = (
        (traced_mean / base - 1.0) * 100.0 if base else 0.0
    )
    missing = [name for name, _, _ in PER_LAYER if name not in out]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {name: out[name] for name, _, _ in PER_LAYER}


def layer_table(records: List[dict]) -> Dict[str, Dict[str, float]]:
    """Mean self ms per statement, by layer and latency class.

    Each column adds up (layers + ``unattributed``) to the class's
    mean ``latency``.
    """
    table: Dict[str, Dict[str, float]] = defaultdict(dict)
    for cls in ("build", "search", "query"):
        chosen = [r for r in records if r["cls"] == cls]
        if not chosen:
            continue
        sums: Dict[str, float] = defaultdict(float)
        for r in chosen:
            for layer, ms in r["trace"].layer_ms().items():
                sums[layer] += ms
            sums["unattributed"] += r["trace"].unattributed_ms
            sums["latency"] += r["trace"].latency_ms
        for layer, total in sums.items():
            table[layer][cls] = total / len(chosen)
    return {layer: dict(v) for layer, v in sorted(table.items())}
