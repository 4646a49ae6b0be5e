"""Hierarchical span tracing for the CAD View build pipeline.

A :class:`Tracer` produces a tree of timed :class:`Span` objects — one
per pipeline phase, pivot value, clustering fit, or top-k search — each
carrying free-form attributes, per-span counters, and annotation
:class:`SpanEvent` records (degradations, incidents, retries from the
robustness layer).  The paper's Figure 8–10 accounting falls out of the
same tree: a span opened with a ``bucket`` and a ``profile`` feeds its
wall-clock duration into the legacy
:class:`~repro.core.profile.BuildProfile` bucket on close, so the trace
totals and the three-bucket profile reconcile exactly by construction.

Usage::

    tracer = Tracer("cadview.build", pivot="Make")
    with tracer.span("compare_attrs", bucket="compare_attrs",
                     profile=profile):
        tracer.inc("candidates_scored")
        ...
    tracer.finish()
    print(render_trace(tracer.root))

Spans nest per-thread (the stack is ``threading.local``), so a tracer
shared across worker threads keeps each thread's spans properly nested
under the shared root.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Span", "SpanEvent", "Tracer", "NullTracer", "NULL_TRACER",
    "epoch_anchor", "span_to_wire", "set_span_listener",
]

# The profiler's hook into span open/close.  ``None`` (the default)
# costs one global read + an ``is None`` check per span — effectively
# zero overhead when profiling is off.  A listener is an object with
# ``span_opened(span)`` / ``span_closed(span)`` methods, called on the
# span's own thread, so a sampling profiler can attribute stack samples
# to whichever span each thread currently has open.
_SPAN_LISTENER = None


def set_span_listener(listener):
    """Install (or with ``None`` remove) the global span listener.

    Returns the previously installed listener so callers can restore
    it — the profiler does so on stop.
    """
    global _SPAN_LISTENER
    previous = _SPAN_LISTENER
    _SPAN_LISTENER = listener
    return previous


def epoch_anchor() -> float:
    """The offset mapping ``perf_counter`` values onto the epoch clock.

    ``Span.start_s`` is a ``perf_counter`` reading, whose origin is
    arbitrary *per process* — two processes' span timestamps cannot be
    compared directly.  ``anchor + perf_counter_value`` is an epoch
    timestamp, and ``time.time`` *is* shared across processes on one
    machine, so spans serialized with :func:`span_to_wire` from
    different processes stitch onto one timeline.
    """
    return time.time() - time.perf_counter()


@dataclass(frozen=True)
class SpanEvent:
    """A point-in-time annotation attached to a span.

    ``kind`` names the event family (``degradation`` / ``incident`` /
    ``retry`` / ``note``); ``message`` is the human-readable detail.
    """

    kind: str
    message: str
    t_s: float  # perf_counter timestamp, same clock as Span.start_s

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


class Span:
    """One timed node in the trace tree."""

    __slots__ = (
        "name", "attrs", "counters", "events", "children",
        "start_s", "end_s", "status", "error", "bucket", "__weakref__",
    )

    def __init__(self, name: str, bucket: Optional[str] = None, **attrs):
        self.name = name
        self.bucket = bucket
        self.attrs: Dict[str, object] = dict(attrs)
        self.counters: Dict[str, float] = {}
        self.events: List[SpanEvent] = []
        self.children: List["Span"] = []
        self.start_s = time.perf_counter()
        self.end_s: Optional[float] = None
        self.status = "ok"
        self.error: Optional[str] = None

    # -- recording --------------------------------------------------------

    def inc(self, counter: str, n: float = 1) -> None:
        """Accumulate ``n`` into a per-span counter."""
        self.counters[counter] = self.counters.get(counter, 0.0) + n

    def set_attr(self, name: str, value: object) -> None:
        """Set (or overwrite) one span attribute."""
        self.attrs[name] = value

    def add_event(self, kind: str, message: str) -> None:
        """Attach a point-in-time annotation to this span."""
        self.events.append(SpanEvent(kind, message, time.perf_counter()))

    def close(self, error: Optional[BaseException] = None) -> None:
        """End the span; a non-``None`` error marks it failed."""
        if self.end_s is None:
            self.end_s = time.perf_counter()
        if error is not None:
            self.status = "error"
            self.error = f"{type(error).__name__}: {error}"

    # -- reading ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        """Wall-clock span length (up to *now* while still open)."""
        end = self.end_s if self.end_s is not None else time.perf_counter()
        return end - self.start_s

    @property
    def self_time_s(self) -> float:
        """Duration not covered by direct children (clamped at 0).

        Children opened on different threads can overlap in wall time;
        subtracting the *union* of their intervals (not the sum of
        their durations) keeps exclusive time from being double-
        subtracted when two children cover the same instant.
        """
        now = time.perf_counter()
        intervals = sorted(
            (c.start_s, c.end_s if c.end_s is not None else now)
            for c in self.children
        )
        covered = 0.0
        cur_start: Optional[float] = None
        cur_end = 0.0
        for start, end in intervals:
            if cur_start is None or start > cur_end:
                if cur_start is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            elif end > cur_end:
                cur_end = end
        if cur_start is not None:
            covered += cur_end - cur_start
        return max(0.0, self.duration_s - covered)

    def walk(self) -> Iterator["Span"]:
        """This span, then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """Every span in this subtree named ``name``."""
        return [s for s in self.walk() if s.name == name]

    def total_counter(self, counter: str) -> float:
        """Sum of one counter over the whole subtree."""
        return sum(s.counters.get(counter, 0.0) for s in self.walk())

    def bucket_total(self, bucket: str) -> float:
        """Total duration of subtree spans tagged with ``bucket``.

        Only outermost tagged spans count (a tagged span's time is
        wholly attributed to its own bucket, children included),
        mirroring how the legacy profile buckets were accumulated at
        phase boundaries.
        """
        if self.bucket == bucket:
            return self.duration_s
        if self.bucket is not None:
            return 0.0
        return sum(c.bucket_total(bucket) for c in self.children)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly recursive dump of this subtree."""
        return {
            "name": self.name,
            "bucket": self.bucket,
            "status": self.status,
            "error": self.error,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
            "counters": dict(self.counters),
            "events": [
                {"kind": e.kind, "message": e.message} for e in self.events
            ],
            "children": [c.as_dict() for c in self.children],
        }

    def __repr__(self) -> str:
        state = "open" if not self.closed else self.status
        return (
            f"Span({self.name!r}, {self.duration_s * 1e3:.1f}ms, {state}, "
            f"{len(self.children)} child(ren))"
        )


def span_to_wire(span: Span, anchor: Optional[float] = None) -> Dict[str, object]:
    """One span subtree as a JSON-able dict with *epoch* timestamps.

    This is the cross-process serialization the telemetry plane ships:
    unlike :meth:`Span.as_dict` (durations only), the wire form carries
    absolute ``start_ts``/``end_ts`` seconds-since-epoch, so a
    supervisor can stitch worker spans onto its own timeline.  Attr
    values are stringified unless already JSON-scalar, matching the
    frame codec's ``default=str`` behavior.
    """
    if anchor is None:
        anchor = epoch_anchor()
    end = span.end_s if span.end_s is not None else (
        span.start_s + span.duration_s
    )
    return {
        "name": span.name,
        "bucket": span.bucket,
        "status": span.status,
        "error": span.error,
        "start_ts": anchor + span.start_s,
        "end_ts": anchor + end,
        "attrs": {
            str(k): (v if isinstance(v, (int, float, str, bool, type(None)))
                     else str(v))
            for k, v in span.attrs.items()
        },
        "counters": dict(span.counters),
        "events": [
            {"kind": e.kind, "message": e.message, "ts": anchor + e.t_s}
            for e in span.events
        ],
        "children": [span_to_wire(c, anchor) for c in span.children],
    }


class Tracer:
    """Builds one span tree; the context-manager entry point.

    The tracer opens an implicit *root* span at construction so that
    top-level phases always have a parent; call :meth:`finish` to close
    it (exporters tolerate a still-open root).  The span stack is
    per-thread; the root is shared.
    """

    def __init__(self, name: str = "trace", **attrs):
        self.root = Span(name, **attrs)
        self._local = threading.local()

    # -- stack ------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @property
    def current(self) -> Span:
        """The innermost open span on this thread (the root if none)."""
        stack = self._stack()
        return stack[-1] if stack else self.root

    # -- recording --------------------------------------------------------

    @contextmanager
    def span(
        self,
        name: str,
        bucket: Optional[str] = None,
        profile=None,
        **attrs,
    ) -> Iterator[Span]:
        """Open a child span of the current span for the with-block.

        ``bucket`` tags the span with one of the paper's Figure-8
        buckets (``compare_attrs`` / ``iunits`` / ``others``); when a
        ``profile`` (:class:`~repro.core.profile.BuildProfile`) is also
        given, the span's duration is recorded into that bucket on
        close — including when the block raises.  This is the one phase
        timer the builder uses.
        """
        parent = self.current
        child = Span(name, bucket=bucket, **attrs)
        parent.children.append(child)
        stack = self._stack()
        stack.append(child)
        listener = _SPAN_LISTENER
        if listener is not None:
            listener.span_opened(child)
        error: Optional[BaseException] = None
        try:
            yield child
        except BaseException as exc:
            error = exc
            raise
        finally:
            stack.pop()
            child.close(error)
            # re-read: the profiler may have stopped mid-span, and the
            # close must go to whichever listener saw the open (a fresh
            # listener tolerates unmatched closes)
            listener = _SPAN_LISTENER
            if listener is not None:
                listener.span_closed(child)
            if profile is not None and bucket is not None:
                profile.record(bucket, child.duration_s)

    def inc(self, counter: str, n: float = 1) -> None:
        """Increment a counter on the current span."""
        self.current.inc(counter, n)

    def annotate(self, kind: str, message: str) -> None:
        """Attach an event to the current span."""
        self.current.add_event(kind, message)

    def finish(self) -> Span:
        """Close the root span (idempotent) and return it."""
        self.root.close()
        return self.root


class _NullSpan(Span):
    """A shared, inert span: all recording is a no-op."""

    def inc(self, counter: str, n: float = 1) -> None:
        pass

    def set_attr(self, name: str, value: object) -> None:
        pass

    def add_event(self, kind: str, message: str) -> None:
        pass


class NullTracer(Tracer):
    """A tracer that records nothing — the default for un-traced calls.

    Call sites write ``tracer = tracer or NULL_TRACER`` and then trace
    unconditionally; the null instance never accumulates state, so it is
    safe to share process-wide.
    """

    def __init__(self):
        super().__init__("null")
        self._null = _NullSpan("null")

    @contextmanager
    def span(self, name, bucket=None, profile=None, **attrs):
        # keep the profile-feeding contract: the buckets must fill even
        # when nobody asked for a trace
        if profile is not None and bucket is not None:
            start = time.perf_counter()
            try:
                yield self._null
            finally:
                profile.record(bucket, time.perf_counter() - start)
        else:
            yield self._null

    @property
    def current(self) -> Span:
        """Always the shared inert span."""
        return self._null

    def inc(self, counter: str, n: float = 1) -> None:
        pass

    def annotate(self, kind: str, message: str) -> None:
        pass


NULL_TRACER = NullTracer()
