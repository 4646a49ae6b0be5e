"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is a thread-safe, get-or-create namespace of
named metrics.  The module-level default registry (:func:`registry`)
is what the pipeline's hot paths increment — query-engine row counts,
build latencies, facet digests — and what the CLI's ``--metrics=<file>``
flag snapshots to JSON at exit.

Histograms use fixed upper-bound buckets (Prometheus-style cumulative
is deliberately *not* used; each bucket holds the count of observations
that fell into ``(prev_bound, bound]``, plus one overflow bucket), so
two snapshots merge by plain element-wise addition — see
:meth:`MetricsRegistry.merge`, which aggregates per-worker or per-run
snapshots into one.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS_S",
    "registry",
    "set_registry",
    "hist_quantile",
    "hist_mean",
]

# Default latency buckets (seconds): 1ms .. 10s in roughly 1-2-5 steps,
# bracketing the paper's sub-second interactivity target from both sides.
LATENCY_BUCKETS_S = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
    0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing float counter."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, n: float = 1) -> None:
        """Add ``n`` (>= 0) to the counter."""
        if n < 0:
            raise ValueError(f"counters only go up, got {n}")
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        """The current value."""
        return self._value


class Gauge:
    """A value that can move both ways (e.g. registered tables)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        with self._lock:
            self._value = float(value)

    def add(self, n: float = 1) -> None:
        """Move the gauge by ``n`` (either direction)."""
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        """The current value."""
        return self._value


class Histogram:
    """Fixed-bucket histogram with sum/count, non-cumulative counts.

    ``counts[i]`` is the number of observations ``<= bounds[i]`` (and
    greater than the previous bound); ``counts[-1]`` is the overflow
    bucket for observations above the largest bound.
    """

    __slots__ = ("bounds", "counts", "total", "count", "_lock")

    def __init__(self, bounds: Sequence[float] = LATENCY_BUCKETS_S) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError(
                f"bucket bounds must be strictly increasing, got {bounds}"
            )
        self.bounds = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation into its bucket."""
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[idx] += 1
            self.total += value
            self.count += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of every observation (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the q-th bucket."""
        dump = {
            "bounds": self.bounds, "counts": self.counts, "count": self.count,
        }
        return hist_quantile(dump, q)


def hist_quantile(dump: Dict[str, object], q: float) -> float:
    """Approximate quantile from a *snapshot* histogram dump.

    The upper bound of the bucket holding the q-th observation, over
    the ``{"bounds", "counts", "count", ...}`` dict a
    :meth:`MetricsRegistry.snapshot` produces — so SLO evaluation and
    ``repro stats`` can work from a JSON file without reconstructing
    live metric objects.  :meth:`Histogram.quantile` walks its live
    buckets through here too.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    count = int(dump.get("count") or 0)
    if count == 0:
        return 0.0
    bounds = [float(b) for b in dump.get("bounds") or ()]
    target = q * count
    seen = 0
    for idx, c in enumerate(dump.get("counts") or ()):
        seen += int(c)
        if seen >= target:
            return bounds[idx] if idx < len(bounds) else float("inf")
    return float("inf")


def hist_mean(dump: Dict[str, object]) -> float:
    """Arithmetic mean from a snapshot histogram dump (0 when empty)."""
    count = int(dump.get("count") or 0)
    return float(dump.get("sum") or 0.0) / count if count else 0.0


class MetricsRegistry:
    """Thread-safe get-or-create registry of named metrics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create -----------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get (or lazily create) the named counter."""
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter()
            return metric

    def gauge(self, name: str) -> Gauge:
        """Get (or lazily create) the named gauge."""
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge()
            return metric

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        """Get (or lazily create) the named histogram."""
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(
                    bounds if bounds is not None else LATENCY_BUCKETS_S
                )
            return metric

    # -- snapshot / merge --------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A JSON-friendly point-in-time dump of every metric."""
        with self._lock:
            return {
                "counters": {
                    name: c.value for name, c in sorted(
                        self._counters.items()
                    )
                },
                "gauges": {
                    name: g.value for name, g in sorted(self._gauges.items())
                },
                "histograms": {
                    name: {
                        "bounds": list(h.bounds),
                        "counts": list(h.counts),
                        "sum": h.total,
                        "count": h.count,
                    }
                    for name, h in sorted(self._histograms.items())
                },
            }

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Fold a :meth:`snapshot` from another registry/run into this one.

        Counters and histogram buckets add; gauges take the incoming
        value (last-writer-wins, the usual gauge aggregation).
        Histograms with mismatched bucket bounds are rejected.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(float(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(float(value))
        for name, dump in snapshot.get("histograms", {}).items():
            hist = self.histogram(name, dump["bounds"])
            if list(hist.bounds) != [float(b) for b in dump["bounds"]]:
                raise ValueError(
                    f"histogram {name!r}: bucket bounds differ, "
                    f"cannot merge"
                )
            with hist._lock:
                for idx, c in enumerate(dump["counts"]):
                    hist.counts[idx] += int(c)
                hist.total += float(dump["sum"])
                hist.count += int(dump["count"])

    def clear(self) -> None:
        """Forget every metric (tests and per-run CLI isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def set_registry(reg: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry (tests); returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = reg
    return previous
