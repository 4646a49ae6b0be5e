"""Deterministic work counters: a machine-independent cost model.

Wall-clock benchmarks need slack (`benchmarks/regress.py` allows 1.75x)
because CI hardware is noisy; algorithmic regressions hide inside that
slack.  Work counters close the gap: every hot kernel reports *how much
work it did* — rows scanned, predicate evaluations, contingency cells,
distance evaluations, A* expansions, similarity pairs — in units that
depend only on the data and the seed, never on the machine.  The same
statement over the same table produces byte-identical counts whether it
runs sequentially, on eight threads, or in a worker subprocess, so the
regression gate compares them with **exact equality** (no slack).

The canonical taxonomy (every counter name starts with ``work.``):

=================================  =====================================
counter                            one unit of work
=================================  =====================================
``work.query.rows_scanned``        row visited by a query-engine kernel
``work.query.predicate_evals``     row a WHERE predicate was evaluated on
``work.facets.rows_scanned``       row visited by the faceted engine
``work.features.contingency_cells``  contingency-table cell materialized
``work.features.chi2_cells``       contingency cell scored by chi-square
``work.cluster.distance_evals``    k-means distance from a distinct
                                   tuple to a centre (or a k-modes
                                   row-mode mismatch count) evaluated
``work.cluster.iterations``        clustering iteration completed
``work.cluster.reseeds``           empty cluster reseeded
``work.diversify.astar_expanded``  A* node popped from the frontier
``work.diversify.similarity_pairs``  IUnit pair scored by Algorithm 1
                                   (an Algorithm 2 call scores each
                                   cross-row pair once, not once per
                                   direction; DESIGN §18)
=================================  =====================================

Kernels call the module-level :func:`add`; one call fans out three ways:

* the **context accumulator** (a :class:`contextvars.ContextVar`, so
  concurrent executor threads are isolated) — installed per statement
  by ``DBExplorer.execute`` via :func:`track`, it becomes the
  per-statement ``work`` field in the worklog, replay reports, and
  BENCH payloads.  This is the byte-identity surface.
* the statement's **tracer span** (innermost open span of the tracer
  :func:`attach`-ed to the context), giving the per-phase rollup that
  ``EXPLAIN ANALYZE`` renders;
* the process-wide **metrics registry**, so workers ship cumulative
  work totals to the supervisor over the existing TELEMETRY frame and
  ``repro stats`` can render cluster-wide work.  Registry totals are
  cumulative across retries and are *informational*; the exact-equality
  gate reads the per-statement context counts, which always reflect the
  final attempt only.

Counting is always on: the counters are the cost model, and a handful
of integer adds per kernel call is noise next to the kernels themselves.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Dict, Iterator, Optional

from .metrics import registry

__all__ = [
    "WORK_COUNTERS",
    "WorkCounters",
    "add",
    "attach",
    "current",
    "track",
]

#: The canonical counter names, in render order.  ``add`` accepts only
#: these — an unknown name is a programming error, caught loudly so the
#: taxonomy cannot drift back into per-engine ad-hoc names.
WORK_COUNTERS = (
    "work.query.rows_scanned",
    "work.query.predicate_evals",
    "work.facets.rows_scanned",
    "work.features.contingency_cells",
    "work.features.chi2_cells",
    "work.cluster.distance_evals",
    "work.cluster.iterations",
    "work.cluster.reseeds",
    "work.diversify.astar_expanded",
    "work.diversify.similarity_pairs",
)

_KNOWN = frozenset(WORK_COUNTERS)


class WorkCounters:
    """Per-statement accumulator of deterministic work counts.

    Holds integer counts keyed by taxonomy name, plus the tracer whose
    current span receives the same increments (for per-phase rollup).
    Instances are confined to one statement on one thread via the
    context variable, so no locking is needed.
    """

    __slots__ = ("counts", "tracer")

    def __init__(self, tracer=None):
        self.counts: Dict[str, int] = {}
        self.tracer = tracer

    def add(self, name: str, n: int = 1) -> None:
        """Accumulate ``n`` units against ``name`` (no validation here;
        the module-level :func:`add` already vetted the name)."""
        self.counts[name] = self.counts.get(name, 0) + n

    def total(self) -> int:
        """Sum of all counts — a single scalar 'how much work' figure."""
        return sum(self.counts.values())

    def as_dict(self) -> Dict[str, int]:
        """Counts in taxonomy order — the serialized ``work`` payload."""
        return {
            name: self.counts[name]
            for name in WORK_COUNTERS
            if name in self.counts
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WorkCounters({self.as_dict()!r})"


_current: contextvars.ContextVar[Optional[WorkCounters]] = (
    contextvars.ContextVar("repro_work_counters", default=None)
)


def current() -> Optional[WorkCounters]:
    """The statement accumulator installed on this context, if any."""
    return _current.get()


@contextlib.contextmanager
def track(tracer=None) -> Iterator[WorkCounters]:
    """Install a fresh accumulator for the duration of one statement.

    Executor threads each run statements inside their own context, so
    concurrent statements never share an accumulator — that is what
    makes per-statement counts identical between conc-1 and conc-N.
    """
    counters = WorkCounters(tracer)
    token = _current.set(counters)
    try:
        yield counters
    finally:
        _current.reset(token)


def attach(tracer) -> None:
    """Point the current accumulator's span rollup at ``tracer``.

    ``EXPLAIN ANALYZE`` builds under a dedicated tracer created after
    the statement context opened; attaching redirects span increments
    there while the context counts keep accumulating unchanged.
    """
    counters = _current.get()
    if counters is not None:
        counters.tracer = tracer


def add(name: str, n: int = 1) -> None:
    """Record ``n`` units of work against counter ``name``.

    Fans out to the statement context (exact, gated), the innermost
    open tracer span (per-phase rollup), and the process registry
    (cumulative, shipped over telemetry).  Outside any statement
    context — unit tests poking a kernel directly, ad-hoc scripts —
    only the registry side takes effect.
    """
    if name not in _KNOWN:
        raise ValueError(
            f"unknown work counter {name!r}; add it to "
            "repro.obs.work.WORK_COUNTERS (see DESIGN ch. 13)"
        )
    if n <= 0:
        return
    registry().counter(name).inc(n)
    counters = _current.get()
    if counters is not None:
        counters.add(name, n)
        if counters.tracer is not None:
            counters.tracer.inc(name, n)
