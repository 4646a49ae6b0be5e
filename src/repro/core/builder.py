"""The CAD View construction pipeline (paper Sections 2.2.2, 3, 6.3).

Build order, mirroring the paper's sub-problems:

1. Discretize the result set (pre-processing, Sec. 2.2.1).
2. Problem 1.1 — pick Compare Attributes with chi-square feature
   selection (on a sample when Optimization 1 is enabled).
3. Problem 1.2 — for each pivot value, cluster its tuples on the
   Compare Attributes with k-means (one-hot encoding); then label the
   ``l`` clusters of every pivot value as candidate IUnits in one pass.
4. Problem 2 — keep the diversified top-k per pivot value (div-astar).

Every phase is timed into a :class:`BuildProfile` with the same three
buckets the paper's Figure 8 reports.

Resilience (the interactive-latency contract): a build may carry a
:class:`~repro.robustness.Budget` and a
:class:`~repro.robustness.FaultInjector`.  Under budget pressure or
phase failure the builder walks a *degradation ladder* instead of
aborting —

* feature selection: full chi-square -> sampled chi-square -> entropy
  ranking of the pinned/fallback attributes;
* clustering: k-means -> seeded retry on transient
  :class:`~repro.errors.ConvergenceError` -> one whole-partition IUnit;
* top-k: exact div-astar -> greedy;
* per-pivot-value isolation: any other failure is recorded as an
  incident and only that pivot value is dropped;
* truncation: once the deadline passes, the pivot values not yet
  clustered are dropped and the partial view is returned.

:class:`~repro.errors.BudgetExceededError` escapes only when not even a
partial view can be produced.  Every step down the ladder is recorded in
the returned view's :class:`~repro.robustness.BuildReport`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cadview import CADView, CADViewConfig
from repro.core.profile import BuildProfile
from repro.dataset.table import Table
from repro.discretize.discretizer import DiscretizedView, Discretizer
from repro.errors import (
    BudgetExceededError,
    CADViewError,
    ConvergenceError,
    EmptyResultError,
    QueryCancelledError,
    QueryError,
)
from repro.clustering.encoding import one_hot_encode
from repro.clustering.kmeans import KMeans
from repro.features.selection import (
    FeatureSelector,
    select_compare_attributes,
)
from repro.iunits.diversify import diversified_topk
from repro.iunits.iunit import IUnit
from repro.iunits.labeling import build_iunits
from repro.iunits.similarity import default_tau
from repro.obs.metrics import registry
from repro.obs.tracer import Tracer
from repro.robustness.budget import Budget, BudgetClock
from repro.robustness.cancel import CancelToken
from repro.robustness.faults import NO_FAULTS, FaultInjector
from repro.robustness.report import BuildReport

__all__ = ["CADViewBuilder"]

# Ladder sample caps applied under budget pressure (rows).  Chosen so a
# pressured phase costs single-digit milliseconds on paper-scale data.
_PRESSURE_FS_SAMPLE = 1_000
_PRESSURE_CLUSTER_SAMPLE = 512


class CADViewBuilder:
    """Builds :class:`CADView` objects from result sets.

    >>> builder = CADViewBuilder(CADViewConfig(compare_limit=5, iunits_k=3))
    >>> cad = builder.build(result, pivot="Make", pinned=("Price",))

    The ``budget`` and ``faults`` given here apply to every build.
    """

    def __init__(
        self,
        config: CADViewConfig = CADViewConfig(),
        selector: Optional[FeatureSelector] = None,
        budget: Optional[Budget] = None,
        faults: Optional[FaultInjector] = None,
    ):
        self.config = config
        self.selector = selector
        self.budget = budget
        self.faults = faults

    # -- public API -------------------------------------------------------

    def _default_faults(self) -> FaultInjector:
        """The builder's injector, when it was handed one.

        Else falls back to the ``REPRO_FAULTS`` environment variable — the
        same switch :class:`~repro.core.explorer.DBExplorer` honors —
        so direct-builder workloads (the benches) can have latency or
        failure faults injected without code changes.
        """
        if self.faults is not None:
            return self.faults
        return FaultInjector.from_env() or NO_FAULTS

    def build(
        self,
        result: Table,
        pivot: str,
        pivot_values: Optional[Sequence[str]] = None,
        pinned: Sequence[str] = (),
        name: str = "cadview",
        exclude: Sequence[str] = (),
        tracer: Optional[Tracer] = None,
        cancel: Optional[CancelToken] = None,
    ) -> CADView:
        """Construct the CAD View for ``result`` and ``pivot``.

        Parameters
        ----------
        result:
            The current result set ``R`` (already filtered by the user's
            selections).
        pivot:
            The Pivot Attribute ``fp``.
        pivot_values:
            The selected values ``V``; ``None`` takes every value present
            in ``R`` (the paper's default).
        pinned:
            Compare Attributes the user explicitly SELECTed (the ``N``
            of the query model); honored first, in order.
        exclude:
            Attributes never to auto-select (e.g. attributes already
            pinned by WHERE equality selections, which carry a single
            value in ``R`` and hence zero contrast).
        tracer:
            An existing :class:`~repro.obs.Tracer` to nest this build's
            span tree under (``EXPLAIN ANALYZE`` and the CLI's
            ``--trace`` pass one); ``None`` creates a fresh tracer.
            Either way the build span lands on ``report.trace``.
        cancel:
            A :class:`~repro.robustness.CancelToken` checked at every
            budget checkpoint; once tripped the build raises
            :class:`~repro.errors.QueryCancelledError` promptly instead
            of degrading (the serving watchdog's hook).
        """
        config = self.config
        budget = self.budget
        faults = self._default_faults()
        clock = (budget or Budget()).begin(cancel)
        profile = BuildProfile()
        own_tracer = tracer is None
        tracer = tracer if tracer is not None else Tracer("cadview")
        report = BuildReport(
            budget=budget, profile=profile, tracer=tracer
        )
        if len(result) == 0:
            raise EmptyResultError("result set is empty")
        result.schema[pivot]  # raises UnknownAttributeError when absent
        try:
            with tracer.span(
                "cadview.build", view=name, pivot=pivot,
                rows_in=len(result),
            ) as build_span:
                report.trace = build_span
                result = self._apply_row_caps(result, budget, report)
                build_span.set_attr("rows", len(result))

                # pre-processing: context-dependent discretization of R
                discretizer = Discretizer()
                with tracer.span(
                    "discretize", bucket="others", profile=profile,
                    strategy=discretizer.strategy, nbins=discretizer.nbins,
                ) as sp:
                    clock.check("discretize")
                    faults.fire("discretize")
                    view = discretizer.fit(result)
                    values = self._pivot_values(view, pivot, pivot_values)
                    sp.set_attr("attributes", len(view.attribute_names))
                    sp.set_attr("pivot_values", len(values))

                # Problem 1.1 — Compare Attributes (resilient ladder)
                with tracer.span(
                    "compare_attrs", bucket="compare_attrs",
                    profile=profile,
                ) as sp:
                    compare = self._compare_attributes(
                        result, discretizer, view, pivot, pinned, exclude,
                        clock, faults, report, tracer,
                    )
                    sp.set_attr("selected", len(compare))
                if not compare:
                    raise CADViewError(
                        f"no usable Compare Attribute for pivot {pivot!r}"
                    )

                # Problems 1.2 + 2 — candidate IUnits, diversified top-k
                tau = default_tau(len(compare))
                l = config.effective_l(len(result))
                kept, rows, candidates = self._build_rows(
                    view, pivot, values, compare, tau, l,
                    profile, clock, faults, report, tracer,
                )
                report.elapsed_s = clock.elapsed()
                build_span.set_attr("values_built", len(kept))
        except BudgetExceededError:
            registry().counter("build.budget_exhausted").inc()
            raise
        except QueryCancelledError:
            registry().counter("build.cancelled").inc()
            raise
        except CADViewError:
            registry().counter("build.failed").inc()
            raise
        finally:
            if own_tracer:
                tracer.finish()
        self._record_build_metrics(report)
        return CADView(
            name, pivot, kept, compare, rows, view, config, profile,
            candidates, report,
        )

    @staticmethod
    def _record_build_metrics(report: BuildReport) -> None:
        """Fold one finished build into the process-wide registry."""
        reg = registry()
        reg.counter("build.total").inc()
        if report.degraded:
            reg.counter("build.degraded").inc()
        if report.partial:
            reg.counter("build.partial").inc()
        if report.retries:
            reg.counter("build.retries").inc(len(report.retries))
        reg.histogram("build.latency_s").observe(report.elapsed_s)

    # -- phases ---------------------------------------------------------------

    @staticmethod
    def _pivot_values(
        view: DiscretizedView,
        pivot: str,
        requested: Optional[Sequence[str]],
    ) -> List[str]:
        present = view.value_counts(pivot)
        if requested is None:
            # all values present, most frequent first (stable display)
            return sorted(present, key=lambda v: (-present[v], v))
        values = []
        for v in requested:
            if str(v) not in present:
                raise EmptyResultError(
                    f"pivot value {v!r} has no tuples in the result set"
                )
            values.append(str(v))
        if not values:
            raise CADViewError("pivot_values must not be empty")
        return values

    def _apply_row_caps(
        self,
        result: Table,
        budget: Optional[Budget],
        report: BuildReport,
    ) -> Table:
        """Sample the input down to the budget's row/cell cap."""
        if budget is None:
            return result
        cap = budget.row_cap(len(result.schema))
        if cap is None or len(result) <= cap:
            return result
        cap = max(cap, 1)
        report.record_degradation(
            "input", f"rows:{len(result)}", f"rows:{cap}",
            "row/cell budget cap",
        )
        return result.sample(cap, np.random.default_rng(self.config.seed))

    def _compare_attributes(
        self,
        result: Table,
        discretizer: Discretizer,
        view: DiscretizedView,
        pivot: str,
        pinned: Sequence[str],
        exclude: Sequence[str],
        clock: BudgetClock,
        faults: FaultInjector,
        report: BuildReport,
        tracer: Tracer,
    ) -> List[str]:
        """Problem 1.1 with the selection degradation ladder.

        Rungs: full statistical selection -> selection on a sample
        (Optimization 1, forced under budget pressure) -> pinned
        attributes topped up by the entropy fallback.  User errors
        (unknown pinned attributes) always propagate.
        """
        config = self.config
        for name in pinned:
            if name not in view:
                raise QueryError(f"pinned attribute {name!r} not in view")

        sample_n = config.fs_sample
        if clock.under_pressure() and (
            sample_n is None or sample_n > _PRESSURE_FS_SAMPLE
        ):
            sample_n = _PRESSURE_FS_SAMPLE
            report.record_degradation(
                "feature_selection", "full", f"sample:{sample_n}",
                "budget pressure",
            )
        try:
            faults.fire("feature_selection")
            fs_view = view
            if sample_n is not None and len(result) > sample_n:
                # Optimization 1: rank attributes on a uniform sample
                with tracer.span("fs_sample", rows=sample_n):
                    sample = result.sample(
                        sample_n, np.random.default_rng(config.seed)
                    )
                    fs_view = discretizer.fit(sample)
            with tracer.span(
                "feature_selection", rows=len(fs_view),
                limit=config.compare_limit,
            ):
                compare = select_compare_attributes(
                    fs_view,
                    pivot,
                    pinned=pinned,
                    limit=config.compare_limit,
                    selector=self.selector,
                    exclude=exclude,
                    checkpoint=clock.checkpoint("feature_selection"),
                    tracer=tracer,
                )
        except BudgetExceededError as exc:
            report.record_degradation(
                "feature_selection", "chi-square", "entropy-fallback",
                str(exc),
            )
            compare = list(dict.fromkeys(pinned))[:config.compare_limit]
        except QueryError:
            raise  # config/user errors (bad limit, bad pinned) propagate
        except QueryCancelledError:
            raise  # cancellation must stop the build, never degrade it
        # deliberate blanket: any selector crash downgrades to the entropy
        # ranking and is recorded as an incident, never swallowed silently
        # repro-lint: ignore[RL004]
        except Exception as exc:
            report.record_incident(
                "feature_selection", None, exc,
                "fell back to entropy ranking",
            )
            compare = list(dict.fromkeys(pinned))[:config.compare_limit]
        if len(compare) < min(config.compare_limit,
                              len(view.attribute_names) - 1):
            # contrast-based selection can come up short (e.g. a
            # single pivot value has no contrast at all); fill the
            # remaining slots with the highest-entropy attributes,
            # which still summarize the partition's structure
            with tracer.span("entropy_fallback", have=len(compare)):
                compare = self._entropy_fallback(
                    view, pivot, compare, exclude
                )
        return compare

    def _entropy_fallback(
        self,
        view: DiscretizedView,
        pivot: str,
        chosen: Sequence[str],
        exclude: Sequence[str],
    ) -> List[str]:
        """Top up the Compare Attributes by within-view value entropy."""
        chosen = list(chosen)
        skip = set(chosen) | {pivot} | set(exclude)
        scored = []
        for name in view.attribute_names:
            if name in skip:
                continue
            counts = np.array(list(view.value_counts(name).values()), float)
            if counts.size < 2:
                continue
            p = counts / counts.sum()
            entropy = float(-(p * np.log2(p)).sum())
            scored.append((-entropy, name))
        scored.sort()
        for _, name in scored:
            if len(chosen) >= self.config.compare_limit:
                break
            chosen.append(name)
        return chosen

    # -- per-pivot-value loop -------------------------------------------------

    def _build_rows(
        self,
        view: DiscretizedView,
        pivot: str,
        values: Sequence[str],
        compare: Sequence[str],
        tau: float,
        l: int,
        profile: BuildProfile,
        clock: BudgetClock,
        faults: FaultInjector,
        report: BuildReport,
        tracer: Tracer,
    ) -> Tuple[List[str], Dict[str, List[IUnit]], Dict[str, List[IUnit]]]:
        """Problems 1.2 + 2 for every pivot value, with error isolation.

        Each pivot value is clustered in turn, then every clustered
        partition is labeled in one :func:`build_iunits` pass, then
        top-k runs per pivot value.  Returns (kept values, displayed
        rows, candidate IUnits).  A pivot value that fails to cluster or
        rank becomes an incident and is dropped; once the deadline
        passes the values not yet clustered are truncated.  Raises
        :class:`BudgetExceededError` only when *nothing* was clustered
        before the deadline, and :class:`CADViewError` when every value
        failed.
        """
        clustered: List[Tuple[str, np.ndarray, np.ndarray]] = []
        rng = np.random.default_rng(self.config.seed)
        for i, value in enumerate(values):
            if clock.exceeded():
                if not clustered:
                    clock.check("iunits")  # raises BudgetExceededError
                self._truncate(values[i:], report)
                break
            try:
                with tracer.span(f"pivot:{value}"):
                    with tracer.span(
                        "iunits", bucket="iunits", profile=profile
                    ):
                        members, labels = self._cluster(
                            view, pivot, value, compare, l, rng,
                            clock, faults, report, tracer,
                        )
            except BudgetExceededError:
                if not clustered:
                    raise
                self._truncate(values[i:], report)
                break
            except QueryCancelledError:
                raise  # cancellation punches through per-pivot isolation
            # deliberate blanket: per-pivot isolation — the incident and
            # the dropped value are recorded on the build report
            # repro-lint: ignore[RL004]
            except Exception as exc:
                # isolation: one bad partition must not kill the view
                self._drop(value, exc, report)
                continue
            clustered.append((value, members, labels))
        if not clustered:
            raise self._every_value_failed(report)
        with tracer.span(
            "label", bucket="iunits", profile=profile,
            partitions=len(clustered),
        ) as sp:
            units = build_iunits(view, clustered, pivot, compare)
            sp.inc("candidates", len(units))
        candidates: Dict[str, List[IUnit]] = {
            value: [] for value, _, _ in clustered
        }
        for unit in units:
            candidates[unit.pivot_value].append(unit)
        rows: Dict[str, List[IUnit]] = {}
        for value, cands in candidates.items():
            try:
                with tracer.span(
                    "topk", bucket="others", profile=profile, value=value,
                ):
                    rows[value] = self._topk(
                        cands, value, tau, clock, faults, report, tracer,
                    )
            except QueryCancelledError:
                raise
            # deliberate blanket: per-pivot isolation, as above
            # repro-lint: ignore[RL004]
            except Exception as exc:
                self._drop(value, exc, report)
        if not rows:
            raise self._every_value_failed(report)
        kept = list(rows)
        return kept, rows, {value: candidates[value] for value in kept}

    @staticmethod
    def _drop(value: str, exc: Exception, report: BuildReport) -> None:
        """Record a failed pivot value as an incident and drop it."""
        report.record_incident("iunits", value, exc, "dropped pivot value")
        report.record_dropped(value)

    @staticmethod
    def _every_value_failed(report: BuildReport) -> CADViewError:
        detail = "; ".join(str(i) for i in report.incidents)
        return CADViewError(f"every pivot value failed to build: {detail}")

    @staticmethod
    def _truncate(remaining: Sequence[str], report: BuildReport) -> None:
        """Drop the not-yet-clustered pivot values at the deadline."""
        for value in remaining:
            report.record_dropped(value)
        report.record_degradation(
            "build", "all-values",
            f"truncated:-{len(remaining)}", "deadline reached",
        )

    def _cluster(
        self,
        view: DiscretizedView,
        pivot: str,
        value: str,
        compare: Sequence[str],
        l: int,
        rng: np.random.Generator,
        clock: BudgetClock,
        faults: FaultInjector,
        report: BuildReport,
        tracer: Tracer,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Problem 1.2's clustering for one pivot value, with the ladder.

        Returns the partition's row ids into ``view`` and a cluster id
        per row.  Transient :class:`ConvergenceError` is retried with a
        fresh seed ``budget.retries`` times; exhausted retries or a
        mid-clustering deadline degrade to a single whole-partition
        cluster.
        """
        code = view.code_of(pivot, value)
        rows = np.flatnonzero(view.codes(pivot) == code)
        config = self.config
        span = tracer.current
        span.set_attr("rows", len(rows))
        cap = config.cluster_sample
        if clock.under_pressure() and (
            cap is None or cap > _PRESSURE_CLUSTER_SAMPLE
        ):
            cap = _PRESSURE_CLUSTER_SAMPLE
            if len(rows) > cap:
                report.record_degradation(
                    "cluster", "full-partition", f"sample:{cap}",
                    "budget pressure",
                )
        if cap is not None and len(rows) > cap:
            keep = rng.choice(len(rows), size=cap, replace=False)
            rows = rows[np.sort(keep)]
            span.set_attr("sampled_rows", len(rows))
        # the partition is read only through its Compare Attribute codes
        partition = view.partition(rows, compare)
        with tracer.span("encode", rows=len(partition)):
            encoding = one_hot_encode(partition, compare)
        k = min(l, len(partition))  # tiny partitions: one tuple per cluster
        checkpoint = clock.checkpoint("cluster")
        retries = clock.budget.retries
        for attempt in range(1, retries + 2):
            try:
                faults.fire("cluster", value)
                km = KMeans(n_clusters=k, seed=int(rng.integers(2**31)))
                fit = km.fit(
                    encoding, rng, checkpoint=checkpoint, tracer=tracer,
                )
                return rows, fit.labels
            except ConvergenceError as exc:
                if attempt <= retries:
                    report.record_retry("cluster", value, attempt, exc)
                    tracer.inc("cluster_restarts")
                    continue
                report.record_incident(
                    "cluster", value, exc,
                    "degraded to whole-partition IUnit",
                )
                report.record_degradation(
                    "cluster", "kmeans", "whole-partition-iunit",
                    "retries exhausted",
                )
                break
            except BudgetExceededError:
                report.record_degradation(
                    "cluster", "kmeans", "whole-partition-iunit",
                    "deadline mid-clustering",
                )
                break
        # the bottom rung: the whole partition as one summary IUnit
        return rows, np.zeros(len(partition), dtype=np.int32)

    def _topk(
        self,
        cands: Sequence[IUnit],
        value: str,
        tau: float,
        clock: BudgetClock,
        faults: FaultInjector,
        report: BuildReport,
        tracer: Tracer,
    ) -> List[IUnit]:
        """Problem 2 for one pivot value: exact div-astar, else greedy."""
        config = self.config
        faults.fire("topk", value)
        exact = not clock.under_pressure()
        if not exact:
            report.record_degradation(
                "topk", "exact", "greedy", "budget pressure"
            )
        try:
            return diversified_topk(
                cands,
                config.iunits_k,
                tau,
                exact=exact,
                checkpoint=clock.checkpoint("topk"),
                tracer=tracer,
            )
        except BudgetExceededError:
            report.record_degradation(
                "topk", "exact", "greedy", "deadline mid-search"
            )
            return diversified_topk(
                cands, config.iunits_k, tau, exact=False, tracer=tracer,
            )
