"""The CAD View object and its configuration.

A :class:`CADView` is the tabular structure of paper Table 1: one row
per Pivot Attribute value, a shared ordered list of Compare Attributes,
and the top-k IUnits of each row.  It supports the paper's two in-view
search operations (Sec. 2.1.3): highlighting similar IUnits and
reordering rows by similarity to a preferred pivot value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.discretize.discretizer import DiscretizedView
from repro.errors import CADViewError
from repro.core.profile import BuildProfile
from repro.iunits.iunit import IUnit
from repro.iunits.similarity import (
    default_tau,
    ranked_list_distance,
    similarities,
)

__all__ = ["CADViewConfig", "IUnitRef", "CADView"]


@dataclass(frozen=True)
class CADViewConfig:
    """All knobs of CAD View construction.

    Mirrors the query model of Sec. 2.1.2 plus the assumptions of
    Sec. 2.2.1 and the optimizations of Sec. 6.3.

    compare_limit:
        ``LIMIT COLUMNS M`` — total Compare Attributes (user-pinned +
        auto-selected).
    iunits_k:
        ``IUNITS K`` — IUnits displayed per pivot value.
    generated_l:
        Candidate clusters per pivot value; ``None`` uses the paper's
        system-tuning default ``l = 1.5 k`` (at least ``k + 2``).
    alpha:
        Significance gate for Compare Attribute relevance.
    tau_alpha:
        Similarity threshold factor: ``tau = tau_alpha * |I|``.
    nbins / strategy:
        Discretization of numeric attributes.
    max_display / label_alpha / min_share:
        Labeling thresholds (see :class:`LabelingConfig`).
    fs_sample / cluster_sample:
        Optimization 1 — row-sample caps (``None`` disables) for feature
        selection and clustering respectively.
    adaptive_l:
        Optimization 2 — generate fewer candidates on broad result sets.
    seed:
        RNG seed for clustering.
    exact_topk:
        Use div-astar (True) or the greedy baseline (False).
    """

    compare_limit: int = 5
    iunits_k: int = 3
    generated_l: Optional[int] = None
    alpha: float = 0.05
    tau_alpha: float = 0.7
    nbins: int = 6
    strategy: str = "width"
    max_display: int = 2
    label_alpha: float = 0.05
    min_share: float = 0.15
    fs_sample: Optional[int] = None
    cluster_sample: Optional[int] = None
    adaptive_l: bool = False
    seed: int = 0
    exact_topk: bool = True

    def effective_l(self, result_size: int = 0) -> int:
        """Candidate cluster count, honoring ``adaptive_l`` (Sec. 6.3)."""
        if self.generated_l is not None:
            l = self.generated_l
        else:
            l = max(self.iunits_k + 2, int(round(1.5 * self.iunits_k)))
        if self.adaptive_l and result_size > 20_000:
            # broad exploration stage: summarize, do not over-generate
            l = min(l, max(self.iunits_k, 6))
        return l

    def with_(self, **kwargs) -> "CADViewConfig":
        """A modified copy (dataclass ``replace`` convenience)."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class IUnitRef:
    """Address of one IUnit inside a CAD View: (pivot value, 1-based id)."""

    pivot_value: str
    iunit_id: int

    def __str__(self) -> str:
        return f"({self.pivot_value}, {self.iunit_id})"


class CADView:
    """The built Conditional Attribute Dependency View.

    Rows preserve the order of ``pivot_values``; each row holds up to
    ``k`` ranked IUnits (``uid`` 1..k).  The originating discretized
    result set is kept for label/selection round-trips.
    """

    def __init__(
        self,
        name: str,
        pivot_attribute: str,
        pivot_values: Sequence[str],
        compare_attributes: Sequence[str],
        rows: Mapping[str, Sequence[IUnit]],
        view: DiscretizedView,
        config: CADViewConfig,
        profile: Optional[BuildProfile] = None,
        candidates: Optional[Mapping[str, Sequence[IUnit]]] = None,
        report: Optional["BuildReport"] = None,
    ):
        self.name = name
        self.pivot_attribute = pivot_attribute
        self.pivot_values = tuple(pivot_values)
        self.compare_attributes = tuple(compare_attributes)
        self.rows: Dict[str, Tuple[IUnit, ...]] = {
            v: tuple(rows[v]) for v in self.pivot_values
        }
        self.view = view
        self.config = config
        self.profile = profile or BuildProfile()
        self.candidates: Dict[str, Tuple[IUnit, ...]] = {
            v: tuple((candidates or rows)[v]) for v in self.pivot_values
        }
        if report is None:
            from repro.robustness.report import BuildReport

            report = BuildReport(profile=self.profile)
        self.report = report

    @property
    def is_partial(self) -> bool:
        """True when the build dropped at least one pivot value."""
        return self.report.partial

    @property
    def is_degraded(self) -> bool:
        """True when any phase ran below its exact algorithm."""
        return self.report.degraded

    # -- lookups ----------------------------------------------------------

    @property
    def tau(self) -> float:
        """The similarity threshold used by the view's operations."""
        return default_tau(len(self.compare_attributes), self.config.tau_alpha)

    def row(self, pivot_value: str) -> Tuple[IUnit, ...]:
        """The ranked IUnits of one pivot value."""
        try:
            return self.rows[pivot_value]
        except KeyError:
            raise CADViewError(
                f"pivot value {pivot_value!r} not in view "
                f"(have {list(self.pivot_values)})"
            ) from None

    def iunit(self, pivot_value: str, iunit_id: int) -> IUnit:
        """IUnit by (pivot value, 1-based id)."""
        row = self.row(pivot_value)
        if not 1 <= iunit_id <= len(row):
            raise CADViewError(
                f"IUnit id {iunit_id} out of range for {pivot_value!r} "
                f"(row has {len(row)})"
            )
        return row[iunit_id - 1]

    def all_iunits(self) -> List[IUnit]:
        """Every displayed IUnit, row by row."""
        return [u for v in self.pivot_values for u in self.rows[v]]

    # -- Sec. 2.1.3 operations ---------------------------------------------

    def similar_iunits(
        self,
        pivot_value: str,
        iunit_id: int,
        threshold: Optional[float] = None,
        include_self: bool = False,
    ) -> List[Tuple[IUnitRef, float]]:
        """Problem 3 / the ``HIGHLIGHT SIMILAR IUNITS`` statement.

        Returns refs of displayed IUnits whose Algorithm-1 similarity to
        the anchor meets ``threshold`` (default: the view's ``tau``),
        best first.
        """
        anchor = self.iunit(pivot_value, iunit_id)
        threshold = self.tau if threshold is None else threshold
        others = [
            (value, unit)
            for value in self.pivot_values
            for unit in self.rows[value]
            if include_self or value != pivot_value or unit.uid != iunit_id
        ]
        sims = similarities(anchor, [unit for _, unit in others])
        hits: List[Tuple[IUnitRef, float]] = [
            (IUnitRef(value, unit.uid), sim)
            for (value, unit), sim in zip(others, sims)
            if sim >= threshold
        ]
        hits.sort(key=lambda h: (-h[1], h[0].pivot_value, h[0].iunit_id))
        return hits

    def value_distance(
        self, x: str, y: str, tau: Optional[float] = None
    ) -> float:
        """Problem 4: Algorithm-2 distance between two pivot values.

        ``tau`` overrides the view's similarity threshold — useful when
        the default is too strict for any cross-row IUnits to qualify
        as similar (every distance then degenerates to the maximum).
        """
        tau = self.tau if tau is None else tau
        return ranked_list_distance(self.row(x), self.row(y), tau)

    def reorder_by_similarity(
        self, preferred: str, tau: Optional[float] = None
    ) -> "CADView":
        """The ``REORDER ROWS`` statement.

        A new view whose rows start with ``preferred`` and continue in
        increasing Algorithm-2 distance (decreasing similarity).
        """
        self.row(preferred)  # validate
        others = [v for v in self.pivot_values if v != preferred]
        others.sort(
            key=lambda v: (self.value_distance(preferred, v, tau), v)
        )
        order = [preferred] + others
        return CADView(
            self.name,
            self.pivot_attribute,
            order,
            self.compare_attributes,
            self.rows,
            self.view,
            self.config,
            self.profile,
            self.candidates,
            self.report,
        )

    # -- misc ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"CADView({self.name!r}, pivot={self.pivot_attribute!r}, "
            f"values={list(self.pivot_values)}, "
            f"compare={list(self.compare_attributes)})"
        )


_ = field
