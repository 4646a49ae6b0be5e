"""Compare Attribute selection (paper Problem 1.1).

Given a discretized result set and a Pivot Attribute, rank every other
attribute by how much contrast it induces between the pivot values, and
keep the top ``c`` whose relevance clears a significance threshold
("a Compare Attribute [that] is not informative about the Pivot
Attribute ... will lower the quality of generated IUnits and waste
valuable screen space", Sec. 3.1.1).

Selectors:

* :class:`ChiSquareSelector` — the paper's choice (Weka ChiSquare):
  score = Pearson chi-square statistic, relevance gate = p-value.
* :class:`MutualInformationSelector` — information-gain alternative.
* :class:`SymmetricUncertaintySelector` — normalized MI, less biased
  toward high-cardinality attributes.

All operate on the same contingency tables, so they are directly
comparable in the E-FS ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.discretize.discretizer import DiscretizedView
from repro.errors import QueryError
from repro.features.chi2 import chi2_sf, chi_square_test
from repro.features.contingency import contingency_table
from repro.obs.metrics import registry
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "FeatureScore",
    "FeatureSelector",
    "ChiSquareSelector",
    "MutualInformationSelector",
    "SymmetricUncertaintySelector",
    "select_compare_attributes",
]

# The significance gate an auto-selected Compare Attribute's relevance
# must clear (p-value at most this).
RELEVANCE_ALPHA = 0.05


@dataclass(frozen=True)
class FeatureScore:
    """Relevance of one candidate Compare Attribute."""

    attribute: str
    score: float
    p_value: float

    def relevant(self, alpha: float) -> bool:
        """True when the attribute clears the significance gate."""
        return self.p_value <= alpha


class FeatureSelector:
    """Base class: score candidates against the pivot partition."""

    def score_table(self, table: np.ndarray) -> Tuple[float, float]:
        """(score, p_value) for one contingency table."""
        raise NotImplementedError

    def rank(
        self,
        view: DiscretizedView,
        pivot: str,
        candidates: Optional[Sequence[str]] = None,
        checkpoint: Optional[Callable[[], None]] = None,
        tracer: Optional[Tracer] = None,
    ) -> List[FeatureScore]:
        """Candidates sorted by decreasing score.

        ``candidates`` defaults to every view attribute except the
        pivot.  ``checkpoint`` is called once per candidate scored, so a
        budgeted build can stop a wide selection mid-way.  A ``tracer``
        gains per-span counters: candidates scored and contingency
        cells evaluated (the chi-square work unit).
        """
        if pivot not in view:
            raise QueryError(f"pivot {pivot!r} not in discretized view")
        if candidates is None:
            candidates = [n for n in view.attribute_names if n != pivot]
        tracer = tracer or NULL_TRACER
        pivot_codes = view.codes(pivot)
        n_classes = view.ncodes(pivot)
        cells = 0
        scores = []
        for name in candidates:
            if name == pivot:
                continue
            if checkpoint is not None:
                checkpoint()
            table = contingency_table(
                pivot_codes, view.codes(name), n_classes, view.ncodes(name)
            )
            cells += int(table.size)
            score, p = self.score_table(table)
            scores.append(FeatureScore(name, score, p))
        tracer.inc("candidates_scored", len(scores))
        tracer.inc("cells_scored", cells)
        # cell totals live in the work taxonomy now (contingency_table
        # and chi_square_test count themselves); only the candidate
        # count remains engine-specific
        registry().counter("features.candidates_scored").inc(len(scores))
        scores.sort(key=lambda s: (-s.score, s.attribute))
        return scores


class ChiSquareSelector(FeatureSelector):
    """Chi-square statistic with respect to the pivot classes."""

    def score_table(self, table: np.ndarray) -> Tuple[float, float]:
        result = chi_square_test(table)
        return result.statistic, result.p_value


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def _mutual_information(table: np.ndarray) -> Tuple[float, float, float]:
    """(MI, H(class), H(value)) in bits from a contingency table."""
    total = table.sum()
    if total == 0:
        return 0.0, 0.0, 0.0
    joint = table / total
    pc = joint.sum(axis=1)
    pv = joint.sum(axis=0)
    h_c = _entropy(pc)
    h_v = _entropy(pv)
    h_joint = _entropy(joint.ravel())
    mi = max(0.0, h_c + h_v - h_joint)
    return mi, h_c, h_v


class MutualInformationSelector(FeatureSelector):
    """Information gain I(pivot; attribute).

    The p-value uses the G-test equivalence ``G = 2 * N * ln(2) * MI``
    which is asymptotically chi-square distributed.
    """

    def score_table(self, table: np.ndarray) -> Tuple[float, float]:
        table = np.asarray(table, dtype=float)
        live = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
        if live.shape[0] < 2 or live.shape[1] < 2:
            return 0.0, 1.0
        mi, _, _ = _mutual_information(live)
        n = live.sum()
        g = 2.0 * n * np.log(2.0) * mi
        df = (live.shape[0] - 1) * (live.shape[1] - 1)
        return mi, chi2_sf(g, df)


class SymmetricUncertaintySelector(FeatureSelector):
    """SU = 2 * MI / (H(class) + H(value)), in [0, 1]."""

    def score_table(self, table: np.ndarray) -> Tuple[float, float]:
        table = np.asarray(table, dtype=float)
        live = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
        if live.shape[0] < 2 or live.shape[1] < 2:
            return 0.0, 1.0
        mi, h_c, h_v = _mutual_information(live)
        if h_c + h_v == 0:
            return 0.0, 1.0
        su = 2.0 * mi / (h_c + h_v)
        n = live.sum()
        g = 2.0 * n * np.log(2.0) * mi
        df = (live.shape[0] - 1) * (live.shape[1] - 1)
        return su, chi2_sf(g, df)


def select_compare_attributes(
    view: DiscretizedView,
    pivot: str,
    pinned: Sequence[str] = (),
    limit: int = 5,
    selector: Optional[FeatureSelector] = None,
    exclude: Sequence[str] = (),
    checkpoint: Optional[Callable[[], None]] = None,
    tracer: Optional[Tracer] = None,
) -> List[str]:
    """The paper's Compare Attribute policy.

    The user's explicitly SELECTed attributes (``pinned``, the N of the
    query model) come first, in the user's order; the remaining
    ``limit - len(pinned)`` slots are filled by the selector's ranking,
    skipping attributes whose relevance misses the
    :data:`RELEVANCE_ALPHA` gate ("all Pivot Attribute may not have c
    informative facets").
    """
    if limit < 1:
        raise QueryError(f"limit must be >= 1, got {limit}")
    # bounded by the handful of user-pinned names, never data-sized
    # repro-lint: ignore[RL002]
    for name in pinned:
        if name not in view:
            raise QueryError(f"pinned attribute {name!r} not in view")
    selector = selector or ChiSquareSelector()
    chosen = list(dict.fromkeys(pinned))[:limit]
    if len(chosen) < limit:
        skip = set(chosen) | {pivot} | set(exclude)
        candidates = [n for n in view.attribute_names if n not in skip]
        for fs in selector.rank(view, pivot, candidates, checkpoint, tracer):
            if len(chosen) >= limit:
                break
            if fs.relevant(RELEVANCE_ALPHA):
                chosen.append(fs.attribute)
    return chosen
