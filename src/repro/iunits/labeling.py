"""Cluster labeling: turning raw clusters into IUnits (paper Sec. 3.1.2).

"Our key contribution in creating the IUnits is the post-clustering step
of cluster labeling."  For each cluster and each Compare Attribute we

1. count the attribute's values inside the cluster (its term-frequency
   vector, reused later by Algorithm 1),
2. rank values by frequency,
3. pick representative values using two thresholds: a *max display
   count* and a *statistical difference between frequency counts* —
   a value is shown alongside the top value only while its count is not
   significantly below the count of the previously admitted value.

The statistical-difference rule uses a two-proportion z-test on the
counts (a value joins the representatives while its frequency is not
significantly smaller at level ``alpha``); a simple ratio fallback is
available for deterministic tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.special import ndtr

from repro.discretize.discretizer import DiscretizedView
from repro.iunits.iunit import IUnit

__all__ = [
    "LabelingConfig",
    "representative_values",
    "build_iunits",
]


@dataclass(frozen=True)
class LabelingConfig:
    """Thresholds of the labeling step.

    max_display:
        Maximum representative values shown per Compare Attribute
        (Table 1 shows 1–2).
    alpha:
        Significance level of the two-proportion test; a candidate value
        is grouped with the previous one while their counts are not
        significantly different.
    min_share:
        A representative must cover at least this fraction of the
        cluster (drops noise values in large clusters).
    """

    max_display: int = 2
    alpha: float = 0.05
    min_share: float = 0.15


def _counts_significantly_below(
    c_small: float, c_big: float, total: float, alpha: float
) -> bool:
    """Two-proportion z-test: is ``c_small/total`` significantly below
    ``c_big/total``?"""
    if total <= 0 or c_big <= 0:
        return False
    p1, p2 = c_big / total, c_small / total
    pooled = (c_big + c_small) / (2.0 * total)
    if pooled in (0.0, 1.0):
        return False
    se = np.sqrt(2.0 * pooled * (1.0 - pooled) / total)
    if se == 0:
        return p1 > p2
    z = (p1 - p2) / se
    p_value = 1.0 - float(ndtr(z))  # one-sided
    return p_value <= alpha


def representative_values(
    counts: np.ndarray,
    labels: Sequence[str],
    config: LabelingConfig,
) -> Tuple[str, ...]:
    """Pick the display values for one attribute of one cluster.

    Values are admitted in frequency order.  The first value is always
    shown; each next value is shown only while (a) the display cap is
    not hit, (b) it covers ``min_share`` of the cluster, and (c) its
    count is *not* significantly below the previous admitted value's
    count — the paper's "statistical difference between frequency
    counts" threshold.
    """
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        return ()
    order = np.argsort(-counts, kind="stable")
    chosen: List[str] = []
    prev_count = None
    for idx in order:
        c = counts[idx]
        if c <= 0 or len(chosen) >= config.max_display:
            break
        if chosen:
            if c / total < config.min_share:
                break
            if _counts_significantly_below(c, prev_count, total, config.alpha):
                break
        chosen.append(labels[idx])
        prev_count = c
    return tuple(chosen)


def build_iunits(
    view: DiscretizedView,
    cluster_labels: np.ndarray,
    pivot_attribute: str,
    pivot_value: str,
    compare_attributes: Sequence[str],
    config: LabelingConfig = LabelingConfig(),
) -> List[IUnit]:
    """Label every cluster of a partition (Problem 1.2's output).

    ``cluster_labels`` assigns each row of ``view`` to a cluster id;
    negative ids are ignored (outliers).  Returns one IUnit per
    non-empty cluster in ascending id order, unranked (ranking is
    Problem 2's job).

    Every cluster's distributions over an attribute come from one
    count table, ``bincount(id * (w + 1) + code)``: a row per cluster
    id, a column per code, with missing codes and outlier rows counted
    into a spare column and row that are dropped.  The ids index the
    table, so they are expected to be small, as k-means labels (below
    k) are.  The counts are integers, exact in any order of addition,
    so each distribution equals the ``bincount`` of the cluster's own
    codes.
    """
    ids = np.asarray(cluster_labels)
    spare = int(ids.max(initial=-1)) + 1
    ids = np.where(ids >= 0, ids, spare)
    sizes = np.bincount(ids, minlength=spare + 1)[:spare]
    tables = {}
    for name in compare_attributes:
        w = view.ncodes(name)
        codes = view.codes(name)
        cells = ids * (w + 1) + np.where(codes >= 0, codes, w)
        counts = np.bincount(cells, minlength=(spare + 1) * (w + 1))
        tables[name] = counts.reshape(spare + 1, w + 1)[:, :w].astype(float)
    iunits: List[IUnit] = []
    for cid in np.flatnonzero(sizes):
        distributions: Dict[str, np.ndarray] = {}
        display: Dict[str, Tuple[str, ...]] = {}
        for name in compare_attributes:
            distributions[name] = tables[name][cid]
            display[name] = representative_values(
                distributions[name], view.labels(name), config
            )
        iunits.append(IUnit(
            pivot_attribute,
            pivot_value,
            int(sizes[cid]),
            tuple(compare_attributes),
            distributions,
            display,
        ))
    return iunits
