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
significantly smaller at level ``alpha``).

A build labels every cluster of every pivot partition at once: one
count table, one normalization and one representative-value pass per
Compare Attribute (:func:`build_iunits`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy.special import ndtr

from repro.discretize.discretizer import DiscretizedView
from repro.iunits.iunit import IUnit, unit_vector

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
    c_small: np.ndarray, c_big: np.ndarray, total: np.ndarray, alpha: float
) -> np.ndarray:
    """Two-proportion z-test, element-wise: is each ``c_small/total``
    significantly below ``c_big/total``?"""
    with np.errstate(divide="ignore", invalid="ignore"):
        p1, p2 = c_big / total, c_small / total
        pooled = (c_big + c_small) / (2.0 * total)
        se = np.sqrt(2.0 * pooled * (1.0 - pooled) / total)
        z = (p1 - p2) / se
        below = 1.0 - ndtr(z) <= alpha  # one-sided p-value
    below = np.where(se == 0, p1 > p2, below)
    return (
        below & (total > 0) & (c_big > 0)
        & (pooled != 0.0) & (pooled != 1.0)
    )


def representative_values(
    counts: np.ndarray,
    labels: Sequence[str],
    config: LabelingConfig,
) -> List[Tuple[str, ...]]:
    """Pick the display values of every row of a count table.

    ``counts`` holds one cluster's counts over one attribute's codes
    per row.  In each row, values are admitted in frequency order.  The
    first value is always shown; each next value is shown only while
    (a) the display cap is not hit, (b) it covers ``min_share`` of the
    cluster, and (c) its count is *not* significantly below the
    previous admitted value's count — the paper's "statistical
    difference between frequency counts" threshold.

    One stable argsort ranks every row as a stable argsort of the row
    alone does, and the thresholds are tested on whole columns of the
    ranked table, one per display position.
    """
    counts = np.asarray(counts, dtype=float)
    totals = counts.sum(axis=1)
    order = np.argsort(-counts, axis=1, kind="stable")
    shown = min(config.max_display, counts.shape[1])
    ranked = np.take_along_axis(counts, order[:, :shown], axis=1)
    admitted = np.zeros(ranked.shape, dtype=bool)
    if shown:
        admitted[:, 0] = (totals > 0) & (ranked[:, 0] > 0)
    for j in range(1, shown):
        c, prev = ranked[:, j], ranked[:, j - 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            rare = c / totals < config.min_share
        admitted[:, j] = admitted[:, j - 1] & (c > 0) & ~rare & ~(
            _counts_significantly_below(c, prev, totals, config.alpha)
        )
    return [
        tuple(labels[i] for i in row[:n])
        for row, n in zip(order[:, :shown].tolist(),
                          admitted.sum(axis=1).tolist())
    ]


def build_iunits(
    view: DiscretizedView,
    partitions: Sequence[Tuple[str, np.ndarray, np.ndarray]],
    pivot_attribute: str,
    compare_attributes: Sequence[str],
    config: LabelingConfig = LabelingConfig(),
) -> List[IUnit]:
    """Label every cluster of a build's pivot partitions at once
    (Problem 1.2's output).

    ``partitions`` holds one ``(pivot value, rows, cluster ids)``
    triple per clustered partition: ``rows`` index ``view`` and the ids
    assign each of those rows to a cluster; negative ids are ignored
    (outliers).  Returns one flat list: per partition, in the given
    order, one IUnit per non-empty cluster in ascending id order,
    unranked (ranking is Problem 2's job).

    Each partition's ids are shifted past the previous partition's, so
    one count table per Compare Attribute,
    ``bincount(id * (w + 1) + code)``, holds every cluster of the
    build: a row per cluster, a column per code, with missing codes and
    outlier rows counted into a spare column and row that are dropped.
    The ids index the table, so they are expected to be small, as
    k-means labels (below k) are.  The counts are integers, exact in
    any order of addition, so each distribution equals the
    ``bincount`` of the cluster's own codes.  The table's non-empty
    rows are then normalized (:func:`unit_vector`) and labeled
    (:func:`representative_values`) in one pass per attribute, and each
    IUnit is handed its rows.
    """
    names = tuple(compare_attributes)
    owners, shifted = [], []
    base = 0  # the first id of the next partition
    for index, (_, _, labels) in enumerate(partitions):
        labels = np.asarray(labels)
        width = int(labels.max(initial=-1)) + 1
        shifted.append(np.where(labels >= 0, labels + base, -1))
        owners.append(np.full(width, index))
        base += width
    rows = np.concatenate([r for _, r, _ in partitions])
    ids = np.concatenate(shifted)
    ids[ids < 0] = base
    sizes = np.bincount(ids, minlength=base + 1)[:base]
    live = np.flatnonzero(sizes)
    owner = np.concatenate(owners)[live]
    distributions, vectors, display = {}, {}, {}
    for name in names:
        w = view.ncodes(name)
        codes = view.codes(name)[rows]
        cells = ids * (w + 1) + np.where(codes >= 0, codes, w)
        counts = np.bincount(cells, minlength=(base + 1) * (w + 1))
        table = counts.reshape(base + 1, w + 1)[live, :w].astype(float)
        distributions[name] = table
        vectors[name] = unit_vector(table)
        display[name] = representative_values(
            table, view.labels(name), config
        )
    return [
        IUnit(
            pivot_attribute,
            partitions[p][0],
            size,
            names,
            {a: distributions[a][r] for a in names},
            {a: display[a][r] for a in names},
            {a: vectors[a][r] for a in names},
        )
        for r, (p, size) in enumerate(
            zip(owner.tolist(), sizes[live].tolist())
        )
    ]
