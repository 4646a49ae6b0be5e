"""V-optimal histogram construction (Jagadish et al., VLDB 1998).

The paper points to "the well-developed techniques in histogram
construction [17]" for its binning pre-processing step.  Reference [17]
is Jagadish & Suel's *Optimal Histograms with Quality Guarantees*, whose
canonical V-optimal algorithm chooses bucket boundaries minimizing the
total within-bucket variance of frequencies, by dynamic programming.

We implement the exact O(D^2 * B) DP over the D distinct sorted values
(D is capped by pre-aggregation, which does not change the optimum for
the capped problem), plus a helper that converts the optimal partition
into :class:`~repro.discretize.binning.Bin` ranges.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.discretize.binning import Bin
from repro.errors import QueryError

__all__ = ["v_optimal_partition", "v_optimal_bins"]


def _sse_table(weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Prefix sums enabling O(1) SSE queries over weight ranges."""
    prefix = np.concatenate([[0.0], np.cumsum(weights)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(weights ** 2)])
    return prefix, prefix_sq


def _sse(prefix: np.ndarray, prefix_sq: np.ndarray, i: int, j: int) -> float:
    """Sum of squared errors of weights[i:j] around their mean."""
    n = j - i
    s = prefix[j] - prefix[i]
    sq = prefix_sq[j] - prefix_sq[i]
    return float(sq - s * s / n)


def v_optimal_partition(
    weights: Sequence[float], nbuckets: int
) -> List[Tuple[int, int]]:
    """Optimal partition of ``weights`` into ``<= nbuckets`` runs.

    Returns ``[(start, end), ...]`` half-open index ranges minimizing the
    summed within-run variance (the V-optimal objective).  Runs the
    classic DP: ``opt[b][j]`` = best error for the first ``j`` items in
    ``b`` buckets.
    """
    w = np.asarray(weights, dtype=float)
    n = len(w)
    if n == 0:
        raise QueryError("cannot partition an empty sequence")
    if nbuckets < 1:
        raise QueryError(f"nbuckets must be >= 1, got {nbuckets}")
    nbuckets = min(nbuckets, n)
    prefix, prefix_sq = _sse_table(w)

    INF = float("inf")
    # opt[b][j]: min error splitting first j items into exactly b buckets
    opt = np.full((nbuckets + 1, n + 1), INF)
    back = np.zeros((nbuckets + 1, n + 1), dtype=np.int64)
    opt[0][0] = 0.0
    for b in range(1, nbuckets + 1):
        for j in range(b, n + 1):
            best, best_i = INF, b - 1
            for i in range(b - 1, j):
                if opt[b - 1][i] == INF:
                    continue
                cost = opt[b - 1][i] + _sse(prefix, prefix_sq, i, j)
                if cost < best:
                    best, best_i = cost, i
            opt[b][j] = best
            back[b][j] = best_i

    # choose the bucket count with the best error (more buckets never hurt,
    # so this is nbuckets unless n < nbuckets)
    b = int(np.argmin(opt[1:, n])) + 1
    ranges: List[Tuple[int, int]] = []
    j = n
    while b > 0:
        i = int(back[b][j])
        ranges.append((i, j))
        j = i
        b -= 1
    ranges.reverse()
    return ranges


def v_optimal_bins(
    values: Sequence[float], nbins: int, max_distinct: int = 256
) -> List[Bin]:
    """V-optimal binning of raw ``values`` into at most ``nbins`` ranges.

    Builds the frequency vector over distinct values (pre-aggregated to
    ``max_distinct`` equi-width micro-buckets when there are more
    distinct values than that, which keeps the DP tractable), runs the
    exact DP, and converts the partition into bins.
    """
    vals = np.asarray(values, dtype=float)
    vals = vals[~np.isnan(vals)]
    if vals.size == 0:
        raise QueryError("cannot bin an all-missing column")
    uniq, counts = np.unique(vals, return_counts=True)
    if len(uniq) > max_distinct:
        # pre-aggregate to micro-buckets; DP then merges micro-buckets
        edges = np.linspace(uniq[0], uniq[-1], max_distinct + 1)
        idx = np.clip(np.searchsorted(edges, uniq, side="right") - 1,
                      0, max_distinct - 1)
        agg_counts = np.bincount(idx, weights=counts, minlength=max_distinct)
        # zero-count micro-buckets stay: empty value ranges are exactly
        # what V-optimal boundaries should snap to
        lo_edges = edges[:-1]
        hi_edges = edges[1:]
        counts = agg_counts
    else:
        lo_edges = uniq
        hi_edges = uniq

    ranges = v_optimal_partition(counts, nbins)
    bins: List[Bin] = []
    for bi, (i, j) in enumerate(ranges):
        lo = float(lo_edges[i])
        if bi + 1 < len(ranges):
            hi = float(lo_edges[j])  # next bucket's start
        else:
            hi = float(hi_edges[j - 1])
        last = bi == len(ranges) - 1
        if not last and hi <= lo:
            hi = np.nextafter(lo, np.inf)
        bins.append(Bin(lo, hi, closed_hi=last))
    return bins
