"""Diversified top-k IUnit selection (paper Sec. 3.2, Problem 2).

Selecting the top-k IUnits purely by preference score yields redundant,
near-identical IUnits, so the paper adopts the *diversified top-k*
formulation of Qin, Yu & Chang (VLDB 2012): choose ``T ⊆ S`` with
``|T| <= k`` such that no two chosen IUnits are similar
(``sim >= tau``) and the total score is maximized.  This is a maximum
weight independent set problem; greedy "can lead to arbitrarily bad
solutions", so we implement the exact best-first search (div-astar) —
fine here because ``|S| = l`` is small — alongside the greedy baseline
used by the E-DIV ablation.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CADViewError
from repro.iunits.iunit import IUnit
from repro.iunits.ranking import PreferenceFunction, SizePreference
from repro.iunits.similarity import similarity_matrix
from repro.obs import work
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "similarity_graph",
    "div_astar",
    "div_greedy",
    "diversified_topk",
]


def similarity_graph(
    iunits: Sequence[IUnit], tau: float
) -> np.ndarray:
    """Boolean adjacency matrix: entry (i, j) True iff sim(i, j) >= tau.

    The similarities come from :func:`similarity_matrix`; only pairs
    ``i < j`` are compared, and the result is mirrored, so the graph is
    symmetric with an empty diagonal.
    """
    upper = np.triu(similarity_matrix(iunits) >= tau, k=1)
    return upper | upper.T


def _check(scores: Sequence[float], adjacency: np.ndarray, k: int) -> np.ndarray:
    scores_arr = np.asarray(scores, dtype=float)
    n = len(scores_arr)
    adjacency = np.asarray(adjacency, dtype=bool)
    if adjacency.shape != (n, n):
        raise CADViewError(
            f"adjacency shape {adjacency.shape} does not match {n} scores"
        )
    if k < 0:
        raise CADViewError(f"k must be >= 0, got {k}")
    if (scores_arr < 0).any():
        raise CADViewError("scores must be non-negative")
    return scores_arr


def div_astar(
    scores: Sequence[float],
    adjacency: np.ndarray,
    k: int,
    checkpoint: Optional[Callable[[], None]] = None,
    tracer: Optional[Tracer] = None,
) -> List[int]:
    """Exact diversified top-k: best-first search with an admissible bound.

    Vertices are considered in descending score order; a search node is
    (position, chosen-set).  The bound adds the best ``k - |chosen|``
    still-compatible scores, which never underestimates, so the first
    fully-expanded best node is optimal (A* on the decision tree; the
    div-astar of Qin et al. specialised to our small ``l``).

    ``checkpoint`` is called once per expanded node; a budgeted caller
    can abort an exploding search and fall back to the greedy solver.

    Returns chosen vertex indices sorted by descending score.
    """
    scores_arr = _check(scores, adjacency, k)
    tracer = tracer or NULL_TRACER
    n = len(scores_arr)
    if n == 0 or k == 0:
        return []
    order = np.argsort(-scores_arr, kind="stable")
    ordered_scores = scores_arr[order]

    def bound(pos: int, chosen: Tuple[int, ...], current: float) -> float:
        budget = k - len(chosen)
        if budget <= 0 or pos >= n:
            return current
        remaining = []
        for q in range(pos, n):
            v = order[q]
            if all(not adjacency[v][c] for c in chosen):
                remaining.append(ordered_scores[q])
                if len(remaining) == budget:
                    break
        return current + float(sum(remaining))

    # max-heap keyed by -bound; tie-break by insertion counter
    counter = itertools.count()
    best_value = -1.0
    best_set: Tuple[int, ...] = ()
    start = (-bound(0, (), 0.0), next(counter), 0, (), 0.0)
    heap = [start]
    while heap:
        if checkpoint is not None:
            checkpoint()
        tracer.inc("astar_nodes")
        work.add("work.diversify.astar_expanded")
        neg_b, _, pos, chosen, current = heapq.heappop(heap)
        if -neg_b <= best_value:
            tracer.inc("astar_pruned", len(heap))
            break  # no node can beat the incumbent
        if current > best_value:
            best_value = current
            best_set = chosen
        if pos >= n or len(chosen) >= k:
            continue
        v = int(order[pos])
        # branch 1: skip v
        b_skip = bound(pos + 1, chosen, current)
        if b_skip > best_value:
            heapq.heappush(
                heap, (-b_skip, next(counter), pos + 1, chosen, current)
            )
        # branch 2: take v if compatible
        if all(not adjacency[v][c] for c in chosen):
            taken = chosen + (v,)
            value = current + float(scores_arr[v])
            b_take = bound(pos + 1, taken, value)
            if value > best_value:
                best_value = value
                best_set = taken
            if b_take > best_value or len(taken) < k:
                heapq.heappush(
                    heap, (-b_take, next(counter), pos + 1, taken, value)
                )
    return sorted(best_set, key=lambda v: (-scores_arr[v], v))


def div_greedy(
    scores: Sequence[float], adjacency: np.ndarray, k: int
) -> List[int]:
    """Greedy baseline: repeatedly take the best compatible vertex.

    Qin et al. show this can be arbitrarily bad; the E-DIV ablation
    quantifies the gap on real candidate sets.
    """
    scores_arr = _check(scores, adjacency, k)
    chosen: List[int] = []
    for v in np.argsort(-scores_arr, kind="stable"):
        if len(chosen) >= k:
            break
        if all(not adjacency[v][c] for c in chosen):
            chosen.append(int(v))
    return chosen


def diversified_topk(
    iunits: Sequence[IUnit],
    k: int,
    tau: float,
    preference: Optional[PreferenceFunction] = None,
    exact: bool = True,
    checkpoint: Optional[Callable[[], None]] = None,
    tracer: Optional[Tracer] = None,
) -> List[IUnit]:
    """Problem 2 end-to-end: score, build the similarity graph, solve.

    Returns at most ``k`` IUnits, highest score first, each stamped with
    its 1-based ``uid``.  ``checkpoint`` reaches the exact solver only —
    the greedy baseline is the cheap fallback a budgeted caller degrades
    to, so it must always run to completion.  A ``tracer`` counts
    candidates in, similarity pairs compared, search nodes expanded and
    IUnits pruned away.
    """
    if not iunits:
        return []
    tracer = tracer or NULL_TRACER
    preference = preference or SizePreference()
    raw = np.array([preference.score(u) for u in iunits], dtype=float)
    # shift to strictly positive when needed (preferences like ascending
    # price are negative); keep every candidate worth selecting
    finite = raw[np.isfinite(raw)]
    floor = float(finite.min()) if finite.size else 0.0
    if floor <= 0.0:
        raw = np.where(np.isfinite(raw), raw - floor + 1.0, 0.0)
    scores = np.where(np.isfinite(raw), raw, 0.0)
    tracer.inc("candidates_in", len(iunits))
    tracer.inc("similarity_pairs", len(iunits) * (len(iunits) - 1) // 2)
    adj = similarity_graph(iunits, tau)
    if exact:
        picked = div_astar(scores, adj, k, checkpoint, tracer)
    else:
        picked = div_greedy(scores, adj, k)
    tracer.inc("pruned", len(iunits) - len(picked))
    return [iunits[v].with_uid(rank) for rank, v in enumerate(picked, start=1)]
