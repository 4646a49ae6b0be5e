"""Similarity search inside a CAD View (paper Sec. 4).

* :func:`iunit_similarity` — Algorithm 1: the similarity of two IUnits
  is the sum over Compare Attributes of the cosine similarity of their
  value-frequency vectors; range ``[0, |I|]``.
* :func:`similarity_matrix` — Algorithm 1 for every pair of a candidate
  set at once, one Gram matrix per Compare Attribute.
* :func:`ranked_list_distance` — Algorithm 2: a rank-aware distance
  between the top-k IUnit lists of two pivot values (lower = more
  similar), handling the disjoint-item problem by matching IUnits via
  Algorithm 1 at threshold ``tau``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import CADViewError
from repro.iunits.iunit import IUnit
from repro.obs import work

__all__ = [
    "cosine_similarity",
    "iunit_similarity",
    "similarity_matrix",
    "default_tau",
    "ranked_list_distance",
]


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of two non-negative count vectors; 0 when either is empty."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise CADViewError(
            f"cosine: shape mismatch {a.shape} vs {b.shape}"
        )
    # pre-scale by the max magnitude: norm() squares entries first and
    # underflows to zero on subnormal count vectors
    ma, mb = np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0)
    if ma == 0 or mb == 0:
        return 0.0
    a = a / ma
    b = b / mb
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    value = float(np.dot(a / na, b / nb))
    return min(1.0, max(0.0, value))


def _check_same_attributes(x: IUnit, y: IUnit) -> None:
    if x.compare_attributes != y.compare_attributes:
        raise CADViewError(
            "IUnits come from different Compare Attribute sets: "
            f"{x.compare_attributes} vs {y.compare_attributes}"
        )


def iunit_similarity(x: IUnit, y: IUnit) -> float:
    """Algorithm 1 (IUnit Pair Similarity).

    Sums per-dimension cosine similarity of the value-frequency vectors
    over the shared Compare Attributes ``I``; the maximum is ``|I|``
    (the paper: "for five Compare Attributes the max similarity score
    can be 5.0").
    """
    _check_same_attributes(x, y)
    work.add("work.diversify.similarity_pairs")
    total = 0.0
    for d in x.compare_attributes:
        total += cosine_similarity(x.distributions[d], y.distributions[d])
    return total


def _unit_rows(m: np.ndarray) -> np.ndarray:
    """Rows of ``m`` scaled to unit length; all-zero rows stay zero.

    Each row is pre-scaled by its max magnitude first, exactly as
    :func:`cosine_similarity` does, so subnormal rows do not underflow.
    """
    scale = np.abs(m).max(axis=1, initial=0.0)
    nonzero = scale > 0
    rows = m[nonzero] / scale[nonzero, None]
    out = np.zeros_like(m)
    out[nonzero] = rows / np.linalg.norm(rows, axis=1)[:, None]
    return out


def similarity_matrix(iunits: Sequence[IUnit]) -> np.ndarray:
    """Algorithm 1 for every pair at once: (n, n) similarity totals.

    Per Compare Attribute, the IUnits' distributions stack into an
    (n, w) matrix whose rows are normalized once; one Gram matrix holds
    every pair's cosine, which is clipped to ``[0, 1]`` and summed over
    the attributes.  An all-zero distribution is similar to nothing.
    Off-diagonal entries equal :func:`iunit_similarity` up to rounding
    (the Gram product sums in a different order), and the work counter
    gains the same ``n(n-1)/2`` pairs the pairwise loop would add.
    """
    n = len(iunits)
    for unit in iunits[1:]:
        _check_same_attributes(iunits[0], unit)
    total = np.zeros((n, n))
    if n == 0:
        return total
    work.add("work.diversify.similarity_pairs", n * (n - 1) // 2)
    for d in iunits[0].compare_attributes:
        rows = [np.asarray(u.distributions[d], dtype=float) for u in iunits]
        shapes = {r.shape for r in rows}
        if len(shapes) > 1:
            raise CADViewError(f"cosine: shape mismatch {sorted(shapes)}")
        unit = _unit_rows(np.stack(rows))
        total += np.clip(unit @ unit.T, 0.0, 1.0)
    return total


def default_tau(n_compare: int, alpha: float = 0.7) -> float:
    """The paper's similarity threshold heuristic ``tau = alpha * |I|``."""
    if not 0.0 < alpha < 1.0:
        raise CADViewError(f"alpha must be in (0, 1), got {alpha}")
    return alpha * n_compare


def ranked_list_distance(
    tx: Sequence[IUnit],
    ty: Sequence[IUnit],
    tau: float,
) -> float:
    """Algorithm 2 (Attribute-value Pair Similarity).

    For each IUnit ``tx[i]`` (1-based rank ``i``), find the similar
    IUnit in ``ty`` whose rank is closest to ``i``; if none is similar,
    charge rank ``len(ty) + 1``.  Sum the absolute rank differences,
    then do the same from ``ty`` to ``tx``.  Lower = more similar; 0 for
    identical lists.
    """
    if not tx and not ty:
        return 0.0

    def one_direction(a: Sequence[IUnit], b: Sequence[IUnit]) -> float:
        d = 0.0
        for i, unit in enumerate(a, start=1):
            similar_ranks = [
                j for j, other in enumerate(b, start=1)
                if iunit_similarity(unit, other) >= tau
            ]
            if similar_ranks:
                index = min(similar_ranks, key=lambda j: abs(j - i))
            else:
                index = len(b) + 1
            d += abs(i - index)
        return d

    return one_direction(tx, ty) + one_direction(ty, tx)
