"""Similarity search inside a CAD View (paper Sec. 4).

* :func:`iunit_similarity` — Algorithm 1: the similarity of two IUnits
  is the sum over Compare Attributes of the cosine similarity of their
  value-frequency vectors; range ``[0, |I|]``.  :func:`similarities`
  runs it from one IUnit to many (``HIGHLIGHT SIMILAR IUNITS``).
* :func:`similarity_matrix` — Algorithm 1 for every pair of a candidate
  set at once, one Gram matrix per Compare Attribute.
* :func:`ranked_list_distance` — Algorithm 2: a rank-aware distance
  between the top-k IUnit lists of two pivot values (lower = more
  similar), handling the disjoint-item problem by matching IUnits via
  Algorithm 1 at threshold ``tau``.

All three read the unit vectors each :class:`IUnit` computes once when
it is made (:func:`~repro.iunits.iunit.unit_vector`), so a search
normalizes nothing (DESIGN §18).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import CADViewError
from repro.iunits.iunit import IUnit
from repro.obs import work

__all__ = [
    "iunit_similarity",
    "similarities",
    "similarity_matrix",
    "default_tau",
    "ranked_list_distance",
]


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
    can be 5.0").  Each cosine is one 1-D dot product of the two unit
    vectors, clipped to ``[0, 1]``; an all-zero distribution is similar
    to nothing.
    """
    return similarities(x, (y,))[0]


def similarities(x: IUnit, others: Sequence[IUnit]) -> List[float]:
    """Algorithm 1 from ``x`` to each of ``others``, in order.

    Each value is :func:`iunit_similarity` of its pair; the pairs are
    counted once, when all are scored.
    """
    ux = x.unit_vectors
    out = []
    for y in others:
        _check_same_attributes(x, y)
        uy = y.unit_vectors
        total = 0.0
        for d in x.compare_attributes:
            a, b = ux[d], uy[d]
            if a.shape != b.shape:
                raise CADViewError(
                    f"cosine: shape mismatch {a.shape} vs {b.shape}"
                )
            total += min(1.0, max(0.0, float(np.dot(a, b))))
        out.append(total)
    work.add("work.diversify.similarity_pairs", len(out))
    return out


def similarity_matrix(iunits: Sequence[IUnit]) -> np.ndarray:
    """Algorithm 1 for every pair at once: (n, n) similarity totals.

    Per Compare Attribute, the IUnits' unit vectors stack into an
    (n, w) matrix; one Gram matrix holds every pair's cosine, which is
    clipped to ``[0, 1]`` and summed over the attributes.  Off-diagonal
    entries equal :func:`iunit_similarity` up to rounding (the Gram
    product sums in a different order), and the work counter gains the
    same ``n(n-1)/2`` pairs the pairwise loop would add.
    """
    n = len(iunits)
    for unit in iunits[1:]:
        _check_same_attributes(iunits[0], unit)
    total = np.zeros((n, n))
    if n == 0:
        return total
    work.add("work.diversify.similarity_pairs", n * (n - 1) // 2)
    for d in iunits[0].compare_attributes:
        rows = [u.unit_vectors[d] for u in iunits]
        shapes = {r.shape for r in rows}
        if len(shapes) > 1:
            raise CADViewError(f"cosine: shape mismatch {sorted(shapes)}")
        unit = np.stack(rows)
        total += np.clip(unit @ unit.T, 0.0, 1.0)
    return total


def default_tau(n_compare: int, alpha: float = 0.7) -> float:
    """The paper's similarity threshold heuristic ``tau = alpha * |I|``."""
    if not 0.0 < alpha < 1.0:
        raise CADViewError(f"alpha must be in (0, 1), got {alpha}")
    return alpha * n_compare


def _rank_costs(similar: Sequence[Sequence[bool]], other_len: int) -> float:
    """One direction of Algorithm 2 over a ``sim >= tau`` block.

    Row ``i`` (1-based rank) pays the distance to the closest similar
    rank of the other list, or to rank ``other_len + 1`` when none is
    similar.
    """
    d = 0.0
    for i, row in enumerate(similar, start=1):
        d += min(
            (abs(j - i) for j, hit in enumerate(row, start=1) if hit),
            default=abs(i - (other_len + 1)),
        )
    return d


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
    identical lists.  Algorithm 1 is symmetric to the bit, so each pair
    is scored once and both directions read the same block.
    """
    if not tx and not ty:
        return 0.0
    similar: List[List[bool]] = [
        [sim >= tau for sim in similarities(x, ty)] for x in tx
    ]
    by_y = [[row[j] for row in similar] for j in range(len(ty))]
    return _rank_costs(similar, len(ty)) + _rank_costs(by_y, len(tx))
