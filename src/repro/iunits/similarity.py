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

All three read the unit vectors the labeling step hands each
:class:`IUnit` (:func:`~repro.iunits.iunit.unit_vector`), so a search
normalizes nothing, and all three score their pairs in one batch per
Compare Attribute with :func:`~repro.iunits.iunit.row_dot`, which gives
a pair the same bits alone or in any batch (DESIGN §18).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import CADViewError
from repro.iunits.iunit import IUnit, row_dot
from repro.obs import work

__all__ = [
    "iunit_similarity",
    "similarities",
    "similarity_matrix",
    "default_tau",
    "ranked_list_distance",
    "ranked_list_distances",
]

# The similarity threshold's share of the attainable maximum |I| (the
# paper's heuristic): two IUnits count as similar when their Algorithm 1
# similarity reaches 70% of it.
_TAU_FACTOR = 0.7


def _check_same_attributes(x: IUnit, y: IUnit) -> None:
    if x.compare_attributes != y.compare_attributes:
        raise CADViewError(
            "IUnits come from different Compare Attribute sets: "
            f"{x.compare_attributes} vs {y.compare_attributes}"
        )


def _stack(units: Sequence[IUnit], attribute: str) -> np.ndarray:
    rows = [u.unit_vectors[attribute] for u in units]
    shapes = {r.shape for r in rows}
    if len(shapes) > 1:
        raise CADViewError(f"cosine: shape mismatch {sorted(shapes)}")
    return np.concatenate(rows).reshape((len(rows),) + shapes.pop())


def _similarity_block(
    xs: Sequence[IUnit], ys: Sequence[IUnit]
) -> np.ndarray:
    """Algorithm 1 for every ``(xs[i], ys[j])`` pair: (|xs|, |ys|) totals.

    Per Compare Attribute, one :func:`row_dot` over the stacked unit
    vectors gives every pair's cosine; each is clipped to ``[0, 1]``
    (NaN to 0, as ``min(1, max(0, c))`` does) and the attributes are
    added in order.
    """
    total = np.zeros((len(xs), len(ys)))
    if not xs or not ys:
        return total
    units = [*xs, *ys]
    for unit in units[1:]:
        _check_same_attributes(xs[0], unit)
    for d in xs[0].compare_attributes:
        stacked = _stack(units, d)
        cos = row_dot(stacked[:len(xs), None, :], stacked[None, len(xs):, :])
        total += np.minimum(np.fmax(cos, 0.0), 1.0)
    return total


def iunit_similarity(x: IUnit, y: IUnit) -> float:
    """Algorithm 1 (IUnit Pair Similarity).

    Sums per-dimension cosine similarity of the value-frequency vectors
    over the shared Compare Attributes ``I``; the maximum is ``|I|``
    (the paper: "for five Compare Attributes the max similarity score
    can be 5.0").  Each cosine is the :func:`row_dot` of the two unit
    vectors, clipped to ``[0, 1]``; an all-zero distribution is similar
    to nothing.
    """
    return similarities(x, (y,))[0]


def similarities(x: IUnit, others: Sequence[IUnit]) -> List[float]:
    """Algorithm 1 from ``x`` to each of ``others``, in order.

    Each value is :func:`iunit_similarity` of its pair, bit for bit;
    the pairs are scored in one batch and counted once.
    """
    out = _similarity_block([x], others)[0].tolist()
    work.add("work.diversify.similarity_pairs", len(out))
    return out


def similarity_matrix(iunits: Sequence[IUnit]) -> np.ndarray:
    """Algorithm 1 for every pair at once: (n, n) similarity totals.

    Off-diagonal entries equal :func:`iunit_similarity` bit for bit,
    and the work counter gains the same ``n(n-1)/2`` pairs the pairwise
    loop would add.
    """
    n = len(iunits)
    total = _similarity_block(iunits, iunits)
    if n:
        work.add("work.diversify.similarity_pairs", n * (n - 1) // 2)
    return total


def default_tau(n_compare: int) -> float:
    """The paper's similarity threshold heuristic ``tau = 0.7 * |I|``."""
    return _TAU_FACTOR * n_compare


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
    is scored once, all in one block, and both directions read it.
    """
    return ranked_list_distances(tx, (ty,), tau)[0]


def ranked_list_distances(
    tx: Sequence[IUnit],
    tys: Sequence[Sequence[IUnit]],
    tau: float,
) -> List[float]:
    """:func:`ranked_list_distance` from ``tx`` to each list of ``tys``.

    Every pair of ``tx`` with an IUnit of any list is scored in one
    block (``REORDER ROWS`` compares one row with all the others), and
    each list reads its columns of it.
    """
    columns = [y for ty in tys for y in ty]
    block = _similarity_block(tx, columns) >= tau
    work.add("work.diversify.similarity_pairs", block.size)
    out = []
    start = 0
    for ty in tys:
        similar = block[:, start:start + len(ty)]
        start += len(ty)
        out.append(
            _rank_costs(similar.tolist(), len(ty))
            + _rank_costs(similar.T.tolist(), len(tx))
        )
    return out
