"""Encodings that turn discretized tuples into clusterable vectors.

The paper clusters each pivot value's tuples "using only the
above-chosen Compare Attributes" (Sec. 3.1.2) with standard k-means.
k-means needs numeric vectors, so the discretized (all-categorical)
tuples are one-hot encoded: one indicator block per Compare Attribute.

Each block is optionally scaled by ``1 / sqrt(2)`` per attribute so that
two tuples differing in one attribute are at distance 1 regardless of
that attribute's cardinality — without this, high-cardinality attributes
neither gain nor lose weight, which keeps the clustering aligned with
the labeling step (which treats attributes uniformly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.discretize.discretizer import DiscretizedView
from repro.errors import QueryError

__all__ = ["Encoding", "one_hot_encode"]


@dataclass(frozen=True)
class Encoding:
    """A one-hot encoding of some view rows.

    Attributes
    ----------
    matrix:
        (n_rows, total_width) float64 design matrix.
    names:
        The encoded attribute names, in block order.
    offsets:
        Start column of each attribute's block; ``offsets[name] + code``
        is the column of a specific attribute value.
    widths:
        Number of columns per attribute (its code-domain size).
    codes:
        Each attribute's code column (``-1`` = missing), in block order:
        the matrix row ``i`` holds ``value`` at ``offsets[name] +
        codes[b][i]`` and zero elsewhere in block ``b``.
    value:
        The entry a present code sets: ``1 / sqrt(2)`` scaled, else 1.
    """

    matrix: np.ndarray
    names: Tuple[str, ...]
    offsets: Dict[str, int]
    widths: Dict[str, int]
    codes: Tuple[np.ndarray, ...]
    value: float


def one_hot_encode(
    view: DiscretizedView,
    names: Sequence[str],
    scale: bool = True,
) -> Encoding:
    """One-hot encode ``names`` over all rows of ``view``.

    Missing codes contribute an all-zero block.  With ``scale=True`` the
    two indicator entries that differ between tuples disagreeing on one
    attribute contribute exactly 1.0 to squared distance.
    """
    names = tuple(names)
    if not names:
        raise QueryError("cannot encode zero attributes")
    n = len(view)
    widths = {name: view.ncodes(name) for name in names}
    offsets: Dict[str, int] = {}
    total = 0
    for name in names:
        offsets[name] = total
        total += max(1, widths[name])
    X = np.zeros((n, total), dtype=np.float64)
    value = 1.0 / np.sqrt(2.0) if scale else 1.0
    rows = np.arange(n)
    codes = tuple(view.codes(name) for name in names)
    for name, column in zip(names, codes):
        valid = column >= 0
        X[rows[valid], offsets[name] + column[valid]] = value
    return Encoding(X, names, offsets, widths, codes, float(value))
