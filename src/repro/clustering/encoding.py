"""Encodings that turn discretized tuples into clusterable vectors.

The paper clusters each pivot value's tuples "using only the
above-chosen Compare Attributes" (Sec. 3.1.2) with standard k-means.
k-means needs numeric vectors, so the discretized (all-categorical)
tuples are one-hot encoded: one indicator block per Compare Attribute.

Each present code sets ``1 / sqrt(2)``, so two tuples differing in one
attribute are at squared distance 1 whatever that attribute's
cardinality: every attribute weighs the same, which keeps the
clustering aligned with the labeling step (which treats attributes
uniformly).

An :class:`Encoding` keeps the code columns and the block layout, which
is all :class:`~repro.clustering.kmeans.KMeans` reads; the n x d
indicator matrix itself is built only when something reads
:attr:`Encoding.matrix` (the clustering ablation's agglomerative
baseline and the test oracles; DESIGN §15).
"""

from __future__ import annotations

import functools
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
    names:
        The encoded attribute names, in block order.
    offsets:
        Start column of each attribute's block; ``offsets[name] + code``
        is the column of a specific attribute value.
    widths:
        Number of values per attribute (its code-domain size); a block
        spans ``max(1, width)`` columns.
    codes:
        Each attribute's code column (``-1`` = missing), in block order:
        row ``i`` holds ``value`` at ``offsets[name] + codes[b][i]`` and
        zero elsewhere in block ``b``.
    value:
        The entry a present code sets, ``1 / sqrt(2)``.
    """

    names: Tuple[str, ...]
    offsets: Dict[str, int]
    widths: Dict[str, int]
    codes: Tuple[np.ndarray, ...]
    value: float

    @property
    def nrows(self) -> int:
        """The number of encoded rows."""
        return len(self.codes[0])

    @property
    def width(self) -> int:
        """The number of columns of :attr:`matrix`."""
        last = self.names[-1]
        return self.offsets[last] + max(1, self.widths[last])

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """(nrows, width) float64 design matrix, built on first read.

        A missing code leaves its block all zero.
        """
        X = np.zeros((self.nrows, self.width), dtype=np.float64)
        rows = np.arange(self.nrows)
        for name, column in zip(self.names, self.codes):
            valid = column >= 0
            X[rows[valid], self.offsets[name] + column[valid]] = self.value
        return X


def one_hot_encode(view: DiscretizedView, names: Sequence[str]) -> Encoding:
    """One-hot encode ``names`` over all rows of ``view``.

    Missing codes contribute an all-zero block.  The two indicator
    entries that differ between tuples disagreeing on one attribute
    contribute exactly 1.0 to squared distance.
    """
    names = tuple(names)
    if not names:
        raise QueryError("cannot encode zero attributes")
    widths = {name: view.ncodes(name) for name in names}
    offsets: Dict[str, int] = {}
    total = 0
    for name in names:
        offsets[name] = total
        total += max(1, widths[name])
    codes = tuple(view.codes(name) for name in names)
    return Encoding(names, offsets, widths, codes, float(1.0 / np.sqrt(2.0)))
