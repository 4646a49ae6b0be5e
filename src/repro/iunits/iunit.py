"""The IUnit (Interaction Unit) model.

An IUnit is "an interesting group of values for the Compare Attributes"
(paper Sec. 2.1.1) — a labeled cluster of the tuples carrying one Pivot
Attribute value.  Besides its display labels, an IUnit keeps the full
per-attribute value-frequency distributions of its underlying cluster;
those term-frequency vectors are what Algorithm 1 computes cosine
similarity over.  Each vector is scaled to unit length once, when the
build labels its clusters, so every later similarity is a dot product.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

import numpy as np

from repro.errors import CADViewError

__all__ = ["IUnit", "unit_vector", "row_dot"]


def row_dot(a, b) -> np.ndarray:
    """Dot products over the last axis, by numpy's own add-reduction.

    Each product is summed over its contiguous last axis in the order
    numpy's pairwise sum fixes, never BLAS's, so a pair gives the same
    bits alone, in a batch against many, or in a Gram block, whichever
    BLAS kernel is loaded (DESIGN §18).
    """
    return np.add.reduce(a * b, axis=-1)


def unit_vector(counts) -> np.ndarray:
    """Each row of ``counts`` (its last axis) scaled to unit length; an
    all-zero row stays zero.

    A row is pre-scaled by its max magnitude first, because the norm
    squares entries and underflows to zero on subnormal counts.  The
    ops run in this order, ``(a / max|a|) / norm``, so the dot product
    of two unit vectors is the per-attribute cosine of Algorithm 1
    exactly.  Every op is element-wise or a :func:`row_dot` over the
    last axis, so a row gets the same bits in a table of any height as
    alone (DESIGN §18).
    """
    a = np.asarray(counts, dtype=float)
    scale = np.abs(a).max(axis=-1, keepdims=True, initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = a / scale
        a = a / np.sqrt(row_dot(a, a))[..., None]
    return np.where(scale > 0, a, 0.0)


@dataclass(frozen=True)
class IUnit:
    """One labeled cluster.

    Attributes
    ----------
    pivot_attribute / pivot_value:
        The CAD View row this IUnit belongs to.
    size:
        Number of tuples in the underlying cluster.
    compare_attributes:
        The Compare Attributes, in display order (shared by the whole
        CAD View).
    distributions:
        attribute -> frequency-count vector over the attribute's code
        domain in the originating :class:`DiscretizedView`.
    display:
        attribute -> the representative value labels chosen by the
        labeling step (what Table 1 prints in square brackets).
    unit_vectors:
        attribute -> :func:`unit_vector` of its distribution, what
        Algorithm 1 multiplies.  The labeling step normalizes a whole
        build's count table per attribute at once and hands each IUnit
        its rows; :meth:`with_uid` copies share them.  They stay off
        every serialized form and out of equality.
    uid:
        1-based position within its row after top-k ranking; ``None``
        for unranked candidates.
    """

    pivot_attribute: str
    pivot_value: str
    size: int
    compare_attributes: Tuple[str, ...]
    distributions: Mapping[str, np.ndarray]
    display: Mapping[str, Tuple[str, ...]]
    unit_vectors: Mapping[str, np.ndarray] = field(compare=False)
    uid: Optional[int] = None

    def __post_init__(self) -> None:
        missing = [
            a for a in self.compare_attributes
            if a not in self.distributions or a not in self.unit_vectors
        ]
        if missing:
            raise CADViewError(
                f"IUnit lacks distributions or unit vectors for {missing}"
            )

    def with_uid(self, uid: int) -> "IUnit":
        """A copy carrying its 1-based rank within the CAD View row.

        The copy skips the constructor and shares this IUnit's unit
        vectors.
        """
        ranked = copy.copy(self)
        object.__setattr__(ranked, "uid", uid)
        return ranked

    def label_text(self, attribute: str) -> str:
        """Rendered label for one attribute, e.g. ``[Traverse LT] [Equinox LT]``.

        Values grouped for having statistically similar frequencies share
        one bracket (comma-separated); distinct-frequency representatives
        get their own brackets.  We keep it simple and render each
        representative in its own bracket pair unless the labeling step
        grouped them (grouping is encoded by tuples inside ``display``).
        """
        values = self.display.get(attribute, ())
        if not values:
            return "[-]"
        return " ".join(f"[{v}]" for v in values)

    def __repr__(self) -> str:
        tag = f"#{self.uid}" if self.uid is not None else "cand"
        return (
            f"IUnit({self.pivot_value} {tag}, size={self.size}, "
            f"{ {a: list(v) for a, v in self.display.items()} })"
        )
