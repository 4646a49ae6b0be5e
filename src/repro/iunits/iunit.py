"""The IUnit (Interaction Unit) model.

An IUnit is "an interesting group of values for the Compare Attributes"
(paper Sec. 2.1.1) — a labeled cluster of the tuples carrying one Pivot
Attribute value.  Besides its display labels, an IUnit keeps the full
per-attribute value-frequency distributions of its underlying cluster;
those term-frequency vectors are what Algorithm 1 computes cosine
similarity over.  Each vector is scaled to unit length once, when the
IUnit is made, so every later similarity is a dot product.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

import numpy as np

from repro.errors import CADViewError

__all__ = ["IUnit", "unit_vector"]


def unit_vector(counts) -> np.ndarray:
    """``counts`` scaled to unit length; an all-zero vector stays zero.

    The vector is pre-scaled by its max magnitude first, because
    ``norm()`` squares entries and underflows to zero on subnormal
    counts.  The ops run in this order, ``(a / max|a|) / norm``, so the
    dot product of two unit vectors is the per-attribute cosine of
    Algorithm 1 exactly (DESIGN §18).
    """
    a = np.asarray(counts, dtype=float)
    scale = np.abs(a).max(initial=0.0)
    if scale == 0:
        return np.zeros_like(a)
    a = a / scale
    return a / np.linalg.norm(a)


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
    uid:
        1-based position within its row after top-k ranking; ``None``
        for unranked candidates.
    unit_vectors:
        attribute -> :func:`unit_vector` of its distribution, what
        Algorithm 1 multiplies.  Computed once, when the IUnit is made;
        :meth:`with_uid` copies share them.  They stay off every
        serialized form.
    """

    pivot_attribute: str
    pivot_value: str
    size: int
    compare_attributes: Tuple[str, ...]
    distributions: Mapping[str, np.ndarray]
    display: Mapping[str, Tuple[str, ...]]
    uid: Optional[int] = None
    unit_vectors: Mapping[str, np.ndarray] = field(
        init=False, compare=False
    )

    def __post_init__(self) -> None:
        missing = [
            a for a in self.compare_attributes if a not in self.distributions
        ]
        if missing:
            raise CADViewError(f"IUnit lacks distributions for {missing}")
        object.__setattr__(self, "unit_vectors", {
            a: unit_vector(self.distributions[a])
            for a in self.compare_attributes
        })

    def with_uid(self, uid: int) -> "IUnit":
        """A copy carrying its 1-based rank within the CAD View row.

        The copy skips the constructor and shares this IUnit's unit
        vectors, so nothing is normalized again.
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

    def top_values(self, attribute: str, n: int = 3) -> Tuple[Tuple[str, int], ...]:
        """(label-index, count) pairs of the ``n`` most frequent codes.

        Mainly for diagnostics; display labels come from ``display``.
        """
        dist = np.asarray(self.distributions[attribute])
        order = np.argsort(dist)[::-1][:n]
        return tuple((int(i), int(dist[i])) for i in order if dist[i] > 0)

    def __repr__(self) -> str:
        tag = f"#{self.uid}" if self.uid is not None else "cand"
        return (
            f"IUnit({self.pivot_value} {tag}, size={self.size}, "
            f"{ {a: list(v) for a, v in self.display.items()} })"
        )
