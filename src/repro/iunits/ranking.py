"""Preference functions for ranking IUnits (paper Problem 2).

"We have defined this ranking in terms of a specific preference
function.  If no function is specified by the user, we can use a simple
system default, such as cluster size."  The paper's examples: a car
shopper ranks IUnit clusters by ascending price; a taxi fleet manager by
descending mileage.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.discretize.discretizer import DiscretizedView
from repro.errors import CADViewError
from repro.iunits.iunit import IUnit, row_dot

__all__ = [
    "PreferenceFunction",
    "SizePreference",
    "AttributePreference",
    "CompositePreference",
]


class PreferenceFunction:
    """Scores IUnits; higher scores are preferred."""

    def score(self, iunit: IUnit) -> float:
        """The preference value of one IUnit (higher = better)."""
        raise NotImplementedError

    def __call__(self, iunit: IUnit) -> float:
        return self.score(iunit)


class SizePreference(PreferenceFunction):
    """The system default: prefer IUnits summarizing more tuples.

    "IUnits that represent large clusters ... may give more reliable
    insight than smaller outlier-prone clusters." (Sec. 3.2)
    """

    def score(self, iunit: IUnit) -> float:
        """Cluster size."""
        return float(iunit.size)


class AttributePreference(PreferenceFunction):
    """Prefer low (or high) values of one binned numeric attribute.

    The cluster's position on the attribute is the frequency-weighted
    mean of its bin midpoints; with ``ascending=True`` (e.g. ascending
    cluster price) lower means score higher.
    """

    def __init__(
        self,
        view: DiscretizedView,
        attribute: str,
        ascending: bool = True,
    ):
        if not view.is_binned(attribute):
            raise CADViewError(
                f"AttributePreference needs a binned attribute, "
                f"{attribute!r} is categorical"
            )
        self.attribute = attribute
        self.ascending = ascending
        self._midpoints = np.array(
            [(b.lo + b.hi) / 2.0 for b in view.bins(attribute)]
        )

    def score(self, iunit: IUnit) -> float:
        """Signed frequency-weighted mean of the attribute's bins."""
        dist = np.asarray(iunit.distributions[self.attribute], dtype=float)
        if dist.shape != self._midpoints.shape:
            raise CADViewError(
                f"IUnit distribution for {self.attribute!r} does not match "
                "the view this preference was built from"
            )
        total = dist.sum()
        if total == 0:
            return -np.inf  # never prefer a cluster with no data here
        mean = float(row_dot(dist, self._midpoints) / total)
        return -mean if self.ascending else mean


class CompositePreference(PreferenceFunction):
    """Weighted sum of normalized sub-preferences.

    Each sub-preference's scores are rank-normalized per call batch is
    overkill here; we simply combine raw scores with weights, which is
    adequate when the caller controls the scales.
    """

    def __init__(
        self,
        preferences: Sequence[PreferenceFunction],
        weights: Optional[Sequence[float]] = None,
    ):
        if not preferences:
            raise CADViewError("CompositePreference needs >= 1 preference")
        self.preferences = tuple(preferences)
        if weights is None:
            weights = [1.0] * len(preferences)
        if len(weights) != len(preferences):
            raise CADViewError("weights/preferences length mismatch")
        self.weights = tuple(float(w) for w in weights)

    def score(self, iunit: IUnit) -> float:
        """Weighted sum of the sub-preferences' scores."""
        return sum(
            w * p.score(iunit)
            for w, p in zip(self.weights, self.preferences)
        )
