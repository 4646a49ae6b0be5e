"""The discretization pipeline: Table -> all-categorical DiscretizedView.

The CAD View machinery (feature selection, clustering, IUnit labeling)
works on a uniformly categorical encoding of the result set: categorical
attributes keep their codes; numeric attributes are binned into ranges
(paper Sec. 2.2.1 and 3.1.2, "To label both categorical and numerical
attributes in uniform manner, we discretize the numerical attributes").

Because discretization is (re)fit on the *current result set*, the
ranges are context dependent — exactly why Mary's Year ranges come out
as ``2011-2012`` once she has selected low-mileage cars.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.dataset.table import Table
from repro.discretize.binning import (
    Bin, bin_indices, equal_depth_bins, equal_width_bins, format_number,
)
from repro.discretize.histogram import v_optimal_bins
from repro.errors import QueryError
from repro.query.predicates import Eq, Predicate

__all__ = ["Discretizer", "DiscretizedView"]

_STRATEGIES = {
    "width": equal_width_bins,
    "depth": equal_depth_bins,
    "voptimal": v_optimal_bins,
}


class DiscretizedView:
    """An all-categorical view over the rows of a source table.

    For every attribute ``a`` the view provides an ``int32`` code array
    aligned with the source rows (``-1`` = missing), a label per code,
    and a way back from a code to a selectable :class:`Predicate`.
    """

    def __init__(
        self,
        table: Table,
        codes: Mapping[str, np.ndarray],
        labels: Mapping[str, Tuple[str, ...]],
        bins: Mapping[str, Tuple[Bin, ...]],
    ):
        self.table = table
        self._codes = dict(codes)
        self._labels = dict(labels)
        self._bins = dict(bins)

    # -- introspection ---------------------------------------------------

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        """The attributes covered by this view, in fit order."""
        return tuple(self._codes)

    def __contains__(self, name: str) -> bool:
        return name in self._codes

    def __len__(self) -> int:
        return len(self.table)

    def codes(self, name: str) -> np.ndarray:
        """Aligned int32 code array for ``name``."""
        self._check(name)
        return self._codes[name]

    def labels(self, name: str) -> Tuple[str, ...]:
        """Label per code for ``name`` (index == code)."""
        self._check(name)
        return self._labels[name]

    def ncodes(self, name: str) -> int:
        """Domain size of ``name`` in this view."""
        return len(self.labels(name))

    def label_of(self, name: str, code: int) -> str:
        """Decoded label for one code (``?`` for missing)."""
        if code < 0:
            return "?"
        return self.labels(name)[code]

    def code_of(self, name: str, label: str) -> int:
        """Code for a label, or ``-1`` if no such label."""
        try:
            return self.labels(name).index(label)
        except ValueError:
            return -1

    def is_binned(self, name: str) -> bool:
        """True if ``name`` was numeric and got binned."""
        return name in self._bins

    def bins(self, name: str) -> Tuple[Bin, ...]:
        """The bins of a binned attribute."""
        self._check(name)
        if name not in self._bins:
            raise QueryError(f"{name!r} is categorical, not binned")
        return self._bins[name]

    def predicate_for(self, name: str, code: int) -> Predicate:
        """A predicate selecting source rows carrying this code.

        Categorical -> ``Eq``, binned numeric -> ``Between``.  This is
        what makes IUnit labels actionable: every displayed value maps
        to a selection the user can apply.
        """
        self._check(name)
        if name in self._bins:
            return self._bins[name][code].predicate(name)
        return Eq(name, self.labels(name)[code])

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        """(n_rows, len(names)) int32 matrix of codes."""
        return np.column_stack([self.codes(n) for n in names]).astype(np.int32)

    def restrict(self, mask: np.ndarray) -> "DiscretizedView":
        """The view restricted to rows where ``mask`` is True.

        Labels/bins are shared; code arrays are gathered at the kept
        rows.  Used to carve out the per-pivot-value partitions that
        get clustered.
        """
        rows = self.table.row_ids(mask)
        return DiscretizedView(
            self.table.take(rows),
            {n: c[rows] for n, c in self._codes.items()},
            self._labels,
            self._bins,
        )

    def value_counts(self, name: str) -> Dict[str, int]:
        """Label -> count over this view's rows (missing excluded)."""
        codes = self.codes(name)
        valid = codes[codes >= 0]
        counts = np.bincount(valid, minlength=self.ncodes(name))
        labels = self.labels(name)
        return {labels[i]: int(c) for i, c in enumerate(counts) if c > 0}

    def _check(self, name: str) -> None:
        if name not in self._codes:
            raise QueryError(
                f"attribute {name!r} not in discretized view "
                f"(have {list(self._codes)})"
            )


class Discretizer:
    """Fits a :class:`DiscretizedView` over a table.

    Parameters
    ----------
    strategy:
        ``"width"`` (equi-width with round edges, the default — it gives
        the paper's clean ``[25K-30K]`` style labels), ``"depth"``
        (equi-depth/quantile), or ``"voptimal"`` (Jagadish–Suel).
    nbins:
        Default number of bins for numeric attributes.
    nbins_overrides:
        Optional per-attribute bin-count overrides.
    max_direct_ordinal:
        Ordinal attributes with at most this many distinct values are
        used directly (label per integer value) rather than binned —
        ``Year`` with a handful of model years reads better as
        ``2011-2012`` pairs than as wide bins.
    """

    def __init__(
        self,
        strategy: str = "width",
        nbins: int = 6,
        nbins_overrides: Optional[Mapping[str, int]] = None,
        max_direct_ordinal: int = 12,
    ):
        if strategy not in _STRATEGIES:
            raise QueryError(
                f"unknown strategy {strategy!r}; choose from {sorted(_STRATEGIES)}"
            )
        self.strategy = strategy
        self.nbins = nbins
        self.nbins_overrides = dict(nbins_overrides or {})
        self.max_direct_ordinal = max_direct_ordinal

    def _nbins_for(self, name: str) -> int:
        return self.nbins_overrides.get(name, self.nbins)

    def fit(
        self, table: Table, names: Optional[Sequence[str]] = None
    ) -> DiscretizedView:
        """Discretize ``table`` (all attributes, or just ``names``)."""
        names = tuple(names) if names is not None else table.schema.names
        codes: Dict[str, np.ndarray] = {}
        labels: Dict[str, Tuple[str, ...]] = {}
        bins: Dict[str, Tuple[Bin, ...]] = {}
        make_bins = _STRATEGIES[self.strategy]

        for name in names:
            attr = table.schema[name]
            col = table[name]
            if attr.is_categorical:
                # keep only codes that occur; re-map to a dense domain so
                # the view's domain reflects the current result set
                codes[name], occurring = _dense_codes(
                    col.codes, len(col.categories)
                )
                labels[name] = tuple(col.categories[o] for o in occurring)
                continue

            nums = col.numbers
            finite = nums[~np.isnan(nums)]
            if finite.size == 0:
                codes[name] = np.full(len(table), -1, dtype=np.int32)
                labels[name] = ()
                bins[name] = ()
                continue
            distinct = np.unique(finite)
            is_small_ordinal = (
                attr.kind.name == "ORDINAL"
                and len(distinct) <= self.max_direct_ordinal
            )
            if is_small_ordinal or len(distinct) <= 2:
                # pair up consecutive ordinals: Year -> 2011-2012, 2009-2010
                blist = _ordinal_pair_bins(distinct)
            else:
                blist = make_bins(finite, self._nbins_for(name))
            codes[name] = bin_indices(nums, blist)
            labels[name] = tuple(b.label for b in blist)
            bins[name] = tuple(blist)

        return DiscretizedView(table, codes, labels, bins)


def _dense_codes(
    codes: np.ndarray, ncategories: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Re-map ``codes`` onto the dense domain of the codes that occur.

    Returns ``(remapped, occurring)``: ``occurring`` holds the distinct
    non-missing codes in ascending order, and each code maps to its
    position there.  Missing (``-1``) stays ``-1``.
    """
    counts = np.bincount(codes[codes >= 0], minlength=ncategories)
    occurring = np.flatnonzero(counts)
    # one spare slot: missing (-1) indexes it and stays -1
    remap = np.full(ncategories + 1, -1, dtype=np.int32)
    remap[occurring] = np.arange(len(occurring), dtype=np.int32)
    return remap[codes], occurring


def _ordinal_pair_bins(distinct: np.ndarray) -> List[Bin]:
    """Bins pairing consecutive ordinal values, newest pair first in data
    order (bins are returned in ascending order; the pairing starts from
    the top so the most recent values share a bin, like the paper's
    ``Year [2011-2012]``)."""
    values = list(map(float, distinct))
    bins: List[Bin] = []
    i = len(values)
    while i > 0:
        j = max(0, i - 2)
        lo, hi = values[j], values[i - 1]
        bins.append(Bin(lo, hi, closed_hi=True))
        i = j
    bins.reverse()
    return bins
