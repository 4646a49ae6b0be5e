"""Typed column storage.

A :class:`Column` pairs an :class:`~repro.dataset.schema.Attribute` with a
numpy array of values.  Categorical columns are dictionary-encoded: the
array holds ``int32`` codes into a ``categories`` tuple, which keeps
40K-tuple tables (the paper's YahooUsedCar scale) compact and makes
group-by counting a ``numpy.bincount``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.dataset.schema import AttrKind, Attribute
from repro.errors import TypeMismatchError

__all__ = ["Column"]


class Column:
    """An immutable typed column of values.

    Use :meth:`from_values` to build from raw Python values;
    the constructor takes already-encoded storage.

    Parameters
    ----------
    attribute:
        Schema entry this column implements.
    data:
        For categorical columns an ``int32`` array of codes (``-1`` = missing);
        for numeric columns a ``float64`` array (``nan`` = missing).
    categories:
        For categorical columns, the tuple mapping code -> value.
    """

    __slots__ = ("attribute", "_data", "_categories")

    def __init__(
        self,
        attribute: Attribute,
        data: np.ndarray,
        categories: Optional[Tuple[str, ...]] = None,
    ):
        self.attribute = attribute
        if attribute.is_categorical:
            if categories is None:
                raise TypeMismatchError(
                    f"categorical column {attribute.name!r} needs categories"
                )
            data = np.asarray(data, dtype=np.int32)
            if data.size and (data.max(initial=-1) >= len(categories)):
                raise TypeMismatchError(
                    f"code out of range for column {attribute.name!r}"
                )
            self._categories: Tuple[str, ...] = tuple(categories)
        else:
            data = np.asarray(data, dtype=np.float64)
            self._categories = ()
        data.setflags(write=False)
        self._data = data

    # -- construction ---------------------------------------------------

    @classmethod
    def from_values(cls, attribute: Attribute, values: Iterable) -> "Column":
        """Encode raw Python values into a column.

        Categorical values are converted with ``str``; ``None`` becomes a
        missing marker.  Numeric values must be convertible to ``float``;
        ``None`` becomes ``nan``.
        """
        vals = list(values)
        if attribute.is_categorical:
            categories: list = []
            index: dict = {}
            codes = np.empty(len(vals), dtype=np.int32)
            for i, v in enumerate(vals):
                if v is None:
                    codes[i] = -1
                    continue
                v = str(v)
                code = index.get(v)
                if code is None:
                    code = len(categories)
                    index[v] = code
                    categories.append(v)
                codes[i] = code
            return cls(attribute, codes, tuple(categories))
        try:
            data = np.array(
                [np.nan if v is None else float(v) for v in vals],
                dtype=np.float64,
            )
        except (TypeError, ValueError) as exc:
            raise TypeMismatchError(
                f"non-numeric value in numeric column {attribute.name!r}: {exc}"
            ) from None
        return cls(attribute, data)

    # -- basic protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator:
        return (self[i] for i in range(len(self)))

    def __getitem__(self, i: int):
        """Decoded value at row ``i`` (``None`` for missing)."""
        if self.attribute.is_categorical:
            code = int(self._data[i])
            return None if code < 0 else self._categories[code]
        v = float(self._data[i])
        return None if np.isnan(v) else v

    def __repr__(self) -> str:
        return (
            f"Column({self.attribute.name!r}, n={len(self)}, "
            f"kind={self.attribute.kind.value})"
        )

    # -- raw views --------------------------------------------------------

    @property
    def codes(self) -> np.ndarray:
        """Categorical: the int32 code array. Raises for numeric columns."""
        if not self.attribute.is_categorical:
            raise TypeMismatchError(
                f"{self.attribute.name!r} is numeric; use .numbers"
            )
        return self._data

    @property
    def numbers(self) -> np.ndarray:
        """Numeric: the float64 value array. Raises for categorical columns."""
        if self.attribute.is_categorical:
            raise TypeMismatchError(
                f"{self.attribute.name!r} is categorical; use .codes"
            )
        return self._data

    @property
    def categories(self) -> Tuple[str, ...]:
        """Code -> value mapping for categorical columns (empty otherwise)."""
        return self._categories

    # -- operations ---------------------------------------------------------

    def take(self, indices: np.ndarray) -> "Column":
        """A new column containing rows at ``indices`` (shares categories)."""
        return Column(self.attribute, self._data[indices], self._categories)

    def mask(self, boolmask: np.ndarray) -> "Column":
        """A new column with rows where ``boolmask`` is True."""
        return Column(self.attribute, self._data[boolmask], self._categories)

    def code_of(self, value: str) -> int:
        """Code for a categorical ``value``; ``-1`` if it never occurs."""
        if not self.attribute.is_categorical:
            raise TypeMismatchError(
                f"{self.attribute.name!r} is numeric; no category codes"
            )
        try:
            return self._categories.index(str(value))
        except ValueError:
            return -1

    def distinct_values(self) -> Tuple:
        """Distinct non-missing decoded values, in first-seen / sorted order.

        Categorical columns return values in code (first-seen) order,
        restricted to codes that actually occur; numeric columns return
        sorted unique values.
        """
        if self.attribute.is_categorical:
            present = np.unique(self._data)
            return tuple(
                self._categories[int(c)] for c in present if c >= 0
            )
        vals = self._data[~np.isnan(self._data)]
        return tuple(float(v) for v in np.unique(vals))

    def value_counts(self) -> dict:
        """Mapping of decoded value -> occurrence count (missing excluded)."""
        if self.attribute.is_categorical:
            if len(self._categories) == 0 or len(self._data) == 0:
                return {}
            valid = self._data[self._data >= 0]
            counts = np.bincount(valid, minlength=len(self._categories))
            return {
                self._categories[i]: int(c)
                for i, c in enumerate(counts)
                if c > 0
            }
        vals = self._data[~np.isnan(self._data)]
        uniq, counts = np.unique(vals, return_counts=True)
        return {float(v): int(c) for v, c in zip(uniq, counts)}

    def missing_count(self) -> int:
        """Number of missing entries."""
        if self.attribute.is_categorical:
            return int(np.count_nonzero(self._data < 0))
        return int(np.count_nonzero(np.isnan(self._data)))

    def min(self) -> float:
        """Minimum of a numeric column, ignoring missing values."""
        return float(np.nanmin(self.numbers))

    def max(self) -> float:
        """Maximum of a numeric column, ignoring missing values."""
        return float(np.nanmax(self.numbers))

    def with_categories(self, categories: Sequence[str]) -> "Column":
        """Re-encode this categorical column onto a new category list.

        Used when concatenating tables whose columns discovered values in
        different orders.  Values absent from ``categories`` become missing.
        """
        cats = tuple(categories)
        mapping = np.full(len(self._categories) + 1, -1, dtype=np.int32)
        index = {v: i for i, v in enumerate(cats)}
        for old_code, value in enumerate(self._categories):
            mapping[old_code] = index.get(value, -1)
        # codes of -1 (missing) index the last slot, which stays -1
        return Column(self.attribute, mapping[self._data], cats)
