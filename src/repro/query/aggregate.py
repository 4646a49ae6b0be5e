"""Group-by aggregation.

The paper's related work positions the CAD View against warehouse-style
summaries ("Large volumes of relational data are often summarized using
data warehousing and OLAP technology" — Gray et al.'s data cube [10]).
This module provides that baseline: single- and multi-key group-by with
the usual aggregates, so examples can contrast context-dependent CAD
summaries with user-independent OLAP ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.dataset.table import Table
from repro.errors import QueryError

__all__ = ["AggregateSpec", "GroupedResult", "group_by"]

#: Aggregate implementations over a float array of group members.
_AGGREGATES: Dict[str, Callable[[np.ndarray], float]] = {
    "count": lambda v: float(v.size),
    "sum": lambda v: float(np.nansum(v)),
    "mean": lambda v: float(np.nanmean(v)) if v.size else float("nan"),
    "min": lambda v: float(np.nanmin(v)) if v.size else float("nan"),
    "max": lambda v: float(np.nanmax(v)) if v.size else float("nan"),
    "std": lambda v: float(np.nanstd(v)) if v.size else float("nan"),
    "median": lambda v: float(np.nanmedian(v)) if v.size else float("nan"),
}


@dataclass(frozen=True)
class AggregateSpec:
    """One requested aggregate: ``func(attribute)``.

    ``count`` may use any attribute (or ``"*"``): it counts rows.
    """

    func: str
    attribute: str = "*"

    def __post_init__(self) -> None:
        if self.func not in _AGGREGATES:
            raise QueryError(
                f"unknown aggregate {self.func!r}; "
                f"choose from {sorted(_AGGREGATES)}"
            )

    @property
    def label(self) -> str:
        """The output-column name, e.g. ``mean(Price)``."""
        return f"{self.func}({self.attribute})"


@dataclass(frozen=True)
class GroupedResult:
    """Output of :func:`group_by`.

    ``keys`` are the group-by attribute names; ``rows`` maps each key
    tuple to its aggregate values, keyed by :attr:`AggregateSpec.label`.
    """

    keys: Tuple[str, ...]
    rows: Mapping[Tuple, Mapping[str, float]]

    def __len__(self) -> int:
        return len(self.rows)

    def value(self, key: Tuple, label: str) -> float:
        """One aggregate cell; raises for unknown group/label."""
        try:
            return self.rows[key][label]
        except KeyError:
            raise QueryError(
                f"no group {key!r} / aggregate {label!r}"
            ) from None

    def sorted_keys(self) -> List[Tuple]:
        """Group keys in display order (stringified sort)."""
        return sorted(self.rows, key=lambda k: tuple(map(str, k)))


def _group_indices(table: Table, keys: Sequence[str]) -> Dict[Tuple, np.ndarray]:
    """Group row indices by decoded key tuples (missing -> None)."""
    columns = [table[k] for k in keys]
    decoded: List[List] = []
    for col in columns:
        decoded.append([col[i] for i in range(len(table))])
    groups: Dict[Tuple, List[int]] = {}
    for i in range(len(table)):
        key = tuple(d[i] for d in decoded)
        groups.setdefault(key, []).append(i)
    return {k: np.asarray(v, dtype=np.intp) for k, v in groups.items()}


def group_by(
    table: Table,
    keys: Sequence[str],
    aggregates: Sequence[AggregateSpec] = (AggregateSpec("count"),),
) -> GroupedResult:
    """``SELECT keys, aggs FROM table GROUP BY keys``.

    Missing key values group under ``None``.  Numeric aggregates other
    than count require a numeric attribute.
    """
    keys = tuple(keys)
    if not keys:
        raise QueryError("group_by needs at least one key")
    table.schema.require(keys)
    for spec in aggregates:
        if spec.func != "count":
            attr = table.schema[spec.attribute]
            if not attr.is_numeric:
                raise QueryError(
                    f"{spec.label}: {spec.attribute!r} is not numeric"
                )

    groups = _group_indices(table, keys)
    rows: Dict[Tuple, Dict[str, float]] = {}
    # cache numeric arrays once
    numbers: Dict[str, np.ndarray] = {}
    for spec in aggregates:
        if spec.func != "count" and spec.attribute not in numbers:
            numbers[spec.attribute] = table[spec.attribute].numbers
    for key, idx in groups.items():
        out: Dict[str, float] = {}
        for spec in aggregates:
            if spec.func == "count":
                out[spec.label] = float(len(idx))
            else:
                out[spec.label] = _AGGREGATES[spec.func](
                    numbers[spec.attribute][idx]
                )
        rows[key] = out
    return GroupedResult(keys, rows)

