"""Predicate algebra over tables.

Predicates are immutable trees that evaluate to boolean masks on a
:class:`~repro.dataset.table.Table`.  They compose with ``&``, ``|`` and
``~`` and serialize back to SQL-ish text, which the faceted interface and
the study agents use to show/replay selections::

    pred = Eq("BodyType", "SUV") & Between("Mileage", 10_000, 30_000)
    suvs = engine.select(table, pred)
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.dataset.table import Table
from repro.errors import QueryError, TypeMismatchError

__all__ = [
    "Predicate", "TruePred", "Eq", "Ne", "In", "Between",
    "Cmp", "IsMissing", "And", "Or", "Not",
]


def _quote(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


class Predicate:
    """Base class. Subclasses implement :meth:`mask` and :meth:`to_sql`."""

    def mask(self, table: Table) -> np.ndarray:
        """Boolean numpy array: True for rows satisfying the predicate."""
        raise NotImplementedError

    def to_sql(self) -> str:
        """SQL-ish text form of the predicate."""
        raise NotImplementedError

    def attributes(self) -> Tuple[str, ...]:
        """All attribute names referenced, in first-mention order."""
        raise NotImplementedError

    # -- composition --------------------------------------------------

    def __and__(self, other: "Predicate") -> "Predicate":
        return And((self, other))

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or((self, other))

    def __invert__(self) -> "Predicate":
        return Not(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_sql()})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Predicate) and self.to_sql() == other.to_sql()

    def __hash__(self) -> int:
        return hash(self.to_sql())


class TruePred(Predicate):
    """Matches every row (the empty WHERE clause)."""

    def mask(self, table: Table) -> np.ndarray:
        return np.ones(len(table), dtype=bool)

    def to_sql(self) -> str:
        return "TRUE"

    def attributes(self) -> Tuple[str, ...]:
        return ()


class _Leaf(Predicate):
    """Common base of single-attribute predicates."""

    def __init__(self, attr: str):
        self.attr = attr

    def attributes(self) -> Tuple[str, ...]:
        return (self.attr,)


class Eq(_Leaf):
    """``attr = value``; value is matched on the decoded representation."""

    def __init__(self, attr: str, value):
        super().__init__(attr)
        self.value = value

    def mask(self, table: Table) -> np.ndarray:
        col = table[self.attr]
        if col.attribute.is_categorical:
            code = col.code_of(str(self.value))
            return col.codes == code if code >= 0 else np.zeros(len(table), bool)
        try:
            target = float(self.value)
        except (TypeError, ValueError):
            raise TypeMismatchError(
                f"cannot compare numeric {self.attr!r} with {self.value!r}"
            ) from None
        return col.numbers == target

    def to_sql(self) -> str:
        return f"{self.attr} = {_quote(self.value)}"


class Ne(_Leaf):
    """``attr <> value`` (missing rows do not match)."""

    def __init__(self, attr: str, value):
        super().__init__(attr)
        self.value = value

    def mask(self, table: Table) -> np.ndarray:
        col = table[self.attr]
        eq = Eq(self.attr, self.value).mask(table)
        if col.attribute.is_categorical:
            present = col.codes >= 0
        else:
            present = ~np.isnan(col.numbers)
        return present & ~eq

    def to_sql(self) -> str:
        return f"{self.attr} <> {_quote(self.value)}"


class In(_Leaf):
    """``attr IN (v1, v2, ...)``."""

    def __init__(self, attr: str, values: Iterable):
        super().__init__(attr)
        self.values: Tuple = tuple(values)
        if not self.values:
            raise QueryError(f"IN list for {attr!r} is empty")

    def mask(self, table: Table) -> np.ndarray:
        col = table[self.attr]
        if col.attribute.is_categorical:
            # one flag per code; the spare last slot, which a missing
            # code (-1) indexes, stays False
            hit = np.zeros(len(col.categories) + 1, dtype=bool)
            for v in self.values:
                code = col.code_of(str(v))
                if code >= 0:
                    hit[code] = True
            return hit[col.codes]
        try:
            targets = [float(v) for v in self.values]
        except (TypeError, ValueError):
            raise TypeMismatchError(
                f"cannot compare numeric {self.attr!r} with {self.values!r}"
            ) from None
        return np.isin(col.numbers, targets)

    def to_sql(self) -> str:
        inner = ", ".join(_quote(v) for v in self.values)
        return f"{self.attr} IN ({inner})"


class Between(_Leaf):
    """``attr BETWEEN lo AND hi`` (inclusive both ends, like SQL)."""

    def __init__(self, attr: str, lo: float, hi: float):
        super().__init__(attr)
        self.lo = float(lo)
        self.hi = float(hi)
        if self.lo > self.hi:
            raise QueryError(f"BETWEEN bounds reversed: {lo} > {hi}")

    def mask(self, table: Table) -> np.ndarray:
        nums = table[self.attr].numbers
        return (nums >= self.lo) & (nums <= self.hi)

    def to_sql(self) -> str:
        return f"{self.attr} BETWEEN {_quote(self.lo)} AND {_quote(self.hi)}"


class Cmp(_Leaf):
    """``attr <op> value`` for ``<``, ``<=``, ``>``, ``>=`` on numerics."""

    _OPS = {
        "<": np.less, "<=": np.less_equal,
        ">": np.greater, ">=": np.greater_equal,
    }

    def __init__(self, attr: str, op: str, value: float):
        super().__init__(attr)
        if op not in self._OPS:
            raise QueryError(f"unsupported comparison operator {op!r}")
        self.op = op
        self.value = float(value)

    def mask(self, table: Table) -> np.ndarray:
        nums = table[self.attr].numbers
        with np.errstate(invalid="ignore"):
            return self._OPS[self.op](nums, self.value)

    def to_sql(self) -> str:
        return f"{self.attr} {self.op} {_quote(self.value)}"


class IsMissing(_Leaf):
    """``attr IS NULL``."""

    def mask(self, table: Table) -> np.ndarray:
        col = table[self.attr]
        if col.attribute.is_categorical:
            return col.codes < 0
        return np.isnan(col.numbers)

    def to_sql(self) -> str:
        return f"{self.attr} IS NULL"


class And(Predicate):
    """Conjunction of child predicates; flattens nested ANDs."""

    def __init__(self, children: Sequence[Predicate]):
        flat: list = []
        for c in children:
            if isinstance(c, And):
                flat.extend(c.children)
            elif not isinstance(c, TruePred):
                flat.append(c)
        self.children: Tuple[Predicate, ...] = tuple(flat)

    def mask(self, table: Table) -> np.ndarray:
        out = np.ones(len(table), dtype=bool)
        for c in self.children:
            out &= c.mask(table)
        return out

    def to_sql(self) -> str:
        if not self.children:
            return "TRUE"
        return " AND ".join(
            f"({c.to_sql()})" if isinstance(c, Or) else c.to_sql()
            for c in self.children
        )

    def attributes(self) -> Tuple[str, ...]:
        seen: list = []
        for c in self.children:
            for a in c.attributes():
                if a not in seen:
                    seen.append(a)
        return tuple(seen)


class Or(Predicate):
    """Disjunction of child predicates; flattens nested ORs."""

    def __init__(self, children: Sequence[Predicate]):
        flat: list = []
        for c in children:
            if isinstance(c, Or):
                flat.extend(c.children)
            else:
                flat.append(c)
        if not flat:
            raise QueryError("OR of zero predicates")
        self.children: Tuple[Predicate, ...] = tuple(flat)

    def mask(self, table: Table) -> np.ndarray:
        out = np.zeros(len(table), dtype=bool)
        for c in self.children:
            out |= c.mask(table)
        return out

    def to_sql(self) -> str:
        return " OR ".join(
            f"({c.to_sql()})" if isinstance(c, And) else c.to_sql()
            for c in self.children
        )

    def attributes(self) -> Tuple[str, ...]:
        seen: list = []
        for c in self.children:
            for a in c.attributes():
                if a not in seen:
                    seen.append(a)
        return tuple(seen)


class Not(Predicate):
    """Negation."""

    def __init__(self, child: Predicate):
        self.child = child

    def mask(self, table: Table) -> np.ndarray:
        return ~self.child.mask(table)

    def to_sql(self) -> str:
        return f"NOT ({self.child.to_sql()})"

    def attributes(self) -> Tuple[str, ...]:
        return self.child.attributes()
