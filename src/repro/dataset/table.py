"""The in-memory column-store relation.

A :class:`Table` is the substrate everything else operates on: the
faceted engine computes digests over it, the CAD View builder clusters
its rows, and the query engine filters it with predicates.  Tables are
immutable; filtering produces new tables that share column storage via
numpy fancy indexing.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.dataset.column import Column
from repro.dataset.schema import AttrKind, Attribute, Schema
from repro.errors import (
    DataIngestError,
    SchemaError,
    UnknownAttributeError,
)

__all__ = ["Table"]


class Table:
    """An immutable relation: a :class:`Schema` plus equal-length columns.

    Build one from rows::

        table = Table.from_rows(schema, [{"Make": "Ford", "Price": 21000.0}, ...])

    or from columns::

        table = Table.from_columns(schema, {"Make": ["Ford", ...], "Price": [...]})
    """

    def __init__(self, schema: Schema, columns: Mapping[str, Column]):
        if set(columns) != set(schema.names):
            raise SchemaError(
                f"columns {sorted(columns)} do not match schema {list(schema.names)}"
            )
        lengths = {name: len(col) for name, col in columns.items()}
        if len(set(lengths.values())) > 1:
            raise SchemaError(f"ragged columns: {lengths}")
        self.schema = schema
        self._columns: Dict[str, Column] = dict(columns)
        self._nrows = next(iter(lengths.values())) if lengths else 0
        # rows skipped at CSV ingestion under --max-bad-rows; empty for
        # every other construction path (and for derived tables)
        self.quarantined: Tuple[DataIngestError, ...] = ()

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Mapping]) -> "Table":
        """Build a table from an iterable of row mappings.

        Missing keys become missing values (``None``).
        """
        rows = list(rows)
        columns = {
            attr.name: Column.from_values(
                attr, (row.get(attr.name) for row in rows)
            )
            for attr in schema
        }
        return cls(schema, columns)

    @classmethod
    def from_columns(cls, schema: Schema, data: Mapping[str, Sequence]) -> "Table":
        """Build a table from a mapping of column name -> raw values."""
        schema.require(data.keys())
        missing = set(schema.names) - set(data)
        if missing:
            raise SchemaError(f"missing columns: {sorted(missing)}")
        columns = {
            attr.name: Column.from_values(attr, data[attr.name])
            for attr in schema
        }
        return cls(schema, columns)

    # -- protocol -----------------------------------------------------------

    def __len__(self) -> int:
        return self._nrows

    def __getitem__(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            raise UnknownAttributeError(name, self.schema.names) from None

    def __repr__(self) -> str:
        return f"Table(rows={self._nrows}, attrs={list(self.schema.names)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self.schema != other.schema or len(self) != len(other):
            return False
        return all(
            list(self._columns[n]) == list(other._columns[n])
            for n in self.schema.names
        )

    # -- row access ----------------------------------------------------------

    def row(self, i: int) -> Dict[str, object]:
        """Row ``i`` as a name -> decoded value dict."""
        if not 0 <= i < self._nrows:
            raise IndexError(f"row {i} out of range [0, {self._nrows})")
        return {name: self._columns[name][i] for name in self.schema.names}

    def iter_rows(self) -> Iterator[Dict[str, object]]:
        """Iterate rows as dicts (mainly for small tables and tests)."""
        return (self.row(i) for i in range(self._nrows))

    # -- relational operations ---------------------------------------------

    def filter(self, mask: np.ndarray) -> "Table":
        """Rows where the boolean ``mask`` is True."""
        return self.take(self.row_ids(mask))

    def row_ids(self, mask: np.ndarray) -> np.ndarray:
        """Ids of the rows where the boolean ``mask`` is True, ascending.

        Gathering a column at these ids (:meth:`take`) returns what a
        boolean gather would, at a fraction of its cost per column.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._nrows,):
            raise SchemaError(
                f"mask length {mask.shape} does not match table ({self._nrows},)"
            )
        return np.flatnonzero(mask)

    def take(self, indices: Sequence[int]) -> "Table":
        """Rows at ``indices``, in the given order (may repeat)."""
        idx = np.asarray(indices, dtype=np.intp)
        return Table(
            self.schema,
            {n: c.take(idx) for n, c in self._columns.items()},
        )

    def project(self, names: Sequence[str]) -> "Table":
        """A table containing only ``names``, in the given order."""
        sub = self.schema.subset(names)
        return Table(sub, {n: self._columns[n] for n in sub.names})

    def sample(self, n: int, rng: Optional[np.random.Generator] = None) -> "Table":
        """A uniform random sample of ``min(n, len(self))`` rows.

        This is Optimization 1 of the paper (Sec. 6.3): compute Compare
        Attributes and candidate IUnits on a 5K–10K sample.
        """
        if n >= self._nrows:
            return self
        rng = rng or np.random.default_rng(0)
        idx = rng.choice(self._nrows, size=n, replace=False)
        return self.take(np.sort(idx))

    def head(self, n: int = 5) -> "Table":
        """The first ``n`` rows."""
        return self.take(np.arange(min(n, self._nrows)))

    def concat(self, other: "Table") -> "Table":
        """Rows of ``self`` followed by rows of ``other`` (same schema)."""
        if self.schema != other.schema:
            raise SchemaError("cannot concat tables with different schemas")
        columns = {}
        for attr in self.schema:
            a, b = self._columns[attr.name], other._columns[attr.name]
            if attr.is_categorical:
                cats = list(a.categories)
                seen = set(cats)
                for v in b.categories:
                    if v not in seen:
                        cats.append(v)
                        seen.add(v)
                a2, b2 = a.with_categories(cats), b.with_categories(cats)
                columns[attr.name] = Column(
                    attr, np.concatenate([a2.codes, b2.codes]), tuple(cats)
                )
            else:
                columns[attr.name] = Column(
                    attr, np.concatenate([a.numbers, b.numbers])
                )
        return Table(self.schema, columns)

    # -- summaries -------------------------------------------------------------

    def value_counts(self, name: str) -> dict:
        """Value -> count for one attribute (the facet digest ingredient)."""
        return self[name].value_counts()

    def distinct(self, name: str) -> Tuple:
        """Distinct non-missing values of an attribute."""
        return self[name].distinct_values()

    # -- CSV I/O -----------------------------------------------------------------

    def to_csv(self, path_or_buffer) -> None:
        """Write the table as CSV with a header row."""
        own = isinstance(path_or_buffer, (str, bytes))
        f = open(path_or_buffer, "w", newline="") if own else path_or_buffer
        try:
            writer = csv.writer(f)
            writer.writerow(self.schema.names)
            for row in self.iter_rows():
                writer.writerow(
                    ["" if row[n] is None else row[n] for n in self.schema.names]
                )
        finally:
            if own:
                f.close()

    @classmethod
    def from_csv(
        cls, path_or_buffer, schema: Schema, max_bad_rows: int = 0
    ) -> "Table":
        """Read a CSV with a header row into a table with ``schema``.

        Empty strings become missing values.  Every data row is
        validated against the schema before encoding: a short/long row
        or a non-numeric value in a numeric column raises
        :class:`~repro.errors.DataIngestError` carrying the source
        file, the 1-based data-row number (the header does not count)
        and the offending column — a 400k-row load that dies on row
        217,345 is debuggable without bisecting the file.

        ``max_bad_rows`` quarantines instead: up to that many bad rows
        are skipped and recorded (as the :class:`DataIngestError` each
        would have raised) on the returned table's ``quarantined``
        tuple; one bad row past the limit raises.
        """
        if max_bad_rows < 0:
            raise ValueError(
                f"max_bad_rows must be >= 0, got {max_bad_rows}"
            )
        own = isinstance(path_or_buffer, (str, bytes))
        f = open(path_or_buffer, newline="") if own else path_or_buffer
        path = (
            str(path_or_buffer) if own
            else str(getattr(f, "name", "") or "")
        )
        try:
            reader = csv.reader(f)
            header = next(reader, None)
            if header is None:
                raise SchemaError("CSV has no header row")
            schema.require(header)
            if set(header) != set(schema.names):
                raise SchemaError(
                    f"CSV header {header} does not cover schema {list(schema.names)}"
                )
            raw_rows = list(reader)
        finally:
            if own:
                f.close()
        numeric = {
            attr.name for attr in schema if not attr.is_categorical
        }
        rows: List[Dict[str, object]] = []
        quarantined: List[DataIngestError] = []

        def bad_row(error: DataIngestError) -> None:
            if len(quarantined) >= max_bad_rows:
                raise error
            quarantined.append(error)

        for rownum, raw in enumerate(raw_rows, start=1):
            if len(raw) != len(header):
                bad_row(DataIngestError(
                    f"row has {len(raw)} field(s), expected {len(header)}",
                    path=path, row=rownum,
                ))
                continue
            row: Dict[str, object] = {}
            ok = True
            for name, value in zip(header, raw):
                if value == "":
                    row[name] = None
                    continue
                if name in numeric:
                    try:
                        float(value)
                    except ValueError:
                        bad_row(DataIngestError(
                            f"non-numeric value {value!r} in numeric "
                            f"attribute",
                            path=path, row=rownum, column=name,
                        ))
                        ok = False
                        break
                row[name] = value
            if ok:
                rows.append(row)
        table = cls.from_rows(schema, rows)
        table.quarantined = tuple(quarantined)
        return table

    def to_csv_string(self) -> str:
        """The CSV serialization as a string (round-trips via from_csv)."""
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()
