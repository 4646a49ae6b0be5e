"""The query engine: evaluate predicates and simple statements on tables.

Also the registry of named tables (the ``FROM`` clause namespace).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional, Sequence

import numpy as np

from repro.dataset.column import Column
from repro.dataset.table import Table
from repro.errors import QueryError
from repro.obs import work
from repro.obs.metrics import registry
from repro.query.predicates import Predicate, TruePred

__all__ = ["QueryEngine"]


class QueryEngine:
    """Evaluates selections/projections and holds the table catalog.

    >>> engine = QueryEngine()
    >>> engine.register("UsedCars", cars_table)
    >>> suvs = engine.select(cars_table, Eq("BodyType", "SUV"))
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tables: Dict[str, Table] = {}

    # -- catalog ------------------------------------------------------

    def register(self, name: str, table: Table) -> None:
        """Register ``table`` under ``name`` for use in FROM clauses.

        Copy-on-write, like the view registry: the catalog dict is
        copied and swapped, never mutated, so :meth:`snapshot`'s
        identity changes exactly when the catalog does.
        """
        with self._lock:
            tables = dict(self._tables)
            tables[name] = table
            self._tables = tables

    def snapshot(self) -> Dict[str, Table]:
        """The current immutable table catalog (name -> table)."""
        return self._tables

    def table(self, name: str) -> Table:
        """Look up a registered table."""
        try:
            return self._tables[name]
        except KeyError:
            raise QueryError(
                f"unknown table {name!r}; registered: {sorted(self._tables)}"
            ) from None

    @property
    def table_names(self) -> tuple:
        """Registered table names, sorted."""
        return tuple(sorted(self._tables))

    # -- evaluation ------------------------------------------------------

    @staticmethod
    def select(
        table: Table,
        predicate: Optional[Predicate] = None,
        columns: Optional[Sequence[str]] = None,
        limit: Optional[int] = None,
        by: Sequence[str] = (),
        ascending: Sequence[bool] = (),
    ) -> Table:
        """``SELECT columns FROM table WHERE predicate ORDER BY by LIMIT limit``.

        ``columns=None`` means ``*``; ``predicate=None`` means no WHERE.
        The result is materialized late: the WHERE mask becomes row ids
        once, the ids are sorted on the ``by`` keys as ``table`` holds
        them (so a key need not be selected) and cut to ``limit``, and
        only then are the selected columns gathered at the kept ids.
        """
        start = time.perf_counter()
        work.add("work.query.rows_scanned", len(table))
        if predicate is None or isinstance(predicate, TruePred):
            rows = np.arange(len(table))
        else:
            work.add("work.query.predicate_evals", len(table))
            rows = table.row_ids(predicate.mask(table))
        out = table if columns is None else table.project(columns)
        rows = _order_rows(table, rows, by, ascending)
        if limit is not None:
            # a negative LIMIT keeps no rows, as Table.head does
            rows = rows[:max(limit, 0)]
        result = out.take(rows)
        reg = registry()
        reg.counter("query.select.calls").inc()
        reg.counter("query.rows_returned").inc(len(result))
        reg.histogram("query.select.latency_s").observe(
            time.perf_counter() - start
        )
        return result

    @staticmethod
    def count(table: Table, predicate: Optional[Predicate] = None) -> int:
        """Number of rows matching ``predicate`` (no materialization)."""
        start = time.perf_counter()
        reg = registry()
        reg.counter("query.count.calls").inc()
        work.add("work.query.rows_scanned", len(table))
        if predicate is None or isinstance(predicate, TruePred):
            return len(table)
        work.add("work.query.predicate_evals", len(table))
        n = int(np.count_nonzero(predicate.mask(table)))
        reg.histogram("query.count.latency_s").observe(
            time.perf_counter() - start
        )
        return n

    @staticmethod
    def group_count(
        table: Table,
        by: str,
        predicate: Optional[Predicate] = None,
    ) -> dict:
        """Value -> count of ``by`` over the rows matching ``predicate``.

        This is the primitive behind faceted digests: one call per
        attribute gives the whole facet panel.
        """
        start = time.perf_counter()
        reg = registry()
        reg.counter("query.group_count.calls").inc()
        work.add("work.query.rows_scanned", len(table))
        if predicate is not None and not isinstance(predicate, TruePred):
            work.add("work.query.predicate_evals", len(table))
            table = table.filter(predicate.mask(table))
        counts = table.value_counts(by)
        reg.histogram("query.group_count.latency_s").observe(
            time.perf_counter() - start
        )
        return counts

    @staticmethod
    def order_by(
        table: Table, by: Sequence[str], ascending: Sequence[bool]
    ) -> Table:
        """Stable multi-key sort of ``table`` rows.

        Categorical keys sort by value string; missing values sort last.
        """
        return table.take(
            _order_rows(table, np.arange(len(table)), by, ascending)
        )


def _order_rows(
    table: Table,
    rows: np.ndarray,
    by: Sequence[str],
    ascending: Sequence[bool],
) -> np.ndarray:
    """``rows`` (ids into ``table``) stably sorted on the ``by`` keys.

    numpy lexsort-style, keys apply from least to most significant; a
    descending key reverses its stable ascending order.
    """
    if len(by) != len(ascending):
        raise QueryError("order_by: by and ascending differ in length")
    for name, asc in zip(reversed(by), reversed(ascending)):
        idx = np.argsort(_sort_keys(table[name], rows), kind="stable")
        if not asc:
            idx = idx[::-1]
        rows = rows[idx]
    return rows


def _sort_keys(col: Column, rows: np.ndarray) -> np.ndarray:
    """Sort keys of ``col`` at ``rows``: NaN numbers become +inf, and
    categorical codes become the rank of their value string among the
    column's categories, missing ranked as ``chr(0x10FFFF)`` (last)."""
    if col.attribute.is_categorical:
        # equal strings share a rank, so the stable integer sort is the
        # permutation a stable sort of the decoded strings gives
        _, ranks = np.unique(
            np.array(col.categories + (chr(0x10FFFF),), dtype=object),
            return_inverse=True,
        )
        return ranks[col.codes[rows]]
    nums = col.numbers[rows]
    return np.where(np.isnan(nums), np.inf, nums)
