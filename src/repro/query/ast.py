"""Parsed statement types for the SQL subset plus the paper's extensions.

The paper (Sec. 2.1.2–2.1.3) extends SQL with three statements::

    CREATE CADVIEW name AS
      SET pivot = attr
      SELECT a1, ..., aN FROM t [WHERE ...]
      [LIMIT COLUMNS M] [IUNITS K]
      [ORDER BY attr ASC|DESC, ...]

    HIGHLIGHT SIMILAR IUNITS IN name WHERE SIMILARITY(value, iunit) > tau

    REORDER ROWS IN name ORDER BY SIMILARITY(value) DESC

plus ordinary ``SELECT ... FROM ... WHERE ... [LIMIT n]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.query.predicates import Predicate

# Token start/end character offsets of one syntactic element, recorded
# by the parser so the analyzer can point diagnostics at source text.
Span = Tuple[int, int]


def _spans_field():
    """The per-statement span table: element key -> (start, end).

    Keys follow a small convention: ``"table"``, ``"pivot"``, ``"name"``,
    ``"view"``, ``"limit"``, ``"limit_columns"``, ``"iunits"``,
    ``"pivot_value"``, ``"iunit_id"``, ``"threshold"``, and indexed
    ``"select.0"`` / ``"order.0"`` for list elements.  The field is
    excluded from equality/hash/repr so statements built programmatically
    (without positions) compare equal to parsed ones.
    """
    return field(default=None, compare=False, repr=False)

__all__ = [
    "Statement",
    "SelectStatement",
    "CreateCadViewStatement",
    "HighlightSimilarStatement",
    "ReorderRowsStatement",
    "DescribeStatement",
    "ShowCadViewsStatement",
    "DropCadViewStatement",
    "ExplainStatement",
    "OrderKey",
    "catalog_write",
]


class Statement:
    """Marker base class of parsed statements."""


@dataclass(frozen=True)
class OrderKey:
    """One ``ORDER BY`` key."""

    attribute: str
    ascending: bool = True


@dataclass(frozen=True)
class SelectStatement(Statement):
    """``SELECT columns FROM table [WHERE predicate] [LIMIT n]``.

    ``columns == ()`` means ``*``.
    """

    table: str
    columns: Tuple[str, ...] = ()
    where: Optional[Predicate] = None
    order_by: Tuple[OrderKey, ...] = ()
    limit: Optional[int] = None
    spans: Optional[Dict[str, Span]] = _spans_field()


@dataclass(frozen=True)
class CreateCadViewStatement(Statement):
    """The paper's ``CREATE CADVIEW`` statement.

    ``select`` holds the user-pinned Compare Attributes (the N explicit
    attributes of the paper; the remaining M-N are auto-chosen).
    """

    name: str
    pivot: str
    table: str
    select: Tuple[str, ...] = ()
    where: Optional[Predicate] = None
    limit_columns: Optional[int] = None
    iunits: Optional[int] = None
    order_by: Tuple[OrderKey, ...] = ()
    spans: Optional[Dict[str, Span]] = _spans_field()


@dataclass(frozen=True)
class HighlightSimilarStatement(Statement):
    """``HIGHLIGHT SIMILAR IUNITS IN view WHERE SIMILARITY(v, i) > tau``."""

    view: str
    pivot_value: str
    iunit_id: int
    threshold: float
    spans: Optional[Dict[str, Span]] = _spans_field()


@dataclass(frozen=True)
class ReorderRowsStatement(Statement):
    """``REORDER ROWS IN view ORDER BY SIMILARITY(v) DESC``."""

    view: str
    pivot_value: str
    descending: bool = True
    spans: Optional[Dict[str, Span]] = _spans_field()


@dataclass(frozen=True)
class DescribeStatement(Statement):
    """``DESCRIBE table`` — schema, kinds and queriability."""

    table: str
    spans: Optional[Dict[str, Span]] = _spans_field()


@dataclass(frozen=True)
class ShowCadViewsStatement(Statement):
    """``SHOW CADVIEWS`` — names of the registered CAD Views."""


@dataclass(frozen=True)
class DropCadViewStatement(Statement):
    """``DROP CADVIEW name`` — forget a registered CAD View."""

    name: str
    spans: Optional[Dict[str, Span]] = _spans_field()


@dataclass(frozen=True)
class ExplainStatement(Statement):
    """``EXPLAIN [ANALYZE|CHECK] <statement>``.

    Plain EXPLAIN describes the plan the inner statement would run;
    EXPLAIN ANALYZE executes it under a fresh tracer and renders the
    resulting span tree with per-phase timings and counters; EXPLAIN
    CHECK runs only the semantic analyzer and renders its diagnostics
    without executing anything.
    """

    inner: Statement
    analyze: bool = False
    check: bool = False


def catalog_write(stmt: Statement) -> Optional[Tuple[str, str]]:
    """``("create"|"drop"|"reorder", view)`` if running ``stmt`` changes
    the CAD View catalog, else ``None``: the one rule journaling,
    routing and recovery follow.  ``EXPLAIN ANALYZE`` executes its inner
    statement; plain ``EXPLAIN`` and ``EXPLAIN CHECK`` execute nothing.
    """
    if isinstance(stmt, ExplainStatement):
        return catalog_write(stmt.inner) if stmt.analyze else None
    if isinstance(stmt, CreateCadViewStatement):
        return ("create", stmt.name)
    if isinstance(stmt, DropCadViewStatement):
        return ("drop", stmt.name)
    if isinstance(stmt, ReorderRowsStatement):
        return ("reorder", stmt.view)
    return None
