"""Seeded statement scripts for the benchmark's three workloads.

Nothing here imports :mod:`repro`: a script is plain data (SQL text
plus what each statement is expected to return), generated from a
seed, so the same seed always yields the same statements.

* ``explore`` / ``explore-procs`` share one generator.  A session
  narrows a selection with facet-style SELECTs, builds a CAD View on
  it, searches inside the view, lists the catalog and drops the view::

      SELECT x4 (narrowing prefixes), SELECT ... ORDER BY,
      CREATE CADVIEW ... LIMIT COLUMNS 4 IUNITS 3, HIGHLIGHT x2,
      REORDER, SHOW CADVIEWS, a contradictory SELECT, DROP CADVIEW

* ``worst-build`` is the paper's Fig. 8 worst case as SQL: a wide view
  (the explorer runs with ``compare_limit=11, iunits_k=6,
  generated_l=15``) pivoting on ``Make`` over the five Table-1 makes,
  cut by Year/Price, then ``HIGHLIGHT x2``, ``REORDER`` and ``DROP``.

Selections come from fixed catalogs whose result sizes on the
40,000-row used-car table (dataset seed 7) were measured when the
catalogs were written; the benchmark's tests re-check every count.
A run covers its catalog in equal proportion (each entry once per
pass, in a seeded order), so two seeds build the same multiset of
result sets and differ in session order and in the facet and search
arguments.  That keeps percentiles steady from seed to seed without
fixing the inputs.

The in-view search statements name pivot values and IUnit ids that
exist only once the session's CREATE has answered, so they are
templates with seeded picks in ``[0, 1)`` that :func:`resolve` fills
from the CREATE result.  Builds are seeded, so the resolved text is as
deterministic as the rest of the script.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

__all__ = [
    "WORKLOADS", "ROWS", "DATA_SEED", "CLASSES", "CLASS_OF", "MUTATING",
    "Selection", "Stmt", "Session", "script", "warmup_session",
    "sessions_for", "resolve", "check",
]

WORKLOADS = ("explore", "worst-build", "explore-procs")

ROWS = 40_000
"""The used-car table size: the paper's YahooUsedCar scale."""

DATA_SEED = 7
"""Dataset seed: the convention the CLI and the proc workers use."""

SESSION_RATE = {"explore": 8.0, "worst-build": 20 / 3, "explore-procs": 8.0}
"""Sessions per second of ``--seconds``.  At the default 15 s this is
120 explore sessions (one pass over the catalog) and 100 worst-build
sessions: the fewest that give a one-build-per-session class 10
samples beyond the p90."""

CLASSES = ("build", "search", "query")

CLASS_OF = {
    "create": "build",
    "highlight": "search",
    "reorder": "search",
    "select": "query",
    "select_order": "query",
    "show": "query",
    "drop": "query",
    "rejected": "query",
}
"""Statement type -> latency class (the build/search/query metrics)."""

MUTATING = frozenset({"create", "reorder", "drop"})
"""Types that write the view catalog (WAL-fsync'd before their ack
under the process transport)."""

FIVE_MAKES = "Make IN (Ford, Chevrolet, Toyota, Honda, Jeep)"

FACET_COLUMNS = (
    "Make", "Model", "BodyType", "Price", "Mileage", "Year",
    "Drivetrain", "Color", "FuelEconomy", "Transmission",
)
NUMERIC_COLUMNS = ("Price", "Mileage", "Year", "FuelEconomy")

# (attribute, lower, upper) with lower >= upper: "x > lower AND
# x < upper" can never hold, so the analyzer must reject it unexecuted
_CONTRADICTIONS = (
    ("Price", 9000, 5000), ("Price", 30000, 12000),
    ("Mileage", 80000, 40000), ("Mileage", 25000, 10000),
    ("Year", 2011, 2008), ("FuelEconomy", 30, 20),
)


class Selection(NamedTuple):
    """One explore catalog entry: a 1-3 conjunct selection.

    ``rows`` is its result size on the 40K table; ``pinned`` are the
    Compare Attributes the CREATE names explicitly.
    """

    rows: int
    pivot: str
    pinned: Tuple[str, ...]
    conjuncts: Tuple[str, ...]


@dataclass(frozen=True)
class Stmt:
    """One scripted statement and what it must return.

    ``sql`` is final text, except for the search types whose ``{pv}`` /
    ``{iu}`` placeholders :func:`resolve` fills using ``picks``.
    """

    kind: str
    sql: str
    expect: str = "ok"
    limit: Optional[int] = None
    columns: Tuple[str, ...] = ()
    order: Optional[Tuple[str, bool]] = None   # (key, descending)
    picks: Tuple[float, ...] = ()


@dataclass(frozen=True)
class Session:
    """One closed-loop session: its own session name and view."""

    name: str
    view: str
    pivot: str
    rows: int          # expected CREATE result size
    k: int             # IUNITS: most IUnits a row may show
    compare_limit: int
    statements: Tuple[Stmt, ...]


def sessions_for(workload: str, seconds: float) -> int:
    """The fixed session count of one run of ``seconds``."""
    return max(1, int(round(seconds * SESSION_RATE[workload])))


def script(workload: str, seed: int, sessions: int) -> List[Session]:
    """The seeded session list of one run.

    ``explore-procs`` deliberately shares ``explore``'s generator, so
    the two transports execute byte-identical statement streams.
    """
    family = "worst-build" if workload == "worst-build" else "explore"
    rng = random.Random(f"{family}:{seed}")
    catalog = _catalog(family)
    order: List[int] = []
    while len(order) < sessions:
        perm = list(range(len(catalog)))
        rng.shuffle(perm)
        order.extend(perm)
    return [
        _session(family, i, catalog[j], random.Random(rng.getrandbits(64)))
        for i, j in enumerate(order[:sessions])
    ]


def warmup_session(workload: str) -> Session:
    """The fixed warm-up session that ends every workload's set-up."""
    family = "worst-build" if workload == "worst-build" else "explore"
    catalog = _catalog(family)
    return _session(
        family, 0, catalog[len(catalog) // 2], random.Random(family),
        prefix="warm",
    )


def _catalog(family: str):
    return WORST_BUILD_CUTS if family == "worst-build" else EXPLORE_SELECTIONS


def _session(family, index, entry, rng, prefix="s") -> Session:
    if family == "worst-build":
        return _worst_build_session(index, entry, rng, prefix)
    return _explore_session(index, entry, rng, prefix)


def _explore_session(
    index: int, sel: Selection, rng: random.Random, prefix: str
) -> Session:
    view = f"{prefix}v{index:04d}"
    conj = sel.conjuncts
    where = " AND ".join(conj)
    stmts: List[Stmt] = []
    # facet clicks: one conjunct, two, then the full selection twice
    # with other columns (a single-conjunct path repeats its one facet)
    for prefix_len in (1, min(2, len(conj)), len(conj), len(conj)):
        cols = tuple(rng.sample(FACET_COLUMNS, rng.randint(2, 3)))
        limit = rng.choice((5, 10, 20, 50))
        stmts.append(Stmt(
            "select",
            f"SELECT {', '.join(cols)} FROM data "
            f"WHERE {' AND '.join(conj[:prefix_len])} LIMIT {limit}",
            limit=limit, columns=cols,
        ))
    key = rng.choice(NUMERIC_COLUMNS)
    descending = rng.random() < 0.5
    cols = (key,) + tuple(rng.sample(
        [c for c in FACET_COLUMNS if c != key], rng.randint(1, 2)
    ))
    limit = rng.choice((5, 10, 20, 50))
    stmts.append(Stmt(
        "select_order",
        f"SELECT {', '.join(cols)} FROM data WHERE {where} "
        f"ORDER BY {key} {'DESC' if descending else 'ASC'} LIMIT {limit}",
        limit=limit, columns=cols, order=(key, descending),
    ))
    stmts.append(Stmt(
        "create",
        f"CREATE CADVIEW {view} AS SET pivot = {sel.pivot} "
        f"SELECT {', '.join(sel.pinned)} FROM data WHERE {where} "
        f"LIMIT COLUMNS 4 IUNITS 3",
    ))
    stmts.extend(_searches(view, rng, thresholds=(0.5, 1.0, 1.5, 2.0, 2.5)))
    stmts.append(Stmt("show", "SHOW CADVIEWS"))
    attr, lower, upper = rng.choice(_CONTRADICTIONS)
    stmts.append(Stmt(
        "rejected",
        f"SELECT {attr}, Make FROM data "
        f"WHERE {attr} > {lower} AND {attr} < {upper}",
        expect="analysis_error",
    ))
    stmts.append(Stmt("drop", f"DROP CADVIEW {view}"))
    return Session(
        name=f"{prefix}{index:04d}", view=view, pivot=sel.pivot,
        rows=sel.rows, k=3, compare_limit=4, statements=tuple(stmts),
    )


def _worst_build_session(
    index: int, cut: Tuple[int, str], rng: random.Random, prefix: str
) -> Session:
    rows, extra = cut
    view = f"{prefix}w{index:04d}"
    where = FIVE_MAKES + (f" AND {extra}" if extra else "")
    stmts = [Stmt(
        "create",
        f"CREATE CADVIEW {view} AS SET pivot = Make SELECT * FROM data "
        f"WHERE {where}",
    )]
    stmts.extend(_searches(view, rng, thresholds=(3.0, 4.0, 5.0, 6.0)))
    stmts.append(Stmt("drop", f"DROP CADVIEW {view}"))
    return Session(
        name=f"{prefix}{index:04d}", view=view, pivot="Make", rows=rows,
        k=6, compare_limit=11, statements=tuple(stmts),
    )


def _searches(view: str, rng: random.Random, thresholds) -> List[Stmt]:
    out = []
    for _ in range(2):
        out.append(Stmt(
            "highlight",
            f"HIGHLIGHT SIMILAR IUNITS IN {view} WHERE "
            f"SIMILARITY('{{pv}}', {{iu}}) > {rng.choice(thresholds)}",
            picks=(rng.random(), rng.random()),
        ))
    direction = "DESC" if rng.random() < 0.75 else "ASC"
    out.append(Stmt(
        "reorder",
        f"REORDER ROWS IN {view} ORDER BY SIMILARITY('{{pv}}') {direction}",
        picks=(rng.random(),),
    ))
    return out


def resolve(stmt: Stmt, created: Optional[Mapping]) -> str:
    """Final SQL text; search templates take their arguments from the
    session's CREATE result (its ``result_payload`` dict)."""
    if not stmt.picks:
        return stmt.sql
    if not isinstance(created, Mapping) or not created.get("pivot_values"):
        # the CREATE failed (already counted); name a value that cannot
        # exist so this statement fails visibly instead of being skipped
        return stmt.sql.format(pv="<no view>", iu=1)
    values = list(created["pivot_values"])
    pv = values[int(stmt.picks[0] * len(values))]
    units = len(created["rows"].get(pv) or ()) or 1
    iu = 1 + int(stmt.picks[-1] * units)
    return stmt.sql.format(pv=pv, iu=iu)


def check(
    stmt: Stmt,
    session: Session,
    status: str,
    outcome: str,
    payload: object,
    created: Optional[Mapping],
    sql: str,
    ordered: Optional[List[float]] = None,
) -> Optional[str]:
    """Why one statement's outcome is wrong, or ``None`` when it is right.

    The scripted outcome is ``ok`` (and an ``ok`` -- not ``degraded`` --
    serving outcome) or ``analysis_error``; on top, each type has a
    structural check on what it returned.  ``ordered`` is the ORDER BY
    key column of a live result table, when the transport has one: the
    digest payload of a table carries each row's column *names*, not
    its values, so ordering is only checkable in-process.
    """
    if status != stmt.expect:
        return f"status {status!r}, expected {stmt.expect!r}"
    if stmt.expect != "ok":
        return None
    if outcome != "ok":
        return f"outcome {outcome!r}"
    kind = stmt.kind
    if kind in ("select", "select_order"):
        return _check_table(stmt, payload, ordered)
    if kind == "create":
        return _check_view(session, payload)
    if kind == "highlight":
        return None if isinstance(payload, list) else "not a hit list"
    if kind == "reorder":
        return _check_reorder(sql, payload, created)
    if kind == "show":
        if payload != [session.view]:
            return f"catalog {payload!r}, expected [{session.view!r}]"
        return None
    if kind == "drop":
        if not isinstance(payload, list) or session.view in payload:
            return f"catalog after DROP is {payload!r}"
        return None
    return f"unknown statement type {kind!r}"


def _check_table(
    stmt: Stmt, payload: object, ordered: Optional[List[float]]
) -> Optional[str]:
    if not isinstance(payload, Mapping):
        return "not a table"
    if list(payload.get("attributes") or []) != list(stmt.columns):
        return f"columns {payload.get('attributes')!r}"
    data = payload.get("data") or []
    if payload.get("rows") != len(data) or len(data) > (stmt.limit or 0):
        return f"{len(data)} row(s) for LIMIT {stmt.limit}"
    if stmt.order is not None and ordered is not None:
        if ordered != sorted(ordered, reverse=stmt.order[1]):
            return f"rows not ordered by {stmt.order[0]}"
    return None


def _check_view(session: Session, payload: object) -> Optional[str]:
    if not isinstance(payload, Mapping):
        return "not a CAD View"
    if payload.get("name") != session.view or \
            payload.get("pivot_attribute") != session.pivot:
        return "wrong view name or pivot"
    values = payload.get("pivot_values") or []
    rows: Dict = payload.get("rows") or {}
    if not values or set(values) != set(rows):
        return "pivot values and rows disagree"
    if not 0 < len(payload.get("compare_attributes") or ()) \
            <= session.compare_limit:
        return "Compare Attribute count out of range"
    for value in values:
        if not 0 < len(rows[value]) <= session.k:
            return f"{len(rows[value])} IUnits for {value!r} (k={session.k})"
    return None


def _check_reorder(
    sql: str, payload: object, created: Optional[Mapping]
) -> Optional[str]:
    if not isinstance(payload, Mapping) or not isinstance(created, Mapping):
        return "not a CAD View"
    values = list(payload.get("pivot_values") or [])
    if set(values) != set(created.get("pivot_values") or []):
        return "REORDER changed the pivot-value set"
    preferred = sql.split("SIMILARITY('", 1)[1].split("'", 1)[0]
    if not values or values[0] != preferred:
        return f"first row {values[:1]!r}, expected {preferred!r}"
    return None


# ---------------------------------------------------------------------------
# Catalogs.  Counts are result sizes on generate_usedcars(40000, seed=7).

EXPLORE_SELECTIONS: Tuple[Selection, ...] = (
    Selection(1002, "Make", ("Price",), (
        "Price BETWEEN 20K AND 40K", "Year BETWEEN 2006 AND 2010",
        "Mileage > 50000",
    )),
    Selection(1021, "Make", ("Price", "Mileage"), (
        "BodyType = Sedan", "Drivetrain IN ('AWD', '4WD')", "FuelEconomy > 24",
    )),
    Selection(1047, "Make", ("Mileage",), (
        "Price > 25000", "Year <= 2011", "Drivetrain = '2WD'",
    )),
    Selection(1079, "BodyType", ("Price", "Year"), (
        "Price BETWEEN 20K AND 40K", "Year BETWEEN 2006 AND 2010",
        "Make IN (Ford, Chevrolet)",
    )),
    Selection(1105, "Drivetrain", ("FuelEconomy",), (
        "BodyType = Sedan", "Price < 20000", "Make IN (Ford, Chevrolet)",
    )),
    Selection(1137, "Make", ("Price",), (
        "BodyType IN (Sedan, Truck)", "Price < 15000", "Mileage < 45K",
    )),
    Selection(1162, "BodyType", ("Price", "Mileage"), (
        "Price > 25000", "Color IN (Black, White, Silver)",
        "Make IN (Toyota, Honda, Nissan)",
    )),
    Selection(1193, "Make", ("Mileage",), (
        "Price < 15000", "Year >= 2010", "Drivetrain = '2WD'",
    )),
    Selection(1221, "Make", ("Price", "Year"), (
        "BodyType = Sedan", "Drivetrain IN ('AWD', '4WD')",
    )),
    Selection(1256, "Make", ("FuelEconomy",), (
        "Price < 15000", "Year >= 2010", "FuelEconomy > 24",
    )),
    Selection(1287, "Make", ("Price",), (
        "BodyType IN (Sedan, Truck)", "Color IN (Black, White, Silver)",
        "FuelEconomy BETWEEN 18 AND 26",
    )),
    Selection(1318, "Make", ("Price", "Mileage"), (
        "Price BETWEEN 20K AND 40K", "Color IN (Gray, Blue, Red)",
        "FuelEconomy > 24",
    )),
    Selection(1352, "Make", ("Mileage",), (
        "Price > 25000", "Year <= 2011", "Mileage < 30000",
    )),
    Selection(1385, "Drivetrain", ("Price", "Year"), (
        "BodyType = Sedan", "Color IN (Black, White, Silver)",
        "Make IN (Ford, Chevrolet)",
    )),
    Selection(1422, "Make", ("FuelEconomy",), (
        "BodyType IN (Sedan, Truck)", "Price BETWEEN 20K AND 40K",
        "Drivetrain IN ('AWD', '4WD')",
    )),
    Selection(1453, "BodyType", ("Price",), (
        "Color IN (Black, White, Silver)", "Make IN (Ford, Chevrolet)",
        "FuelEconomy > 24",
    )),
    Selection(1495, "Make", ("Price", "Mileage"), (
        "BodyType = Sedan", "Year <= 2011", "Mileage < 45K",
    )),
    Selection(1533, "Make", ("Mileage",), (
        "Price > 25000", "Color IN (Black, White, Silver)",
        "FuelEconomy BETWEEN 18 AND 26",
    )),
    Selection(1573, "Make", ("Price", "Year"), (
        "Year BETWEEN 2006 AND 2010", "Mileage < 30000",
        "Transmission = Automatic",
    )),
    Selection(1612, "BodyType", ("FuelEconomy",), (
        "Year BETWEEN 2006 AND 2010", "Drivetrain IN ('AWD', '4WD')",
        "Make IN (Toyota, Honda, Nissan)",
    )),
    Selection(1658, "Make", ("Price",), (
        "BodyType IN (Sedan, Truck)", "Year >= 2010",
        "FuelEconomy BETWEEN 18 AND 26",
    )),
    Selection(1696, "Make", ("Price", "Mileage"), (
        "BodyType = Sedan", "Mileage < 30000", "Color IN (Gray, Blue, Red)",
    )),
    Selection(1748, "BodyType", ("Mileage",), (
        "Year BETWEEN 2006 AND 2010", "Drivetrain IN ('AWD', '4WD')",
        "Make IN (Ford, Chevrolet)",
    )),
    Selection(1787, "BodyType", ("Price", "Year"), (
        "Year BETWEEN 2006 AND 2010", "Make IN (Ford, Toyota, Jeep, Honda)",
        "FuelEconomy BETWEEN 18 AND 26",
    )),
    Selection(1829, "Drivetrain", ("FuelEconomy",), (
        "BodyType = Sedan", "Color IN (Gray, Blue, Red)",
        "Make IN (Ford, Toyota, Jeep, Honda)",
    )),
    Selection(1874, "BodyType", ("Price",), (
        "Year BETWEEN 2006 AND 2010", "Mileage < 45K",
        "Make IN (Toyota, Honda, Nissan)",
    )),
    Selection(1923, "Make", ("Price", "Mileage"), (
        "BodyType = Sedan", "Drivetrain = '2WD'",
        "FuelEconomy BETWEEN 18 AND 26",
    )),
    Selection(1973, "Make", ("Mileage",), (
        "Mileage BETWEEN 20K AND 60K", "Drivetrain IN ('AWD', '4WD')",
        "FuelEconomy > 24",
    )),
    Selection(2025, "BodyType", ("Price", "Year"), (
        "Year BETWEEN 2006 AND 2010", "Color IN (Gray, Blue, Red)",
        "Make IN (Toyota, Honda, Nissan)",
    )),
    Selection(2075, "Make", ("FuelEconomy",), (
        "BodyType = Sedan", "Year >= 2011", "Mileage BETWEEN 20K AND 60K",
    )),
    Selection(2125, "BodyType", ("Price",), (
        "Price < 20000", "Mileage < 30000", "Make IN (Toyota, Honda, Nissan)",
    )),
    Selection(2183, "Drivetrain", ("Price", "Mileage"), (
        "BodyType IN (Sedan, Truck)", "Price < 20000",
        "Make IN (Ford, Chevrolet)",
    )),
    Selection(2240, "Make", ("Mileage",), (
        "BodyType IN (Sedan, Truck)", "Price BETWEEN 20K AND 40K",
        "Color IN (Black, White, Silver)",
    )),
    Selection(2298, "Make", ("Price", "Year"), (
        "Drivetrain IN ('AWD', '4WD')", "Color IN (Black, White, Silver)",
        "FuelEconomy > 24",
    )),
    Selection(2353, "Make", ("FuelEconomy",), (
        "Price < 20000", "Color IN (Gray, Blue, Red)",
        "FuelEconomy BETWEEN 18 AND 26",
    )),
    Selection(2414, "BodyType", ("Price",), (
        "Mileage < 30000", "Color IN (Gray, Blue, Red)",
        "Make IN (Ford, Chevrolet)",
    )),
    Selection(2475, "Make", ("Price", "Mileage"), (
        "Mileage > 50000", "FuelEconomy BETWEEN 18 AND 26",
    )),
    Selection(2533, "Drivetrain", ("Mileage",), (
        "BodyType IN (Sedan, Truck)", "Mileage BETWEEN 20K AND 60K",
        "Make IN (Toyota, Honda, Nissan)",
    )),
    Selection(2605, "Make", ("Price", "Year"), (
        "BodyType = Sedan", "Mileage BETWEEN 20K AND 60K",
        "Color IN (Black, White, Silver)",
    )),
    Selection(2669, "Drivetrain", ("FuelEconomy",), (
        "BodyType = Sedan", "Mileage > 50000",
        "Make IN (Ford, Toyota, Jeep, Honda)",
    )),
    Selection(2739, "Make", ("Price",), (
        "Price BETWEEN 20K AND 40K", "Year BETWEEN 2006 AND 2010",
        "Transmission = Automatic",
    )),
    Selection(2805, "Make", ("Price", "Mileage"), (
        "Price < 20000", "Mileage > 50000", "Drivetrain IN ('AWD', '4WD')",
    )),
    Selection(2874, "Make", ("Mileage",), (
        "Price > 25000", "Year <= 2011", "Transmission = Automatic",
    )),
    Selection(2946, "Make", ("Price", "Year"), (
        "BodyType = SUV", "Year <= 2011", "FuelEconomy > 24",
    )),
    Selection(3031, "Color", ("FuelEconomy",), (
        "BodyType IN (Sedan, Truck)", "Drivetrain = '2WD'",
        "Make IN (Ford, Chevrolet)",
    )),
    Selection(3104, "BodyType", ("Price",), (
        "Price < 15000", "Mileage > 50000", "Make IN (Toyota, Honda, Nissan)",
    )),
    Selection(3180, "BodyType", ("Price", "Mileage"), (
        "Price < 20000", "Mileage < 30000",
        "Make IN (Ford, Toyota, Jeep, Honda)",
    )),
    Selection(3266, "Make", ("Mileage",), (
        "Price < 20000", "Mileage BETWEEN 20K AND 60K",
        "Drivetrain IN ('AWD', '4WD')",
    )),
    Selection(3351, "Make", ("Price", "Year"), (
        "Price > 25000", "Year >= 2011", "Color IN (Gray, Blue, Red)",
    )),
    Selection(3434, "BodyType", ("FuelEconomy",), (
        "Price < 20000", "Drivetrain IN ('AWD', '4WD')",
        "Make IN (Ford, Toyota, Jeep, Honda)",
    )),
    Selection(3521, "Drivetrain", ("Price",), (
        "BodyType IN (Sedan, Truck)", "Price BETWEEN 10K AND 25K",
        "Make IN (Toyota, Honda, Nissan)",
    )),
    Selection(3614, "Make", ("Price", "Mileage"), (
        "BodyType = SUV", "Color IN (Black, White, Silver)",
        "FuelEconomy > 24",
    )),
    Selection(3705, "Make", ("Mileage",), (
        "BodyType = SUV", "Price < 20000", "FuelEconomy > 24",
    )),
    Selection(3800, "Make", ("Price", "Year"), (
        "Price BETWEEN 10K AND 25K", "Year BETWEEN 2006 AND 2010",
        "Color IN (Gray, Blue, Red)",
    )),
    Selection(3894, "Make", ("FuelEconomy",), (
        "Price < 20000", "Color IN (Black, White, Silver)",
        "FuelEconomy BETWEEN 18 AND 26",
    )),
    Selection(3991, "BodyType", ("Price",), (
        "Year <= 2011", "Mileage BETWEEN 20K AND 60K",
        "Make IN (Toyota, Honda, Nissan)",
    )),
    Selection(4093, "Make", ("Price", "Mileage"), (
        "Price > 25000", "Drivetrain = '2WD'", "Transmission = Automatic",
    )),
    Selection(4200, "BodyType", ("Mileage",), (
        "Price < 20000", "Make IN (Ford, Chevrolet)",
        "Transmission = Automatic",
    )),
    Selection(4307, "Make", ("Price", "Year"), (
        "Year >= 2010", "Drivetrain IN ('AWD', '4WD')",
        "Color IN (Gray, Blue, Red)",
    )),
    Selection(4416, "Make", ("FuelEconomy",), (
        "Mileage < 30000", "Color IN (Black, White, Silver)",
        "FuelEconomy > 24",
    )),
    Selection(4528, "Make", ("Price",), (
        "Price < 20000", "Year >= 2011", "Drivetrain = '2WD'",
    )),
    Selection(4632, "Make", ("Price", "Mileage"), (
        "Year >= 2011", "Color IN (Black, White, Silver)", "FuelEconomy > 24",
    )),
    Selection(4765, "Make", ("Mileage",), (
        "Mileage < 30000", "Color IN (Black, White, Silver)",
        "FuelEconomy BETWEEN 18 AND 26",
    )),
    Selection(4874, "BodyType", ("Price", "Year"), (
        "Price BETWEEN 10K AND 25K", "Mileage BETWEEN 20K AND 60K",
        "Make IN (Toyota, Honda, Nissan)",
    )),
    Selection(5009, "BodyType", ("FuelEconomy",), (
        "Price BETWEEN 10K AND 25K", "Year <= 2011",
        "Make IN (Ford, Chevrolet)",
    )),
    Selection(5135, "Make", ("Price",), ("BodyType = Sedan", "Year >= 2011")),
    Selection(5265, "BodyType", ("Price", "Mileage"), (
        "Make IN (Ford, Chevrolet)", "FuelEconomy BETWEEN 18 AND 26",
        "Transmission = Automatic",
    )),
    Selection(5401, "Make", ("Mileage",), (
        "Price < 20000", "Mileage > 50000", "Color IN (Black, White, Silver)",
    )),
    Selection(5537, "BodyType", ("Price", "Year"), (
        "Price BETWEEN 20K AND 40K", "Mileage BETWEEN 20K AND 60K",
        "Make IN (Ford, Toyota, Jeep, Honda)",
    )),
    Selection(5680, "Make", ("FuelEconomy",), (
        "Year BETWEEN 2006 AND 2010", "Mileage > 50000",
        "Color IN (Black, White, Silver)",
    )),
    Selection(5827, "Drivetrain", ("Price",), (
        "BodyType = SUV", "Year >= 2010", "Make IN (Toyota, Honda, Nissan)",
    )),
    Selection(5977, "Make", ("Price", "Mileage"), (
        "Price BETWEEN 10K AND 25K", "Mileage < 30000",
        "FuelEconomy BETWEEN 18 AND 26",
    )),
    Selection(6128, "Make", ("Mileage",), (
        "Price < 20000", "Color IN (Gray, Blue, Red)",
        "Transmission = Automatic",
    )),
    Selection(6280, "Drivetrain", ("Price", "Year"), (
        "BodyType IN (Sedan, Truck)", "Make IN (Toyota, Honda, Nissan)",
    )),
    Selection(6437, "Make", ("FuelEconomy",), (
        "Mileage BETWEEN 20K AND 60K", "FuelEconomy > 24",
        "Transmission = Automatic",
    )),
    Selection(6605, "Drivetrain", ("Price",), (
        "BodyType = SUV", "Make IN (Toyota, Honda, Nissan)",
    )),
    Selection(6776, "Make", ("Price", "Mileage"), (
        "BodyType IN (Sedan, Truck)", "Price < 20000", "Mileage > 50000",
    )),
    Selection(6941, "Make", ("Mileage",), (
        "BodyType IN (Sedan, Truck)", "Year <= 2011", "FuelEconomy > 24",
    )),
    Selection(7125, "Make", ("Price", "Year"), (
        "Drivetrain = '2WD'", "Color IN (Gray, Blue, Red)",
        "Transmission = Automatic",
    )),
    Selection(7306, "Make", ("FuelEconomy",), (
        "BodyType = SUV", "Year <= 2011", "Color IN (Black, White, Silver)",
    )),
    Selection(7497, "BodyType", ("Price",), (
        "Year >= 2010", "Mileage < 45K", "Make IN (Toyota, Honda, Nissan)",
    )),
    Selection(7690, "Make", ("Price", "Mileage"), (
        "BodyType = SUV", "Price < 20000", "Transmission = Automatic",
    )),
    Selection(7878, "BodyType", ("Mileage",), (
        "Price BETWEEN 10K AND 25K", "Mileage BETWEEN 20K AND 60K",
        "Make IN (Ford, Toyota, Jeep, Honda)",
    )),
    Selection(8088, "Make", ("Price", "Year"), (
        "Color IN (Black, White, Silver)", "FuelEconomy BETWEEN 18 AND 26",
    )),
    Selection(8283, "Make", ("FuelEconomy",), (
        "BodyType = SUV", "Price BETWEEN 20K AND 40K",
        "Color IN (Black, White, Silver)",
    )),
    Selection(8499, "Make", ("Price",), (
        "Price BETWEEN 10K AND 25K", "Year <= 2011",
        "Color IN (Black, White, Silver)",
    )),
    Selection(8714, "Make", ("Price", "Mileage"), (
        "BodyType = SUV", "Price BETWEEN 20K AND 40K",
        "Drivetrain IN ('AWD', '4WD')",
    )),
    Selection(8943, "Make", ("Mileage",), (
        "BodyType IN (Sedan, Truck)", "Price < 20000", "Year <= 2011",
    )),
    Selection(9165, "Make", ("Price", "Year"), (
        "BodyType IN (Sedan, Truck)", "Year BETWEEN 2006 AND 2010",
    )),
    Selection(9415, "Make", ("FuelEconomy",), (
        "BodyType = SUV", "Year >= 2010", "Drivetrain = '2WD'",
    )),
    Selection(9624, "BodyType", ("Price",), (
        "Price BETWEEN 20K AND 40K", "Mileage < 45K",
        "Make IN (Ford, Toyota, Jeep, Honda)",
    )),
    Selection(9887, "Make", ("Price", "Mileage"), (
        "Year <= 2011", "FuelEconomy > 24",
    )),
    Selection(10136, "Make", ("Mileage",), (
        "Price BETWEEN 20K AND 40K", "Drivetrain IN ('AWD', '4WD')",
    )),
    Selection(10399, "Make", ("Price", "Year"), (
        "BodyType = Sedan", "Price < 20000",
    )),
    Selection(10673, "BodyType", ("FuelEconomy",), (
        "Price BETWEEN 10K AND 25K", "Year >= 2010",
        "Make IN (Ford, Toyota, Jeep, Honda)",
    )),
    Selection(10899, "Make", ("Price",), (
        "Year >= 2010", "Mileage < 45K", "FuelEconomy BETWEEN 18 AND 26",
    )),
    Selection(11224, "BodyType", ("Price", "Mileage"), (
        "Color IN (Black, White, Silver)",
        "Make IN (Ford, Toyota, Jeep, Honda)", "Transmission = Automatic",
    )),
    Selection(11515, "Make", ("Mileage",), (
        "BodyType IN (Sedan, Truck)", "Drivetrain = '2WD'",
        "Transmission = Automatic",
    )),
    Selection(11755, "Make", ("Price", "Year"), (
        "Drivetrain = '2WD'", "FuelEconomy > 24", "Transmission = Automatic",
    )),
    Selection(12067, "BodyType", ("FuelEconomy",), (
        "Drivetrain = '2WD'", "Make IN (Ford, Toyota, Jeep, Honda)",
    )),
    Selection(12417, "BodyType", ("Price",), (
        "Year <= 2011", "Make IN (Ford, Toyota, Jeep, Honda)",
    )),
    Selection(12722, "Make", ("Price", "Mileage"), (
        "BodyType = SUV", "Drivetrain IN ('AWD', '4WD')",
        "Transmission = Automatic",
    )),
    Selection(13029, "Make", ("Mileage",), ("BodyType = SUV", "Year <= 2011")),
    Selection(13388, "Make", ("Price", "Year"), (
        "Year >= 2010", "Drivetrain IN ('AWD', '4WD')",
    )),
    Selection(13699, "Make", ("FuelEconomy",), (
        "BodyType = SUV", "Drivetrain IN ('AWD', '4WD')",
    )),
    Selection(13982, "BodyType", ("Price",), (
        "Mileage < 45K", "Make IN (Ford, Toyota, Jeep, Honda)",
        "Transmission = Automatic",
    )),
    Selection(14444, "Make", ("Price", "Mileage"), (
        "BodyType IN (Sedan, Truck)", "Transmission = Automatic",
    )),
    Selection(14790, "Make", ("Mileage",), (
        "Price < 20000", "Year <= 2011", "Transmission = Automatic",
    )),
    Selection(15119, "BodyType", ("Price", "Year"), (
        "Mileage < 45K", "Make IN (Ford, Toyota, Jeep, Honda)",
    )),
    Selection(15584, "Make", ("FuelEconomy",), (
        "Year >= 2010", "Drivetrain = '2WD'",
    )),
    Selection(15867, "Make", ("Price",), (
        "Price BETWEEN 20K AND 40K", "Year >= 2011",
    )),
    Selection(16300, "BodyType", ("Price", "Mileage"), (
        "Year >= 2010", "Make IN (Ford, Toyota, Jeep, Honda)",
    )),
    Selection(16785, "Make", ("Mileage",), (
        "Price BETWEEN 10K AND 25K", "Mileage < 45K",
    )),
    Selection(17215, "Make", ("Price", "Year"), (
        "Price BETWEEN 20K AND 40K", "Year >= 2010",
        "Transmission = Automatic",
    )),
    Selection(17555, "Make", ("FuelEconomy",), (
        "Price BETWEEN 20K AND 40K", "Transmission = Automatic",
    )),
    Selection(18261, "Make", ("Price",), ("Year >= 2011", "Mileage < 30000")),
    Selection(18499, "Make", ("Price", "Mileage"), (
        "Price BETWEEN 10K AND 25K", "Year >= 2010",
    )),
    Selection(19133, "Make", ("Mileage",), (
        "BodyType = SUV", "Mileage < 45K",
    )),
    Selection(19455, "Make", ("Price", "Year"), (
        "BodyType = SUV", "Year >= 2010", "Transmission = Automatic",
    )),
    Selection(19980, "Make", ("FuelEconomy",), ("Mileage < 30000",)),
)

WORST_BUILD_CUTS: Tuple[Tuple[int, str], ...] = (
    (5144, "Year >= 2011 AND Price < 21K"),
    (5257, "Year <= 2012 AND Price > 28K"),
    (5487, "Price > 29K"),
    (5726, "Year >= 2007 AND Price < 15K"),
    (5951, "Price BETWEEN 28K AND 46K"),
    (6117, "Price BETWEEN 28K AND 50K"),
    (6259, "Price BETWEEN 12K AND 18K"),
    (6656, "Year >= 2008 AND Price < 18K"),
    (6851, "Price BETWEEN 24K AND 34K"),
    (6967, "Price < 15K"),
    (7310, "Price BETWEEN 20K AND 26K"),
    (7526, "Year <= 2010 AND Price > 10K"),
    (7753, "Price > 26K"),
    (7955, "Price BETWEEN 8K AND 18K"),
    (8250, "Price BETWEEN 18K AND 24K"),
    (8394, "Price BETWEEN 22K AND 32K"),
    (8576, "Price > 25K"),
    (8905, "Price < 17K"),
    (9272, "Price BETWEEN 24K AND 46K"),
    (9438, "Price BETWEEN 24K AND 50K"),
    (9722, "Price BETWEEN 10K AND 20K"),
    (9830, "Year >= 2012 AND Price < 33K"),
    (10090, "Price < 18K"),
    (10235, "Price BETWEEN 20K AND 30K"),
    (10579, "Price > 23K"),
    (10760, "Year <= 2010 AND Price > 4K"),
    (11043, "Price BETWEEN 22K AND 40K"),
    (11126, "Year >= 2012 AND Price < 39K"),
    (11514, "Year >= 2012 AND Price < 45K"),
    (11717, "Year >= 2010 AND Price < 24K"),
    (11880, "Year >= 2012"),
    (12183, "Year >= 2011 AND Price < 30K"),
    (12322, "Price BETWEEN 20K AND 34K"),
    (12704, "Year <= 2011 AND Price > 10K"),
    (12768, "Price < 20K"),
    (13093, "Year >= 2007 AND Price < 21K"),
    (13350, "Price > 21K"),
    (13615, "Price BETWEEN 20K AND 38K"),
    (13719, "Price BETWEEN 8K AND 22K"),
    (14051, "Year >= 2006 AND Price < 21K"),
    (14262, "Year >= 2005 AND Price < 21K"),
    (14431, "Price BETWEEN 20K AND 42K"),
    (14733, "Year <= 2012 AND Price > 19K"),
    (14912, "Price > 20K"),
    (15143, "Price BETWEEN 10K AND 24K"),
    (15581, "Price BETWEEN 14K AND 28K"),
    (15724, "Price BETWEEN 18K AND 36K"),
    (15832, "Price < 22K"),
    (16123, "Price BETWEEN 12K AND 26K"),
    (16281, "Year >= 2009 AND Price < 27K"),
    (16432, "Year >= 2010 AND Price < 30K"),
    (16785, "Price BETWEEN 18K AND 40K"),
    (16998, "Year >= 2007 AND Price < 24K"),
    (17222, "Price BETWEEN 16K AND 34K"),
    (17370, "Year >= 2008 AND Price < 27K"),
    (17617, "Price > 18K"),
    (17956, "Year >= 2006 AND Price < 24K"),
    (18167, "Year >= 2005 AND Price < 24K"),
    (18431, "Year >= 2009 AND Price < 30K"),
    (18515, "Price BETWEEN 16K AND 38K"),
    (18813, "Price > 17K"),
    (19048, "Price BETWEEN 12K AND 30K"),
    (19331, "Price BETWEEN 16K AND 42K"),
    (19520, "Year >= 2008 AND Price < 30K"),
    (19756, "Price BETWEEN 14K AND 36K"),
    (20002, "Price < 26K"),
    (20117, "Year >= 2009 AND Price < 33K"),
    (20521, "Year >= 2006 AND Price < 27K"),
    (20669, "Year >= 2010 AND Price < 42K"),
    (20933, "Year >= 2010 AND Price < 45K"),
    (21135, "Price BETWEEN 12K AND 34K"),
    (21309, "Year >= 2010"),
    (21560, "Price < 28K"),
    (21713, "Year >= 2007 AND Price < 30K"),
    (22103, "Year >= 2009 AND Price < 39K"),
    (22267, "Price < 29K"),
    (22617, "Price BETWEEN 10K AND 36K"),
    (22809, "Price > 13K"),
    (22990, "Year <= 2012 AND Price > 10K"),
    (23192, "Year >= 2008 AND Price < 39K"),
    (23399, "Year >= 2007 AND Price < 33K"),
    (23757, "Year >= 2008 AND Price < 42K"),
    (24021, "Year >= 2008 AND Price < 45K"),
    (24178, "Price < 32K"),
    (24357, "Year >= 2006 AND Price < 33K"),
    (24584, "Price > 10K"),
    (24640, "Price < 33K"),
    (25053, "Price < 34K"),
    (25385, "Year >= 2007 AND Price < 39K"),
    (25495, "Year >= 2006 AND Price < 36K"),
    (25778, "Price < 36K"),
    (25950, "Year >= 2007 AND Price < 42K"),
    (26214, "Year >= 2007 AND Price < 45K"),
    (26353, "Price < 38K"),
    (26626, "Price < 39K"),
    (26908, "Year >= 2006 AND Price < 42K"),
    (27119, "Year >= 2005 AND Price < 42K"),
    (27383, "Year >= 2005 AND Price < 45K"),
    (27548, "Year >= 2006"),
    (27831, ""),
)
