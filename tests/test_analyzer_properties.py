"""Property-based tests of the semantic analyzer.

Two invariants, per the issue:

1. the analyzer never crashes on *any* statement the parser accepts —
   whatever text or predicate tree gets through ``parse``, ``analyze``
   returns a report (it may be full of errors, but it returns);
2. analyzer-clean SELECTs execute without :class:`AnalysisError` — an
   ok report is a promise that the gate will not fire.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DBExplorer
from repro.dataset import AttrKind, Attribute, Schema, Table
from repro.errors import AnalysisError, ParseError
from repro.query import (
    And, Between, Cmp, Eq, In, IsMissing, Ne, Not, Or, Predicate,
    SelectStatement, parse,
)
from repro.query.analyzer import Analyzer
from repro.query.diagnostics import levenshtein

SCHEMA = Schema([
    Attribute("cat", AttrKind.CATEGORICAL),
    Attribute("num", AttrKind.NUMERIC),
])

TABLE = Table.from_rows(SCHEMA, [
    {"cat": c, "num": n}
    for c in ("alpha", "beta", "gamma", None)
    for n in (0.0, 1.5, 7.0, 42.0, None)
])


def _explorer() -> DBExplorer:
    dbx = DBExplorer()
    dbx.register("T", TABLE)
    return dbx


DBX = _explorer()

# identifiers/values chosen to hit both resolving and non-resolving
# names, both type-compatible and incompatible literals
_attrs = st.sampled_from(["cat", "num", "ghost", "CAT"])
_values = st.one_of(
    st.sampled_from(["alpha", "beta", "nope", "it's"]),
    st.floats(min_value=-50, max_value=50, allow_nan=False, width=16),
)


def _leaf() -> st.SearchStrategy[Predicate]:
    return st.one_of(
        st.builds(Eq, _attrs, _values),
        st.builds(Ne, _attrs, _values),
        st.builds(In, _attrs, st.lists(_values, min_size=1, max_size=3)),
        st.builds(
            lambda a, lo, d: Between(a, lo, lo + abs(d)),
            _attrs,
            st.floats(min_value=-50, max_value=50, allow_nan=False,
                      width=16),
            st.floats(min_value=0, max_value=50, allow_nan=False,
                      width=16),
        ),
        st.builds(
            Cmp, _attrs, st.sampled_from(["<", "<=", ">", ">="]),
            st.floats(min_value=-50, max_value=50, allow_nan=False,
                      width=16),
        ),
        st.builds(IsMissing, _attrs),
    )


def _predicates() -> st.SearchStrategy[Predicate]:
    return st.recursive(
        _leaf(),
        lambda children: st.one_of(
            st.builds(lambda a, b: And([a, b]), children, children),
            st.builds(lambda a, b: Or([a, b]), children, children),
            st.builds(Not, children),
        ),
        max_leaves=8,
    )


def _select_sql() -> st.SearchStrategy[str]:
    """SELECT statements via to_sql of generated predicates."""
    tables = st.sampled_from(["T", "Ghost"])
    columns = st.sampled_from(["*", "cat", "num", "cat, num", "wat"])
    return st.builds(
        lambda t, c, p: (
            f"SELECT {c} FROM {t} WHERE {p.to_sql()}"
        ),
        tables, columns, _predicates(),
    )


@given(_select_sql())
@settings(max_examples=150, deadline=None)
def test_analyzer_never_crashes_on_parser_accepted_text(sql):
    """Whatever parses must analyze: a report comes back, no exception."""
    try:
        stmt = parse(sql)
    except ParseError:
        return  # not parser-accepted: out of scope
    report = DBX.analyze(stmt, text=sql)
    assert report.codes() is not None
    report.render()     # rendering must not crash either
    report.as_dict()


@given(_predicates())
@settings(max_examples=150, deadline=None)
def test_analyzer_never_crashes_on_programmatic_statements(pred):
    """Statements built without the parser (no spans) analyze fine."""
    stmt = SelectStatement("T", where=pred)
    report = DBX.analyze(stmt)
    report.render()


@given(_predicates())
@settings(max_examples=100, deadline=None)
def test_clean_selects_execute_without_analysis_error(pred):
    """An ok report is a promise: the gate will not fire on execute."""
    sql = f"SELECT * FROM T WHERE {pred.to_sql()}"
    try:
        stmt = parse(sql)
    except ParseError:
        return
    report = DBX.analyze(stmt, text=sql)
    if not report.ok:
        return
    try:
        DBX.execute(sql)
    except AnalysisError as exc:  # pragma: no cover - the property
        pytest.fail(f"gate fired on an analyzer-clean statement: {exc}")


@given(_predicates())
@settings(max_examples=100, deadline=None)
def test_contradiction_reports_imply_empty_masks(pred):
    """QA301 claims the WHERE matches no row — the mask must agree."""
    stmt = SelectStatement("T", where=pred)
    report = Analyzer(engine=DBX.engine).analyze(stmt)
    error_codes = {d.code for d in report.errors}
    # only when the contradiction is the sole defect is the mask even
    # evaluable — type errors (QA1xx/QA2xx) make mask() raise instead
    if error_codes == {"QA301"}:
        assert not pred.mask(TABLE).any(), pred.to_sql()


@given(st.text(max_size=12), st.text(max_size=12))
@settings(max_examples=200, deadline=None)
def test_levenshtein_symmetry_and_identity(a, b):
    cap = 30
    d_ab = levenshtein(a, b, cap=cap)
    d_ba = levenshtein(b, a, cap=cap)
    assert d_ab == d_ba
    assert levenshtein(a, a, cap=cap) == 0
    if d_ab <= cap:
        assert d_ab <= max(len(a), len(b))
