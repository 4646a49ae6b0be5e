"""Differential oracles for row selection by index.

Every place that cuts a table now turns a boolean mask into row ids
once and gathers each column at them; a SELECT sorts and cuts the ids
before it gathers only the columns it returns.  Each piece is checked
against the form it replaced, which lives only here: the boolean-mask
``Table.filter`` and ``DiscretizedView.restrict``, ``np.isin`` for a
categorical ``IN``, the sort of decoded category strings, and the
filter -> project -> sort -> head composition a SELECT used to run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DBExplorer
from repro.dataset import AttrKind, Attribute, Column, Schema, Table
from repro.discretize import DiscretizedView, Discretizer
from repro.errors import QueryError, SchemaError
from repro.obs import MetricsRegistry, set_registry, work
from repro.query import (
    And, Between, Cmp, Eq, In, IsMissing, Ne, Not, Or, QueryEngine, TruePred,
)

# ------------------------------------------------------ references


def filter_reference(table, mask):
    """``Table.filter`` as a boolean gather of every column."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (len(table),):
        raise SchemaError(
            f"mask length {mask.shape} does not match table ({len(table)},)"
        )
    columns = {}
    for name in table.schema.names:
        col = table[name]
        data = col.codes if col.attribute.is_categorical else col.numbers
        columns[name] = Column(col.attribute, data[mask], col.categories)
    return Table(table.schema, columns)


def restrict_reference(view, mask):
    """``DiscretizedView.restrict`` as boolean gathers."""
    mask = np.asarray(mask, dtype=bool)
    names = view.attribute_names
    return DiscretizedView(
        filter_reference(view.table, mask),
        {n: view.codes(n)[mask] for n in names},
        {n: view.labels(n) for n in names},
        {n: view.bins(n) for n in names if view.is_binned(n)},
    )


def in_reference(table, attr, values):
    """A categorical ``In.mask`` as ``np.isin`` over the known codes."""
    col = table[attr]
    codes = [col.code_of(str(v)) for v in values]
    codes = [c for c in codes if c >= 0]
    if not codes:
        return np.zeros(len(table), bool)
    return np.isin(col.codes, codes)


def order_by_reference(table, by, ascending):
    """``QueryEngine.order_by`` as a stable sort of decoded strings."""
    if len(by) != len(ascending):
        raise QueryError("order_by: by and ascending differ in length")
    order = np.arange(len(table))
    for name, asc in zip(reversed(by), reversed(ascending)):
        col = table[name]
        if col.attribute.is_categorical:
            decode = np.array(
                list(col.categories) + [chr(0x10FFFF)], dtype=object
            )
            keys = decode[col.codes[order]]
        else:
            nums = col.numbers[order]
            keys = np.where(np.isnan(nums), np.inf, nums)
        idx = np.argsort(keys, kind="stable")
        if not asc:
            idx = idx[::-1]
        order = order[idx]
    return table.take(order)


def select_reference(table, predicate, columns, limit, by, ascending):
    """A SELECT as filter -> project -> sort -> head, counting its work.

    The WHERE mask gathers every column; the projection keeps the
    unselected sort keys until the sort has run.
    """
    work.add("work.query.rows_scanned", len(table))
    if predicate is not None and not isinstance(predicate, TruePred):
        work.add("work.query.predicate_evals", len(table))
    predicate = predicate or TruePred()
    result = filter_reference(table, predicate.mask(table))
    if columns is not None:
        keys = [k for k in dict.fromkeys(by) if k not in columns]
        result = result.project(list(columns) + keys)
    result = order_by_reference(result, by, ascending)
    if columns is not None:
        result = result.project(columns)
    if limit is not None:
        result = result.head(limit)
    return result


def assert_same_table(new, ref):
    """Same schema order, category tuples and bits, NaN payloads too."""
    assert new.schema == ref.schema
    assert new.schema.names == ref.schema.names
    assert len(new) == len(ref)
    for attr in ref.schema:
        a, b = new[attr.name], ref[attr.name]
        assert a.categories == b.categories
        if attr.is_categorical:
            a, b = a.codes, b.codes
        else:
            a, b = a.numbers, b.numbers
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


# ------------------------------------------------------ strategies

CATEGORICAL = ("c0", "c1")
NUMERIC = ("n0", "n1")
NAMES = CATEGORICAL + NUMERIC
SCHEMA = Schema([
    Attribute("c0", AttrKind.CATEGORICAL),
    Attribute("c1", AttrKind.CATEGORICAL),
    Attribute("n0", AttrKind.NUMERIC),
    Attribute("n1", AttrKind.ORDINAL),
])

WORDS = ("a", "b", "B", "ab", "", "é", "a\x00", chr(0x10FFFF), "zz")
"""Category strings: case and prefix ties, a trailing NUL, and the
missing-value sentinel itself as a value."""

NUMBERS = np.concatenate([
    np.array([0.0, -0.0, 1.0, 2.0, 2.5, -1.0, np.inf, -np.inf]),
    np.array(
        [0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000002,
         0x7FF0000000000001],
        dtype=np.uint64,
    ).view(np.float64),
])
"""Number pool: signed zeros, infinities and NaNs of four payloads."""

VALUES = (0, 1, 2, 2.5, -1)


@st.composite
def tables(draw):
    """Tables with missing codes, NaNs, tied keys and unused categories."""
    n = draw(st.integers(0, 40))
    columns = {}
    for name in CATEGORICAL:
        categories = draw(st.lists(
            st.sampled_from(WORDS), unique=True, max_size=6,
        ))
        codes = draw(st.lists(
            st.integers(-1, len(categories) - 1), min_size=n, max_size=n,
        ))
        columns[name] = Column(
            SCHEMA[name], np.array(codes, dtype=np.int32), tuple(categories)
        )
    for name in NUMERIC:
        picks = draw(st.lists(
            st.integers(0, len(NUMBERS) - 1), min_size=n, max_size=n,
        ))
        columns[name] = Column(
            SCHEMA[name], NUMBERS[np.array(picks, dtype=np.intp)]
        )
    return Table(SCHEMA, columns)


def _between(attr, lo, hi):
    return Between(attr, min(lo, hi), max(lo, hi))


_cat = st.sampled_from(CATEGORICAL)
_num = st.sampled_from(NUMERIC)
_word = st.sampled_from(WORDS + ("unknown",))
_value = st.sampled_from(VALUES)
leaves = st.one_of(
    st.builds(Eq, _cat, _word), st.builds(Eq, _num, _value),
    st.builds(Ne, _cat, _word), st.builds(Ne, _num, _value),
    st.builds(In, _cat, st.lists(_word, min_size=1, max_size=4)),
    st.builds(In, _num, st.lists(_value, min_size=1, max_size=3)),
    st.builds(_between, _num, _value, _value),
    st.builds(Cmp, _num, st.sampled_from(("<", "<=", ">", ">=")), _value),
    st.builds(IsMissing, st.sampled_from(NAMES)),
)
predicates = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.lists(kids, min_size=1, max_size=3).map(And),
        st.lists(kids, min_size=1, max_size=3).map(Or),
        kids.map(Not),
    ),
    max_leaves=6,
)
wheres = st.one_of(st.none(), st.just(TruePred()), predicates)
column_lists = st.one_of(
    st.none(),
    st.permutations(NAMES).flatmap(
        lambda names: st.integers(1, len(names)).map(
            lambda k: tuple(names[:k])
        )
    ),
)
order_keys = st.lists(
    st.tuples(st.sampled_from(NAMES), st.booleans()), max_size=3,
)
limits = st.sampled_from((None, -3, -1, 0, 1, 2, 7, 1000))


# ------------------------------------------------------ SELECT


class TestSelect:
    @settings(max_examples=400, deadline=None)
    @given(tables(), wheres, column_lists, order_keys, limits)
    def test_matches_filter_project_sort_head(
        self, table, where, columns, keys, limit
    ):
        by = [k for k, _ in keys]
        ascending = [asc for _, asc in keys]
        with work.track() as new_work:
            new = QueryEngine.select(
                table, where, columns, limit, by=by, ascending=ascending,
            )
        with work.track() as ref_work:
            ref = select_reference(table, where, columns, limit, by, ascending)
        assert_same_table(new, ref)
        assert new_work.as_dict() == ref_work.as_dict()

    @settings(max_examples=200, deadline=None)
    @given(tables(), order_keys)
    def test_order_by_matches_string_sort(self, table, keys):
        by = [k for k, _ in keys]
        ascending = [asc for _, asc in keys]
        assert_same_table(
            QueryEngine.order_by(table, by, ascending),
            order_by_reference(table, by, ascending),
        )

    def test_key_length_mismatch_raises(self, toy_table):
        with pytest.raises(QueryError, match="differ in length"):
            QueryEngine.select(toy_table, by=["city"], ascending=[])

    def test_limit_clamps(self, toy_table):
        assert len(QueryEngine.select(toy_table, limit=-1)) == 0
        assert len(QueryEngine.select(toy_table, limit=0)) == 0
        assert len(QueryEngine.select(toy_table, limit=99)) == len(toy_table)

    def test_rows_returned_counts_the_limited_result(self, cars):
        dbx = DBExplorer()
        dbx.register("data", cars)
        reg = MetricsRegistry()
        previous = set_registry(reg)
        try:
            result = dbx.execute("SELECT Make FROM data LIMIT 5")
        finally:
            set_registry(previous)
        assert len(result) == 5 < len(cars)
        assert reg.counter("query.rows_returned").value == 5
        assert reg.counter("query.select.calls").value == 1


# ------------------------------------------------------ Table.filter


class TestFilter:
    @settings(max_examples=200, deadline=None)
    @given(tables(), st.data())
    def test_matches_boolean_gather(self, table, data):
        mask = np.array(data.draw(st.lists(
            st.booleans(), min_size=len(table), max_size=len(table),
        )), dtype=bool)
        assert_same_table(table.filter(mask), filter_reference(table, mask))

    def test_mask_length_still_checked(self, toy_table):
        with pytest.raises(SchemaError, match="mask length"):
            toy_table.filter(np.ones(len(toy_table) + 1, dtype=bool))

    def test_categorical_column_without_categories(self):
        schema = Schema([Attribute("c", AttrKind.CATEGORICAL)])
        table = Table.from_rows(schema, [{"c": None}, {"c": None}])
        cut = table.filter(np.array([True, False]))
        assert len(cut) == 1 and cut["c"].categories == ()
        assert cut.row(0) == {"c": None}


# ------------------------------------------------------ restrict


class TestRestrict:
    @settings(max_examples=100, deadline=None)
    @given(tables(), st.data())
    def test_matches_boolean_gather(self, table, data):
        view = Discretizer().fit(table.project(CATEGORICAL))
        mask = np.array(data.draw(st.lists(
            st.booleans(), min_size=len(table), max_size=len(table),
        )), dtype=bool)
        new = view.restrict(mask)
        ref = restrict_reference(view, mask)
        assert_same_table(new.table, ref.table)
        assert new.attribute_names == ref.attribute_names
        for name in ref.attribute_names:
            assert new.codes(name).dtype == ref.codes(name).dtype
            assert np.array_equal(new.codes(name), ref.codes(name))
            assert new.labels(name) is view.labels(name)

    def test_binned_partitions_match(self, cars):
        view = Discretizer().fit(cars)
        for code in range(view.ncodes("Make")):
            mask = view.codes("Make") == code
            new, ref = view.restrict(mask), restrict_reference(view, mask)
            assert_same_table(new.table, ref.table)
            for name in view.attribute_names:
                assert np.array_equal(new.codes(name), ref.codes(name))
                if view.is_binned(name):
                    assert new.bins(name) is view.bins(name)

    def test_mask_length_still_checked(self, cars):
        view = Discretizer().fit(cars)
        with pytest.raises(SchemaError, match="mask length"):
            view.restrict(np.ones(3, dtype=bool))


# ------------------------------------------------------ categorical IN


class TestCategoricalIn:
    @settings(max_examples=300, deadline=None)
    @given(
        tables(), _cat, st.lists(_word, min_size=1, max_size=5),
    )
    def test_matches_isin(self, table, attr, values):
        new = In(attr, values).mask(table)
        ref = in_reference(table, attr, values)
        assert new.dtype == ref.dtype == bool
        assert np.array_equal(new, ref)

    def test_missing_code_never_matches(self):
        schema = Schema([Attribute("c", AttrKind.CATEGORICAL)])
        table = Table(schema, {"c": Column(
            schema["c"], np.array([-1, 0, 1, -1], dtype=np.int32),
            ("x", "y"),
        )})
        assert In("c", ["x", "y"]).mask(table).tolist() == [
            False, True, True, False,
        ]
        assert not In("c", ["nope"]).mask(table).any()
