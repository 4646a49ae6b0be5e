"""Unit tests for the query engine."""

import pytest

from repro.dataset import AttrKind, Attribute, Schema, Table
from repro.errors import QueryError
from repro.query import Between, Eq, QueryEngine, TruePred


@pytest.fixture()
def engine(toy_table):
    e = QueryEngine()
    e.register("Hotels", toy_table)
    return e


class TestCatalog:
    def test_register_and_lookup(self, engine, toy_table):
        assert engine.table("Hotels") is toy_table

    def test_unknown_table(self, engine):
        with pytest.raises(QueryError, match="unknown table"):
            engine.table("Nope")

    def test_table_names(self, engine, toy_table):
        engine.register("B", toy_table)
        assert engine.table_names == ("B", "Hotels")


class TestSelect:
    def test_no_predicate_returns_all(self, engine, toy_table):
        assert len(engine.select(toy_table)) == len(toy_table)

    def test_predicate(self, engine, toy_table):
        r = engine.select(toy_table, Eq("city", "Paris"))
        assert len(r) == 3

    def test_columns(self, engine, toy_table):
        r = engine.select(toy_table, columns=["city"])
        assert r.schema.names == ("city",)

    def test_limit(self, engine, toy_table):
        assert len(engine.select(toy_table, limit=2)) == 2

    def test_count(self, engine, toy_table):
        assert engine.count(toy_table, Eq("city", "Paris")) == 3
        assert engine.count(toy_table) == len(toy_table)
        assert engine.count(toy_table, TruePred()) == len(toy_table)

    def test_group_count(self, engine, toy_table):
        counts = engine.group_count(toy_table, "city", Between("stars", 3, 5))
        assert counts == {"Paris": 3, "Lyon": 1, "Nice": 2}


class TestOrderBy:
    def test_numeric_ascending(self, engine, toy_table):
        r = engine.order_by(toy_table, ["stars"], [True])
        stars = [row["stars"] for row in r.iter_rows()]
        assert stars == sorted(stars)

    def test_numeric_descending(self, engine, toy_table):
        r = engine.order_by(toy_table, ["price"], [False])
        prices = [row["price"] for row in r.iter_rows() if row["price"]]
        assert prices == sorted(prices, reverse=True)

    def test_missing_sorts_last_ascending(self, engine, toy_table):
        r = engine.order_by(toy_table, ["price"], [True])
        assert r.row(len(r) - 1)["price"] is None

    def test_categorical_alphabetical(self, engine, toy_table):
        r = engine.order_by(toy_table, ["city"], [True])
        cities = [row["city"] for row in r.iter_rows() if row["city"]]
        assert cities == sorted(cities)

    def test_multi_key(self, engine, toy_table):
        r = engine.order_by(toy_table, ["city", "stars"], [True, False])
        lyon = [row for row in r.iter_rows() if row["city"] == "Lyon"]
        assert [row["stars"] for row in lyon] == [4.0, 2.0]

    def test_length_mismatch_raises(self, engine, toy_table):
        with pytest.raises(QueryError):
            engine.order_by(toy_table, ["city"], [True, False])

    def test_descending_key_is_stable(self):
        # reversing an ascending sort would flip p within each m
        schema = Schema([
            Attribute("m", AttrKind.CATEGORICAL),
            Attribute("p", AttrKind.NUMERIC),
        ])
        table = Table.from_rows(schema, [
            {"m": m, "p": p}
            for m, p in (("a", 1), ("a", 3), ("b", 2), ("b", 4), ("a", 2))
        ])
        want = [("b", 2.0), ("b", 4.0), ("a", 1.0), ("a", 2.0), ("a", 3.0)]
        r = QueryEngine.order_by(table, ["m", "p"], [False, True])
        assert [(row["m"], row["p"]) for row in r.iter_rows()] == want
        r = QueryEngine.select(table, None, None, None, by=["m", "p"],
                               ascending=[False, True])
        assert [(row["m"], row["p"]) for row in r.iter_rows()] == want
        r = QueryEngine.order_by(table, ["m"], [False])
        assert [row["p"] for row in r.iter_rows()] == [2.0, 4.0, 1.0, 3.0,
                                                       2.0]
