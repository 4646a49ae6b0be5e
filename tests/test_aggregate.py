"""Unit tests for group-by aggregation."""

import pytest

from repro.errors import QueryError
from repro.query import AggregateSpec, group_by


class TestAggregateSpec:
    def test_unknown_func(self):
        with pytest.raises(QueryError):
            AggregateSpec("variance", "x")

    def test_label(self):
        assert AggregateSpec("mean", "price").label == "mean(price)"
        assert AggregateSpec("count").label == "count(*)"


class TestGroupBy:
    def test_counts(self, toy_table):
        g = group_by(toy_table, ["city"])
        assert g.value(("Paris",), "count(*)") == 3.0
        assert g.value(("Lyon",), "count(*)") == 2.0

    def test_missing_key_groups_under_none(self, toy_table):
        g = group_by(toy_table, ["city"])
        assert g.value((None,), "count(*)") == 1.0

    def test_mean_min_max(self, toy_table):
        g = group_by(
            toy_table, ["city"],
            [AggregateSpec("mean", "price"), AggregateSpec("min", "price"),
             AggregateSpec("max", "price")],
        )
        paris = g.rows[("Paris",)]
        assert paris["mean(price)"] == pytest.approx((400 + 250 + 120) / 3)
        assert paris["min(price)"] == 120.0
        assert paris["max(price)"] == 400.0

    def test_nan_ignored_in_aggregates(self, toy_table):
        g = group_by(toy_table, ["city"], [AggregateSpec("mean", "price")])
        # Nice has one missing price; mean over the present one
        assert g.rows[("Nice",)]["mean(price)"] == pytest.approx(350.0)

    def test_sum_std_median(self, toy_table):
        g = group_by(
            toy_table, ["city"],
            [AggregateSpec("sum", "stars"), AggregateSpec("std", "stars"),
             AggregateSpec("median", "stars")],
        )
        assert g.rows[("Paris",)]["sum(stars)"] == 12.0
        assert g.rows[("Paris",)]["median(stars)"] == 4.0
        assert g.rows[("Lyon",)]["std(stars)"] == pytest.approx(1.0)

    def test_multi_key(self, toy_table):
        g = group_by(toy_table, ["city", "stars"])
        assert g.value(("Paris", 5.0), "count(*)") == 1.0
        assert len(g) >= 7

    def test_total_count_preserved(self, toy_table):
        g = group_by(toy_table, ["city"])
        assert sum(r["count(*)"] for r in g.rows.values()) == len(toy_table)

    def test_numeric_agg_on_categorical_raises(self, toy_table):
        with pytest.raises(QueryError):
            group_by(toy_table, ["city"], [AggregateSpec("mean", "amenity")])

    def test_empty_keys_raise(self, toy_table):
        with pytest.raises(QueryError):
            group_by(toy_table, [])

    def test_unknown_key_raises(self, toy_table):
        with pytest.raises(KeyError):
            group_by(toy_table, ["bogus"])

    def test_value_unknown_group(self, toy_table):
        g = group_by(toy_table, ["city"])
        with pytest.raises(QueryError):
            g.value(("Atlantis",), "count(*)")

    def test_sorted_keys(self, toy_table):
        g = group_by(toy_table, ["city"])
        keys = g.sorted_keys()
        assert keys == sorted(keys, key=lambda k: tuple(map(str, k)))

