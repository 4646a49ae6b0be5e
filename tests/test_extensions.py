"""Tests for the extension batch: catalog statements, workload
generation, hierarchical clustering."""

import numpy as np
import pytest

from repro import CADViewConfig, DBExplorer
from repro.clustering import agglomerative
from repro.errors import CADViewError, ParseError, QueryError
from repro.query import parse
from repro.query.ast import (
    DescribeStatement, DropCadViewStatement, ShowCadViewsStatement,
)
from repro.study import random_conjunctive_queries, random_subsets


class TestCatalogStatements:
    def test_parse_describe(self):
        stmt = parse("DESCRIBE UsedCars")
        assert isinstance(stmt, DescribeStatement)
        assert stmt.table == "UsedCars"

    def test_parse_show_and_drop(self):
        assert isinstance(parse("SHOW CADVIEWS"), ShowCadViewsStatement)
        stmt = parse("DROP CADVIEW v")
        assert isinstance(stmt, DropCadViewStatement) and stmt.name == "v"

    def test_parse_drop_requires_cadview(self):
        with pytest.raises(ParseError):
            parse("DROP TABLE v")

    def test_describe_execution(self, cars):
        dbx = DBExplorer()
        dbx.register("UsedCars", cars)
        rows = dbx.execute("DESCRIBE UsedCars")
        assert ("Engine", "categorical", "hidden") in rows
        assert ("Price", "numeric", "queriable") in rows
        assert len(rows) == 11

    def test_show_and_drop_execution(self, cars):
        dbx = DBExplorer(CADViewConfig(seed=0))
        dbx.register("UsedCars", cars)
        assert dbx.execute("SHOW CADVIEWS") == []
        dbx.execute(
            "CREATE CADVIEW v AS SET pivot = Make SELECT Price "
            "FROM UsedCars WHERE BodyType = SUV IUNITS 2"
        )
        assert dbx.execute("SHOW CADVIEWS") == ["v"]
        assert dbx.execute("DROP CADVIEW v") == []
        with pytest.raises(CADViewError):
            dbx.execute("DROP CADVIEW v")


class TestWorkload:
    def test_random_subsets_sizes(self, cars):
        items = list(random_subsets(cars, [100, 200], repeats=2, seed=0))
        assert len(items) == 4
        assert [n for n, _ in items] == [100, 100, 200, 200]
        assert all(len(t) == n for n, t in items)

    def test_random_subsets_empty_sizes(self, cars):
        with pytest.raises(QueryError):
            list(random_subsets(cars, []))

    def test_conjunctive_queries_selectivity(self, cars):
        qs = random_conjunctive_queries(
            cars, 10, target_selectivity=0.1, seed=3
        )
        assert len(qs) == 10
        for q in qs:
            assert len(q.result) >= 1
            assert q.selectivity <= 1.0
        # most queries should land at or below ~3x the target
        near = [q for q in qs if q.selectivity <= 0.3]
        assert len(near) >= 7

    def test_conjunctive_queries_results_match_predicate(self, cars):
        qs = random_conjunctive_queries(cars, 3, seed=4)
        for q in qs:
            assert len(q.result) == int(q.predicate.mask(cars).sum())

    def test_conjunctive_queries_validation(self, cars):
        with pytest.raises(QueryError):
            random_conjunctive_queries(cars, 0)
        with pytest.raises(QueryError):
            random_conjunctive_queries(cars, 1, target_selectivity=0.0)

    def test_only_queriable_attributes_used(self, cars):
        qs = random_conjunctive_queries(cars, 10, seed=5)
        for q in qs:
            assert "Engine" not in q.predicate.attributes()


class TestAgglomerative:
    def test_recovers_blobs(self):
        rng = np.random.default_rng(0)
        X = np.vstack([
            rng.normal([0, 0], 0.2, (50, 2)),
            rng.normal([5, 5], 0.2, (50, 2)),
        ])
        res = agglomerative(X, 2)
        assert sorted(res.cluster_sizes()) == [50, 50]

    def test_merge_heights_monotone_nondecreasing_tail(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (60, 2))
        res = agglomerative(X, 3)
        # average-linkage merges happen in non-decreasing distance order
        heights = list(res.merge_heights)
        assert all(b >= a - 1e-9 for a, b in zip(heights, heights[1:]))

    def test_sampling_path_assigns_everything(self):
        rng = np.random.default_rng(2)
        X = np.vstack([
            rng.normal([0, 0], 0.2, (400, 2)),
            rng.normal([5, 5], 0.2, (400, 2)),
        ])
        res = agglomerative(X, 2, max_rows=100, seed=2)
        assert res.labels.min() >= 0
        assert sorted(res.cluster_sizes()) == [400, 400]

    def test_k_one(self):
        X = np.random.default_rng(3).normal(0, 1, (20, 2))
        res = agglomerative(X, 1)
        assert res.n_clusters == 1
        assert (res.labels == 0).all()

    def test_validation(self):
        with pytest.raises(QueryError):
            agglomerative(np.empty((0, 2)), 2)
        with pytest.raises(QueryError):
            agglomerative(np.zeros((5, 2)), 0)
