"""Unit tests for contingency tables, chi-square, and feature selection."""

import numpy as np
import pytest

from repro.discretize import Discretizer
from repro.errors import QueryError
from repro.features import (
    ChiSquareSelector,
    MutualInformationSelector,
    SymmetricUncertaintySelector,
    chi2_sf,
    chi_square_test,
    contingency_table,
    cramers_v,
    marginals,
    select_compare_attributes,
)
from repro.query import QueryEngine, parse_predicate


class TestContingency:
    def test_basic_counts(self):
        cls = np.array([0, 0, 1, 1, 1])
        val = np.array([0, 1, 0, 1, 1])
        t = contingency_table(cls, val, 2, 2)
        assert t.tolist() == [[1, 1], [1, 2]]

    def test_missing_dropped(self):
        cls = np.array([0, -1, 1])
        val = np.array([0, 0, -1])
        t = contingency_table(cls, val, 2, 1)
        assert t.sum() == 1

    def test_length_mismatch(self):
        with pytest.raises(QueryError):
            contingency_table(np.array([0]), np.array([0, 1]), 1, 2)

    def test_marginals(self):
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        rows, cols, total = marginals(t)
        assert rows.tolist() == [3.0, 7.0]
        assert cols.tolist() == [4.0, 6.0]
        assert total == 10.0


class TestChi2SF:
    def test_known_values(self):
        # chi2.sf(3.841, 1) ~ 0.05
        assert chi2_sf(3.841, 1) == pytest.approx(0.05, abs=1e-3)
        assert chi2_sf(0.0, 5) == 1.0
        assert chi2_sf(100.0, 1) < 1e-20

    def test_monotone_in_x(self):
        assert chi2_sf(1.0, 2) > chi2_sf(2.0, 2) > chi2_sf(5.0, 2)

    def test_bad_df(self):
        with pytest.raises(QueryError):
            chi2_sf(1.0, 0)


class TestChiSquareTest:
    def test_independent_table(self):
        t = np.array([[50.0, 50.0], [50.0, 50.0]])
        r = chi_square_test(t)
        assert r.statistic == pytest.approx(0.0)
        assert r.p_value == pytest.approx(1.0)
        assert not r.significant()

    def test_dependent_table(self):
        t = np.array([[90.0, 10.0], [10.0, 90.0]])
        r = chi_square_test(t)
        assert r.statistic > 100
        assert r.significant(0.01)

    def test_textbook_value(self):
        # 2x2 with chi2 = N(ad-bc)^2 / (row/col products)
        t = np.array([[10.0, 20.0], [20.0, 10.0]])
        expected = 60 * (10 * 10 - 20 * 20) ** 2 / (30 * 30 * 30 * 30)
        assert chi_square_test(t).statistic == pytest.approx(expected)

    def test_df(self):
        t = np.ones((3, 4))
        assert chi_square_test(t).df == 6

    def test_zero_rows_dropped(self):
        t = np.array([[10.0, 5.0], [0.0, 0.0], [5.0, 10.0]])
        assert chi_square_test(t).df == 1

    def test_degenerate_table(self):
        t = np.array([[5.0, 5.0]])
        r = chi_square_test(t)
        assert r.statistic == 0.0 and r.p_value == 1.0


class TestCramersV:
    def test_perfect_association(self):
        t = np.array([[50.0, 0.0], [0.0, 50.0]])
        assert cramers_v(t) == pytest.approx(1.0)

    def test_independence(self):
        t = np.array([[25.0, 25.0], [25.0, 25.0]])
        assert cramers_v(t) == pytest.approx(0.0)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            t = rng.integers(1, 50, (3, 4)).astype(float)
            assert 0.0 <= cramers_v(t) <= 1.0


@pytest.fixture(scope="module")
def cars_view(cars):
    return Discretizer(nbins=6).fit(cars)


class TestSelectors:
    def test_rank_sorted_desc(self, cars_view):
        ranks = ChiSquareSelector().rank(cars_view, "Make")
        scores = [r.score for r in ranks]
        assert scores == sorted(scores, reverse=True)

    def test_pivot_excluded(self, cars_view):
        ranks = ChiSquareSelector().rank(cars_view, "Make")
        assert all(r.attribute != "Make" for r in ranks)

    def test_model_most_informative_for_make(self, cars_view):
        """Model functionally determines Make, so it must rank first."""
        ranks = ChiSquareSelector().rank(cars_view, "Make")
        assert ranks[0].attribute == "Model"
        assert ranks[0].p_value < 1e-10

    def test_paper_anecdote_model_beats_mileage_for_year(self, cars_view):
        names = [
            r.attribute for r in ChiSquareSelector().rank(cars_view, "Year")
        ]
        assert names.index("Model") < names.index("Mileage")

    def test_unknown_pivot(self, cars_view):
        with pytest.raises(QueryError):
            ChiSquareSelector().rank(cars_view, "bogus")

    def test_selectors_agree_on_functional_dependency(self, cars_view):
        for selector in (
            MutualInformationSelector(), SymmetricUncertaintySelector(),
        ):
            ranks = selector.rank(cars_view, "Make")
            assert ranks[0].attribute == "Model", type(selector).__name__

    def test_mi_bounds(self, cars_view):
        for r in MutualInformationSelector().rank(cars_view, "Make"):
            assert r.score >= 0.0

    def test_su_bounded_by_one(self, cars_view):
        for r in SymmetricUncertaintySelector().rank(cars_view, "Make"):
            assert 0.0 <= r.score <= 1.0 + 1e-9

    def test_candidates_subset(self, cars_view):
        ranks = ChiSquareSelector().rank(
            cars_view, "Make", candidates=["Price", "Color"]
        )
        assert {r.attribute for r in ranks} == {"Price", "Color"}


class TestSelectCompareAttributes:
    def test_pinned_first(self, cars_view):
        chosen = select_compare_attributes(
            cars_view, "Make", pinned=["Price"], limit=5
        )
        assert chosen[0] == "Price"
        assert len(chosen) == 5

    def test_limit_respected(self, cars_view):
        assert len(
            select_compare_attributes(cars_view, "Make", limit=3)
        ) == 3

    def test_exclude(self, cars_view):
        chosen = select_compare_attributes(
            cars_view, "Make", limit=5, exclude=["Model"]
        )
        assert "Model" not in chosen

    def test_relevance_gate(self, cars):
        """Attributes independent of the pivot are not auto-selected."""
        pred = parse_predicate("BodyType = SUV")
        r = QueryEngine.select(cars, pred)
        view = Discretizer(nbins=6).fit(r)
        chosen = select_compare_attributes(view, "Make", limit=10)
        # BodyType is constant in R: zero contrast, never selected
        assert "BodyType" not in chosen

    def test_bad_limit(self, cars_view):
        with pytest.raises(QueryError):
            select_compare_attributes(cars_view, "Make", limit=0)

    def test_unknown_pinned(self, cars_view):
        with pytest.raises(QueryError):
            select_compare_attributes(cars_view, "Make", pinned=["bogus"])

    def test_pinned_deduplicated(self, cars_view):
        chosen = select_compare_attributes(
            cars_view, "Make", pinned=["Price", "Price"], limit=3
        )
        assert chosen.count("Price") == 1
