"""Unit tests for the Discretizer / DiscretizedView."""

import numpy as np
import pytest

from repro.discretize import Discretizer
from repro.errors import QueryError
from repro.query import Eq, QueryEngine


@pytest.fixture()
def view(toy_table):
    return Discretizer(nbins=3).fit(toy_table)


class TestDiscretizer:
    def test_unknown_strategy(self):
        with pytest.raises(QueryError):
            Discretizer(strategy="bogus")

    def test_categorical_passthrough(self, view):
        assert set(view.labels("city")) == {"Paris", "Lyon", "Nice"}

    def test_numeric_binned(self, view):
        assert view.is_binned("price")
        assert view.ncodes("price") >= 2

    def test_small_ordinal_paired(self, view):
        # stars 1..5 -> consecutive pairs, top pair ends at max
        labels = view.labels("stars")
        assert labels[-1] == "4-5"

    def test_missing_becomes_minus_one(self, view, toy_table):
        assert view.codes("city")[7] == -1
        assert view.codes("price")[6] == -1

    def test_subset_of_names(self, toy_table):
        v = Discretizer().fit(toy_table, names=["city"])
        assert v.attribute_names == ("city",)
        with pytest.raises(QueryError):
            v.codes("price")

    def test_context_dependence(self, cars):
        """Discretizing a filtered result gives narrower ranges — the
        paper's 'Year 2011-2012 because low mileage' effect."""
        full = Discretizer(nbins=4).fit(cars)
        cheap = QueryEngine.select(cars, Eq("BodyType", "SUV"))
        cheap = cheap.filter(cheap["Mileage"].numbers <= 15_000)
        ctx = Discretizer(nbins=4).fit(cheap)
        full_years = full.labels("Year")
        ctx_years = ctx.labels("Year")
        assert len(ctx_years) <= len(full_years)


class TestDiscretizedView:
    def test_label_roundtrip(self, view):
        for name in view.attribute_names:
            for code, label in enumerate(view.labels(name)):
                assert view.code_of(name, label) == code
                assert view.label_of(name, code) == label

    def test_label_of_missing(self, view):
        assert view.label_of("city", -1) == "?"

    def test_code_of_unknown(self, view):
        assert view.code_of("city", "Atlantis") == -1

    def test_predicate_roundtrip_categorical(self, view, toy_table):
        p = view.predicate_for("city", view.code_of("city", "Lyon"))
        assert np.array_equal(
            p.mask(toy_table), view.codes("city") == view.code_of("city", "Lyon")
        )

    def test_predicate_roundtrip_binned(self, view, toy_table):
        for code in range(view.ncodes("price")):
            p = view.predicate_for("price", code)
            assert np.array_equal(
                p.mask(toy_table), view.codes("price") == code
            ), code

    def test_bins_on_categorical_raises(self, view):
        with pytest.raises(QueryError):
            view.bins("city")

    def test_matrix_shape(self, view, toy_table):
        m = view.matrix(["city", "price"])
        assert m.shape == (len(toy_table), 2)
        assert m.dtype == np.int32

    def test_restrict(self, view):
        mask = view.codes("city") == view.code_of("city", "Paris")
        sub = view.restrict(mask)
        assert len(sub) == 3
        assert sub.labels("city") == view.labels("city")  # shared labels
        assert set(sub.value_counts("city")) == {"Paris"}

    def test_value_counts_exclude_missing(self, view):
        counts = view.value_counts("city")
        assert sum(counts.values()) == 7  # one missing city

    def test_unknown_attribute(self, view):
        with pytest.raises(QueryError):
            view.codes("bogus")

    def test_dense_domain_after_filter(self, toy_table):
        """Categorical codes re-map densely to the values present."""
        paris_only = toy_table.filter(
            np.array([r["city"] == "Paris" for r in toy_table.iter_rows()])
        )
        v = Discretizer().fit(paris_only)
        assert v.labels("city") == ("Paris",)
        assert v.codes("city").max() == 0
