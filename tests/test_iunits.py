"""Unit tests for IUnit construction, labeling, and preferences."""

import numpy as np
import pytest

from repro.discretize import Discretizer
from repro.errors import CADViewError
from repro.iunits import (
    AttributePreference,
    CompositePreference,
    IUnit,
    LabelingConfig,
    SizePreference,
    build_iunits,
    representative_values,
)


def one_cluster(view, mask, pivot_value, compare):
    """The IUnit of the rows ``mask`` selects (the rest are outliers)."""
    (unit,) = build_iunits(
        view, np.where(mask, 0, -1), "city", pivot_value, compare
    )
    return unit


def make_iunit(size=10, dists=None, display=None):
    dists = dists or {"a": np.array([8.0, 2.0]), "b": np.array([10.0, 0.0])}
    display = display or {"a": ("x",), "b": ("y",)}
    return IUnit("pivot", "v", size, tuple(dists), dists, display)


class TestIUnit:
    def test_missing_distribution_raises(self):
        with pytest.raises(CADViewError):
            IUnit("p", "v", 5, ("a", "b"), {"a": np.array([1.0])}, {})

    def test_with_uid(self):
        u = make_iunit()
        ranked = u.with_uid(2)
        assert ranked.uid == 2 and u.uid is None
        assert ranked.size == u.size

    def test_label_text(self):
        u = make_iunit(display={"a": ("x", "z"), "b": ()})
        assert u.label_text("a") == "[x] [z]"
        assert u.label_text("b") == "[-]"

    def test_top_values(self):
        u = make_iunit()
        assert u.top_values("a") == ((0, 8), (1, 2))
        assert u.top_values("b") == ((0, 10),)


class TestRepresentativeValues:
    LABELS = ("red", "blue", "green")

    def test_dominant_value_alone(self):
        got = representative_values(
            np.array([90.0, 5.0, 5.0]), self.LABELS, LabelingConfig()
        )
        assert got == ("red",)

    def test_statistical_tie_grouped(self):
        got = representative_values(
            np.array([48.0, 46.0, 6.0]), self.LABELS, LabelingConfig()
        )
        assert got == ("red", "blue")

    def test_max_display_cap(self):
        cfg = LabelingConfig(max_display=1)
        got = representative_values(
            np.array([50.0, 50.0, 0.0]), self.LABELS, cfg
        )
        assert len(got) == 1

    def test_min_share_filters_noise(self):
        cfg = LabelingConfig(max_display=3, min_share=0.2)
        got = representative_values(
            np.array([80.0, 15.0, 5.0]), self.LABELS, cfg
        )
        assert got == ("red",)

    def test_empty_counts(self):
        assert representative_values(
            np.zeros(3), self.LABELS, LabelingConfig()
        ) == ()

    def test_order_is_frequency_order(self):
        got = representative_values(
            np.array([20.0, 80.0, 0.0]), self.LABELS,
            LabelingConfig(max_display=2, min_share=0.0, alpha=1.0),
        )
        assert got[0] == "blue"


class TestLabelCluster:
    def test_basic(self, toy_table):
        view = Discretizer(nbins=3).fit(toy_table)
        mask = view.codes("city") == view.code_of("city", "Paris")
        unit = one_cluster(view, mask, "Paris", ["stars", "price"])
        assert unit.size == 3
        assert set(unit.compare_attributes) == {"stars", "price"}
        assert unit.distributions["stars"].sum() == 3

    def test_all_outliers_give_no_iunits(self, toy_table):
        view = Discretizer().fit(toy_table)
        labels = np.full(len(toy_table), -1)
        assert build_iunits(view, labels, "city", "x", ["stars"]) == []

    def test_build_iunits_skips_negative_labels(self, toy_table):
        view = Discretizer().fit(toy_table)
        labels = np.array([0, 0, 1, 1, -1, -1, 0, 1])
        units = build_iunits(view, labels, "city", "all", ["stars"])
        assert len(units) == 2
        assert sum(u.size for u in units) == 6

    def test_distribution_matches_counts(self, toy_table):
        view = Discretizer().fit(toy_table)
        labels = np.zeros(len(toy_table), dtype=int)
        (unit,) = build_iunits(view, labels, "city", "all", ["city"])
        counts = view.value_counts("city")
        for code, label in enumerate(view.labels("city")):
            assert unit.distributions["city"][code] == counts.get(label, 0)


class TestPreferences:
    def test_size_preference(self):
        small, big = make_iunit(size=5), make_iunit(size=50)
        pref = SizePreference()
        assert pref(big) > pref(small)

    def test_attribute_preference_ascending(self, toy_table):
        view = Discretizer(nbins=3).fit(toy_table)
        mask_cheap = view.codes("price") == 0
        mask_rich = view.codes("price") == view.ncodes("price") - 1
        cheap = one_cluster(view, mask_cheap, "x", ["price"])
        rich = one_cluster(view, mask_rich, "x", ["price"])
        asc = AttributePreference(view, "price", ascending=True)
        assert asc(cheap) > asc(rich)
        desc = AttributePreference(view, "price", ascending=False)
        assert desc(rich) > desc(cheap)

    def test_attribute_preference_needs_binned(self, toy_table):
        view = Discretizer().fit(toy_table)
        with pytest.raises(CADViewError):
            AttributePreference(view, "city")

    def test_composite(self):
        small, big = make_iunit(size=5), make_iunit(size=50)
        pref = CompositePreference([SizePreference()], weights=[2.0])
        assert pref(big) == 100.0
        assert pref(small) == 10.0

    def test_composite_validation(self):
        with pytest.raises(CADViewError):
            CompositePreference([])
        with pytest.raises(CADViewError):
            CompositePreference([SizePreference()], weights=[1.0, 2.0])
