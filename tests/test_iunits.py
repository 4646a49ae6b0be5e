"""Unit tests for IUnit construction and labeling."""

import numpy as np
import pytest

from repro.discretize import Discretizer
from repro.errors import CADViewError
from repro.iunits import (
    IUnit,
    LabelingConfig,
    build_iunits,
    representative_values,
)
from repro.iunits.iunit import unit_vector


def label(view, labels, pivot_value, compare):
    """Every cluster of one partition holding every row of ``view``."""
    rows = np.arange(len(view))
    return build_iunits(
        view, [(pivot_value, rows, np.asarray(labels))], "city", compare
    )


def one_cluster(view, mask, pivot_value, compare):
    """The IUnit of the rows ``mask`` selects (the rest are outliers)."""
    (unit,) = label(view, np.where(mask, 0, -1), pivot_value, compare)
    return unit


def make_iunit(size=10, dists=None, display=None):
    dists = dists or {"a": np.array([8.0, 2.0]), "b": np.array([10.0, 0.0])}
    display = display or {"a": ("x",), "b": ("y",)}
    vectors = {a: unit_vector(d) for a, d in dists.items()}
    return IUnit("pivot", "v", size, tuple(dists), dists, display, vectors)


COLORS = ("red", "blue", "green")


def representatives(counts, config=LabelingConfig()):
    """The display values of one count vector."""
    (got,) = representative_values(np.array([counts]), COLORS, config)
    return got


class TestIUnit:
    def test_missing_distribution_raises(self):
        one = {"a": np.array([1.0])}
        with pytest.raises(CADViewError):
            IUnit("p", "v", 5, ("a", "b"), one, {}, one)

    def test_missing_unit_vector_raises(self):
        both = {"a": np.array([1.0]), "b": np.array([1.0])}
        with pytest.raises(CADViewError):
            IUnit("p", "v", 5, ("a", "b"), both, {}, {"a": both["a"]})

    def test_with_uid(self):
        u = make_iunit()
        ranked = u.with_uid(2)
        assert ranked.uid == 2 and u.uid is None
        assert ranked.size == u.size

    def test_label_text(self):
        u = make_iunit(display={"a": ("x", "z"), "b": ()})
        assert u.label_text("a") == "[x] [z]"
        assert u.label_text("b") == "[-]"


class TestRepresentativeValues:
    def test_dominant_value_alone(self):
        assert representatives([90.0, 5.0, 5.0]) == ("red",)

    def test_statistical_tie_grouped(self):
        assert representatives([48.0, 46.0, 6.0]) == ("red", "blue")

    def test_max_display_cap(self):
        cfg = LabelingConfig(max_display=1)
        assert len(representatives([50.0, 50.0, 0.0], cfg)) == 1

    def test_min_share_filters_noise(self):
        cfg = LabelingConfig(max_display=3, min_share=0.2)
        assert representatives([80.0, 15.0, 5.0], cfg) == ("red",)

    def test_empty_counts(self):
        assert representatives([0.0, 0.0, 0.0]) == ()

    def test_order_is_frequency_order(self):
        got = representatives(
            [20.0, 80.0, 0.0],
            LabelingConfig(max_display=2, min_share=0.0, alpha=1.0),
        )
        assert got[0] == "blue"

    def test_each_row_labeled_on_its_own(self):
        table = np.array([
            [90.0, 5.0, 5.0], [0.0, 0.0, 0.0], [48.0, 46.0, 6.0],
            [20.0, 80.0, 0.0],
        ])
        got = representative_values(table, COLORS, LabelingConfig())
        assert got == [("red",), (), ("red", "blue"), ("blue",)]


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
        assert label(view, labels, "x", ["stars"]) == []

    def test_build_iunits_skips_negative_labels(self, toy_table):
        view = Discretizer().fit(toy_table)
        labels = np.array([0, 0, 1, 1, -1, -1, 0, 1])
        units = label(view, labels, "all", ["stars"])
        assert len(units) == 2
        assert sum(u.size for u in units) == 6

    def test_skipped_id_gives_no_empty_iunit(self, toy_table):
        # diversified_topk scores candidates by size with no floor: an
        # id no row carries (an emptied k-means cluster) must not come
        # back as a size-0 IUnit
        view = Discretizer().fit(toy_table)
        labels = np.array([0, 2, 0, 2, 2, 0, 2, 2])
        units = label(view, labels, "all", ["stars"])
        sizes = [u.size for u in units]
        assert len(sizes) == 2 and 0 not in sizes
        assert sum(sizes) == len(labels)

    def test_distribution_matches_counts(self, toy_table):
        view = Discretizer().fit(toy_table)
        labels = np.zeros(len(toy_table), dtype=int)
        (unit,) = label(view, labels, "all", ["city"])
        counts = view.value_counts("city")
        for code, name in enumerate(view.labels("city")):
            assert unit.distributions["city"][code] == counts.get(name, 0)

    def test_partitions_keep_their_order_and_values(self, toy_table):
        view = Discretizer().fit(toy_table)
        rows = np.arange(len(toy_table))
        parts = [
            ("b", rows[4:], np.array([1, 1, 0, 0])),
            ("a", rows[:4], np.array([0, -1, 0, 0])),
        ]
        units = build_iunits(view, parts, "city", ["stars"])
        assert [(u.pivot_value, u.size) for u in units] == [
            ("b", 2), ("b", 2), ("a", 3),
        ]
