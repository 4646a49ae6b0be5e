"""Tests for the Sec. 6.3 optimization policies and the build profile."""

import pytest

from repro.core import BuildProfile, CADViewBuilder, CADViewConfig
from repro.core.optimizer import (
    CLUSTER_SAMPLE_CAP,
    FS_SAMPLE_CAP,
    optimization_ladder,
    recommended_config,
)
from repro.query import QueryEngine, parse_predicate


class TestRecommendedConfig:
    def test_small_results_stay_exact(self):
        cfg = recommended_config(CADViewConfig(), 2_000)
        assert cfg.fs_sample is None
        assert cfg.cluster_sample is None
        assert cfg.adaptive_l

    def test_large_results_sampled(self):
        cfg = recommended_config(CADViewConfig(), 40_000)
        assert cfg.fs_sample == FS_SAMPLE_CAP
        assert cfg.cluster_sample == CLUSTER_SAMPLE_CAP
        assert cfg.adaptive_l

    def test_base_untouched(self):
        base = CADViewConfig()
        recommended_config(base, 40_000)
        assert base.fs_sample is None


class TestOptimizationLadder:
    def test_four_steps_monotone(self):
        steps = list(optimization_ladder(CADViewConfig()))
        names = [n for n, _ in steps]
        assert names == ["naive", "fs_sampling", "fs+cluster_sampling", "all"]
        assert steps[0][1].fs_sample is None
        assert steps[-1][1].adaptive_l


class TestOptimizedBuildEquivalence:
    def test_sampling_preserves_top_compare_attribute(self, cars):
        """Optimization 1's stability claim (paper Sec. 6.3)."""
        pred = parse_predicate("BodyType = SUV")
        result = QueryEngine.select(cars, pred)
        base = CADViewConfig(seed=0)
        exact = CADViewBuilder(base).build(result, "Make",
                                           exclude=("BodyType",))
        fast = CADViewBuilder(
            base.with_(fs_sample=1_000)
        ).build(result, "Make", exclude=("BodyType",))
        assert exact.compare_attributes[0] == fast.compare_attributes[0]
        # and the sets broadly agree
        overlap = set(exact.compare_attributes) & set(fast.compare_attributes)
        assert len(overlap) >= len(exact.compare_attributes) - 1


class TestBuildProfile:
    def test_buckets_accumulate(self):
        p = BuildProfile()
        p.record("compare_attrs", 0.1)
        p.record("iunits", 0.2)
        p.record("others", 0.3)
        p.record("compare_attrs", 0.05)
        assert p.compare_attrs_s == pytest.approx(0.15)
        assert p.total_s == pytest.approx(
            p.compare_attrs_s + p.iunits_s + p.others_s
        )
        # only the paper's three buckets exist
        with pytest.raises(ValueError, match="custom_phase"):
            p.record("custom_phase", 0.4)
        assert p.total_s == pytest.approx(0.65)

    def test_as_dict_and_str(self):
        p = BuildProfile(compare_attrs_s=0.1, iunits_s=0.2, others_s=0.3)
        d = p.as_dict()
        assert d["total_s"] == pytest.approx(0.6)
        assert "total=" in str(p)
