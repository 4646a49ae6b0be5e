"""Unit tests for facet ordering."""

import pytest

from repro.facets import FacetedEngine, rank_facets


@pytest.fixture(scope="module")
def engine(mushroom):
    return FacetedEngine(mushroom)


class TestRankFacets:
    def test_all_queriable_ranked(self, engine):
        ranks = rank_facets(engine)
        assert len(ranks) == len(engine.queriable)
        scores = [r.score for r in ranks]
        assert scores == sorted(scores, reverse=True)

    def test_constant_facet_sinks(self, engine):
        ranks = rank_facets(engine)
        by_name = {r.attribute: r for r in ranks}
        # veil-type has a single value: zero entropy, zero score
        assert by_name["veil-type"].score == 0.0
        assert ranks[-1].score <= ranks[0].score

    def test_selected_facet_sinks_in_context(self, engine):
        before = {r.attribute: i for i, r in enumerate(rank_facets(engine))}
        after_list = rank_facets(engine, {"odor": {"foul"}})
        after = {r.attribute: i for i, r in enumerate(after_list)}
        # odor now has one value in the result: it must drop in rank
        assert after["odor"] > before["odor"]
        by_name = {r.attribute: r for r in after_list}
        assert by_name["odor"].entropy == 0.0

    def test_coverage_reported(self, engine):
        ranks = rank_facets(engine)
        for r in ranks:
            assert 0.0 <= r.coverage <= 1.0

    def test_numeric_facets_participate(self, cars):
        e = FacetedEngine(cars)
        ranks = rank_facets(e)
        names = [r.attribute for r in ranks]
        assert "Price" in names and "Mileage" in names
