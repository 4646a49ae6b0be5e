"""Unit tests for Algorithms 1 and 2 (IUnit & ranked-list similarity)."""

import numpy as np
import pytest

from repro.errors import CADViewError
from repro.iunits import (
    IUnit,
    default_tau,
    iunit_similarity,
    ranked_list_distance,
)
from repro.iunits.iunit import unit_vector


def unit(dists, value="v", uid=None):
    attrs = tuple(dists)
    dists = {k: np.asarray(v, float) for k, v in dists.items()}
    return IUnit("p", value, 10, attrs, dists, {k: () for k in dists},
                 {k: unit_vector(v) for k, v in dists.items()}, uid)


class TestCosine:
    """The per-attribute cosine: Algorithm 1 over one Compare Attribute."""

    @staticmethod
    def cosine(a, b):
        return iunit_similarity(unit({"x": a}), unit({"x": b}))

    def test_identical(self):
        assert self.cosine([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert self.cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_zero_vector(self):
        assert self.cosine(np.zeros(2), [1.0, 1.0]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(CADViewError, match="shape mismatch"):
            self.cosine(np.zeros(2), np.zeros(3))


class TestAlgorithm1:
    def test_identical_units_max_score(self):
        a = unit({"x": [3, 1], "y": [0, 5]})
        b = unit({"x": [3, 1], "y": [0, 5]})
        assert iunit_similarity(a, b) == pytest.approx(2.0)

    def test_disjoint_units_zero(self):
        a = unit({"x": [1, 0], "y": [1, 0]})
        b = unit({"x": [0, 1], "y": [0, 1]})
        assert iunit_similarity(a, b) == 0.0

    def test_range_is_number_of_attrs(self):
        """Paper: 'for five Compare Attributes the max similarity score
        can be 5.0'."""
        dists = {f"a{i}": [1.0, 2.0] for i in range(5)}
        assert iunit_similarity(unit(dists), unit(dists)) == pytest.approx(5.0)

    def test_symmetry(self):
        a = unit({"x": [3, 1], "y": [2, 5]})
        b = unit({"x": [1, 2], "y": [4, 1]})
        assert iunit_similarity(a, b) == pytest.approx(iunit_similarity(b, a))

    def test_different_attr_sets_raise(self):
        a = unit({"x": [1]})
        b = unit({"y": [1]})
        with pytest.raises(CADViewError):
            iunit_similarity(a, b)


class TestDefaultTau:
    def test_scales_with_attrs(self):
        assert default_tau(5) == pytest.approx(3.5)


class TestAlgorithm2:
    def u(self, vec):
        return unit({"x": vec})

    def test_identical_lists_distance_zero(self):
        tx = [self.u([1, 0]), self.u([0, 1])]
        ty = [self.u([1, 0]), self.u([0, 1])]
        assert ranked_list_distance(tx, ty, tau=0.9) == 0.0

    def test_swapped_ranks_cost(self):
        a, b = [1, 0, 0], [0, 1, 0]
        tx = [self.u(a), self.u(b)]
        ty = [self.u(b), self.u(a)]
        # each IUnit finds its match one rank away, four sides: 1+1+1+1
        assert ranked_list_distance(tx, ty, tau=0.9) == 4.0

    def test_no_match_charges_k_plus_one(self):
        tx = [self.u([1, 0, 0])]
        ty = [self.u([0, 1, 0])]
        # tx[1] has no match: |1 - 2| = 1; ty[1] likewise: total 2
        assert ranked_list_distance(tx, ty, tau=0.9) == 2.0

    def test_empty_lists(self):
        assert ranked_list_distance([], [], tau=0.5) == 0.0

    def test_one_empty_list(self):
        # per the paper's Algorithm 2, an unmatched IUnit is charged rank
        # |T^y| + 1; against an empty list that is rank 1, so the rank-1
        # IUnit costs 0 and the rank-2 IUnit costs 1
        tx = [self.u([1, 0]), self.u([0, 1])]
        assert ranked_list_distance(tx, [], tau=0.5) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        tx = [self.u(rng.random(4)) for _ in range(3)]
        ty = [self.u(rng.random(4)) for _ in range(3)]
        assert ranked_list_distance(tx, ty, 0.8) == pytest.approx(
            ranked_list_distance(ty, tx, 0.8)
        )

    def test_closest_rank_match_preferred(self):
        a = [1.0, 0.0]
        # ty has two IUnits similar to tx[0]; rank-1 is closer to rank 1
        tx = [self.u(a)]
        ty = [self.u(a), self.u(a)]
        # tx[0] matches ty rank 1 (cost 0); ty[0] matches 0, ty[1] cost 1
        assert ranked_list_distance(tx, ty, tau=0.9) == 1.0

    def test_lower_tau_finds_more_matches(self):
        tx = [self.u([3, 1])]
        ty = [self.u([1, 3])]
        strict = ranked_list_distance(tx, ty, tau=0.99)
        loose = ranked_list_distance(tx, ty, tau=0.5)
        assert loose <= strict
