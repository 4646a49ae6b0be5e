"""Unit tests for diversified top-k (div-astar and the greedy baseline)."""

import numpy as np
import pytest
from itertools import combinations

from repro.errors import CADViewError
from repro.iunits import (
    IUnit, div_astar, div_greedy, diversified_topk, similarity_graph,
)
from repro.iunits.iunit import unit_vector


def brute_force(scores, adj, k):
    """Exhaustive optimum of the diversified top-k objective."""
    n = len(scores)
    best = 0.0
    for size in range(1, k + 1):
        for combo in combinations(range(n), size):
            if any(adj[a][b] for a, b in combinations(combo, 2)):
                continue
            best = max(best, sum(scores[i] for i in combo))
    return best


def no_edges(n):
    return np.zeros((n, n), dtype=bool)


class TestDivAstar:
    def test_no_conflicts_takes_top_k(self):
        scores = [5.0, 4.0, 3.0, 2.0]
        got = div_astar(scores, no_edges(4), 2)
        assert got == [0, 1]

    def test_conflict_forces_skip(self):
        scores = [5.0, 4.0, 3.0]
        adj = no_edges(3)
        adj[0][1] = adj[1][0] = True
        got = div_astar(scores, adj, 2)
        assert got == [0, 2]

    def test_greedy_trap(self):
        """The case where greedy is suboptimal: the top item conflicts
        with everything else."""
        scores = [10.0, 9.0, 9.0, 9.0]
        adj = no_edges(4)
        for j in (1, 2, 3):
            adj[0][j] = adj[j][0] = True
        exact = div_astar(scores, adj, 3)
        greedy = div_greedy(scores, adj, 3)
        assert sum(scores[i] for i in exact) == 27.0
        assert sum(scores[i] for i in greedy) == 10.0

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            n = int(rng.integers(3, 10))
            scores = rng.random(n) * 10
            adj = rng.random((n, n)) < 0.3
            adj = np.triu(adj, 1)
            adj = adj | adj.T
            k = int(rng.integers(1, n + 1))
            got = div_astar(scores, adj, k)
            # validity
            assert len(got) <= k
            for a, b in combinations(got, 2):
                assert not adj[a][b]
            # optimality
            assert sum(scores[i] for i in got) == pytest.approx(
                brute_force(scores, adj, k)
            )

    def test_k_zero(self):
        assert div_astar([1.0], no_edges(1), 0) == []

    def test_empty(self):
        assert div_astar([], np.zeros((0, 0), bool), 3) == []

    def test_negative_scores_rejected(self):
        with pytest.raises(CADViewError):
            div_astar([-1.0], no_edges(1), 1)

    def test_adjacency_shape_checked(self):
        with pytest.raises(CADViewError):
            div_astar([1.0, 2.0], no_edges(3), 1)

    def test_result_sorted_by_score(self):
        scores = [1.0, 5.0, 3.0]
        got = div_astar(scores, no_edges(3), 3)
        assert got == [1, 2, 0]


class TestDivGreedy:
    def test_respects_conflicts(self):
        scores = [5.0, 4.0, 3.0]
        adj = no_edges(3)
        adj[0][1] = adj[1][0] = True
        assert div_greedy(scores, adj, 3) == [0, 2]

    def test_never_exceeds_k(self):
        assert len(div_greedy([3.0, 2.0, 1.0], no_edges(3), 2)) == 2


def unit(vec, size=10, value="v"):
    vec = np.asarray(vec, float)
    return IUnit("p", value, size, ("x",), {"x": vec}, {"x": ()},
                 {"x": unit_vector(vec)})


class TestSimilarityGraph:
    def test_edges_at_threshold(self):
        units = [unit([1, 0]), unit([1, 0.05]), unit([0, 1])]
        adj = similarity_graph(units, tau=0.95)
        assert adj[0][1] and adj[1][0]
        assert not adj[0][2]
        assert not adj.diagonal().any()


class TestDiversifiedTopk:
    def test_redundant_units_deduplicated(self):
        units = [
            unit([10, 0], size=100),
            unit([10, 0.1], size=90),   # near-duplicate of the first
            unit([0, 10], size=50),
        ]
        top = diversified_topk(units, k=2, tau=0.95)
        assert len(top) == 2
        assert top[0].size == 100
        assert top[1].size == 50      # the duplicate was skipped

    def test_uids_assigned_in_rank_order(self):
        units = [unit([1, 0], size=s) for s in (10, 30, 20)]
        top = diversified_topk(units, k=3, tau=2.0)  # tau>1: no edges
        assert [u.uid for u in top] == [1, 2, 3]
        assert [u.size for u in top] == [30, 20, 10]

    def test_empty_input(self):
        assert diversified_topk([], 3, 0.5) == []

    def test_greedy_flag(self):
        units = [unit([1, 0], size=s) for s in (10, 30, 20)]
        exact = diversified_topk(units, 2, 2.0, exact=True)
        greedy = diversified_topk(units, 2, 2.0, exact=False)
        assert [u.size for u in exact] == [u.size for u in greedy]
