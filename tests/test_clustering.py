"""Unit tests for encodings, k-means, k-modes and quality measures."""

import numpy as np
import pytest

from repro.clustering import (
    KMeans, KModes, davies_bouldin, inertia, one_hot_encode,
    silhouette_score,
)
from repro.discretize import Discretizer
from repro.errors import QueryError


@pytest.fixture()
def toy_view(toy_table):
    return Discretizer(nbins=3).fit(toy_table)


class TestOneHotEncode:
    def test_shape(self, toy_view, toy_table):
        enc = one_hot_encode(toy_view, ["city", "price"])
        assert enc.matrix.shape[0] == len(toy_table)
        assert enc.matrix.shape[1] == (
            toy_view.ncodes("city") + toy_view.ncodes("price")
        )

    def test_one_hot_rows_sum(self, toy_view):
        enc = one_hot_encode(toy_view, ["city"], scale=False)
        sums = enc.matrix.sum(axis=1)
        # one 1 per row except the missing-city row
        assert sorted(sums) == [0.0] + [1.0] * 7

    def test_scaling_distance_one_per_attribute(self, toy_view):
        enc = one_hot_encode(toy_view, ["city"])
        # two rows with different cities are at squared distance 1
        x, y = enc.matrix[0], enc.matrix[3]  # Paris vs Lyon
        assert float(((x - y) ** 2).sum()) == pytest.approx(1.0)

    def test_empty_names_raises(self, toy_view):
        with pytest.raises(QueryError):
            one_hot_encode(toy_view, [])


def blobs(seed=0, n=100):
    rng = np.random.default_rng(seed)
    return np.vstack([
        rng.normal([0, 0], 0.3, (n, 2)),
        rng.normal([5, 5], 0.3, (n, 2)),
        rng.normal([0, 5], 0.3, (n, 2)),
    ])


class TestKMeans:
    def test_recovers_blobs(self):
        X = blobs()
        res = KMeans(3, seed=1).fit(X)
        sizes = sorted(res.cluster_sizes())
        assert sizes == [100, 100, 100]

    def test_labels_match_centers(self):
        X = blobs()
        res = KMeans(3, seed=1).fit(X)
        d = ((X[:, None, :] - res.centers[None]) ** 2).sum(axis=2)
        assert np.array_equal(res.labels, d.argmin(axis=1))

    def test_inertia_decreases_with_k(self):
        X = blobs()
        inertias = [KMeans(k, seed=2).fit(X).inertia for k in (1, 3, 6)]
        assert inertias[0] > inertias[1] > inertias[2]

    def test_fewer_points_than_clusters(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.warns(UserWarning, match="clamping"):
            res = KMeans(5, seed=0).fit(X)
        assert res.k == 2

    def test_duplicate_points(self):
        X = np.zeros((10, 3))
        res = KMeans(3, seed=0).fit(X)
        assert res.inertia == pytest.approx(0.0)

    def test_empty_raises(self):
        with pytest.raises(QueryError):
            KMeans(2).fit(np.empty((0, 2)))

    def test_one_dim_input_raises(self):
        with pytest.raises(QueryError):
            KMeans(2).fit(np.array([1.0, 2.0]))

    def test_bad_k_raises(self):
        with pytest.raises(QueryError):
            KMeans(0)

    def test_deterministic_given_seed(self):
        X = blobs()
        a = KMeans(3, seed=7).fit(X)
        b = KMeans(3, seed=7).fit(X)
        assert np.array_equal(a.labels, b.labels)

    def test_runs_more_than_one_iteration(self):
        res = KMeans(4, seed=3).fit(blobs(seed=5))
        assert res.n_iter >= 2


class TestKModes:
    def test_recovers_categorical_blocks(self):
        rng = np.random.default_rng(0)
        a = np.tile([0, 0, 0], (60, 1))
        b = np.tile([1, 1, 1], (60, 1))
        X = np.vstack([a, b])
        noise = rng.integers(0, 2, X.shape) > 0.9
        res = KModes(2, seed=1).fit(X)
        assert sorted(res.cluster_sizes()) == [60, 60]

    def test_modes_are_valid_codes(self):
        rng = np.random.default_rng(1)
        X = rng.integers(0, 4, (100, 5)).astype(np.int32)
        res = KModes(3, seed=2).fit(X)
        assert res.modes.min() >= 0
        assert res.modes.max() < 4

    def test_missing_never_matches(self):
        X = np.array([[-1], [-1], [0], [0]], dtype=np.int32)
        res = KModes(2, seed=0).fit(X)
        # the two missing rows each mismatch everything, cost >= 2
        assert res.cost >= 2

    def test_cost_zero_on_identical(self):
        X = np.tile([2, 3], (10, 1)).astype(np.int32)
        res = KModes(1, seed=0).fit(X)
        assert res.cost == 0.0

    def test_empty_raises(self):
        with pytest.raises(QueryError):
            KModes(2).fit(np.empty((0, 3), dtype=np.int32))


class TestQuality:
    def test_inertia_matches_kmeans(self):
        X = blobs()
        res = KMeans(3, seed=1).fit(X)
        assert inertia(X, res.labels, res.centers) == pytest.approx(
            res.inertia, rel=1e-9
        )

    def test_silhouette_high_for_separated(self):
        X = blobs()
        res = KMeans(3, seed=1).fit(X)
        assert silhouette_score(X, res.labels) > 0.8

    def test_silhouette_low_for_random_labels(self):
        X = blobs()
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, len(X))
        assert silhouette_score(X, labels) < 0.1

    def test_silhouette_needs_two_clusters(self):
        X = blobs()
        with pytest.raises(QueryError):
            silhouette_score(X, np.zeros(len(X), dtype=int))

    def test_silhouette_sampling(self):
        X = blobs(n=400)
        res = KMeans(3, seed=1).fit(X)
        full = silhouette_score(X, res.labels, sample=None)
        sampled = silhouette_score(X, res.labels, sample=300)
        assert abs(full - sampled) < 0.1

    def test_davies_bouldin_lower_for_separated(self):
        X = blobs()
        good = KMeans(3, seed=1).fit(X)
        rng = np.random.default_rng(0)
        bad_labels = rng.integers(0, 3, len(X)).astype(np.int32)
        bad_centers = np.vstack([
            X[bad_labels == c].mean(axis=0) for c in range(3)
        ])
        assert davies_bouldin(X, good.labels, good.centers) < davies_bouldin(
            X, bad_labels, bad_centers
        )

    def test_davies_bouldin_needs_two_clusters(self):
        X = blobs()
        with pytest.raises(QueryError):
            davies_bouldin(X, np.zeros(len(X), dtype=int), X[:1])


class TestClampWarning:
    """n_clusters > n_samples: clamp to singletons with a warning."""

    def test_kmeans_warns_and_clamps(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.warns(UserWarning, match="clamping"):
            res = KMeans(5, seed=0).fit(X)
        assert res.k == 2
        assert sorted(res.cluster_sizes()) == [1, 1]

    def test_kmodes_warns_and_clamps(self):
        X = np.array([[0, 1], [1, 0], [2, 2]], dtype=np.int32)
        with pytest.warns(UserWarning, match="clamping"):
            res = KModes(7, seed=0).fit(X)
        assert res.k == 3

    def test_no_warning_when_k_fits(self, recwarn):
        X = np.arange(20, dtype=float).reshape(10, 2)
        KMeans(3, seed=0).fit(X)
        assert not [w for w in recwarn if "clamping" in str(w.message)]


class TestCheckpoint:
    """The budget hook: called every iteration, exceptions propagate."""

    def test_kmeans_calls_checkpoint_each_iteration(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 3))
        calls = []
        KMeans(3, seed=0).fit(X, checkpoint=lambda: calls.append(1))
        assert len(calls) >= 1

    def test_kmeans_checkpoint_exception_propagates(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 3))

        def boom():
            raise TimeoutError("deadline")

        with pytest.raises(TimeoutError):
            KMeans(3, seed=0).fit(X, checkpoint=boom)

    def test_kmodes_checkpoint_exception_propagates(self):
        rng = np.random.default_rng(1)
        X = rng.integers(0, 4, (50, 4)).astype(np.int32)

        def boom():
            raise TimeoutError("deadline")

        with pytest.raises(TimeoutError):
            KModes(3, seed=0).fit(X, checkpoint=boom)
