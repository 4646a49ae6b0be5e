"""Unit tests for encodings, k-means and k-modes."""

import numpy as np
import pytest

from repro.clustering import KMeans, KModes, one_hot_encode
from repro.discretize import Discretizer
from repro.discretize.discretizer import DiscretizedView
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
        enc = one_hot_encode(toy_view, ["city"])
        nonzeros = np.count_nonzero(enc.matrix, axis=1)
        # one entry per row except the missing-city row
        assert sorted(nonzeros) == [0] + [1] * 7

    def test_scaling_distance_one_per_attribute(self, toy_view):
        enc = one_hot_encode(toy_view, ["city"])
        # two rows with different cities are at squared distance 1
        x, y = enc.matrix[0], enc.matrix[3]  # Paris vs Lyon
        assert float(((x - y) ** 2).sum()) == pytest.approx(1.0)

    def test_empty_names_raises(self, toy_view):
        with pytest.raises(QueryError):
            one_hot_encode(toy_view, [])


def encoded(codes):
    """The one-hot encoding of an (n, a) code matrix, a column per
    attribute (``-1`` = missing)."""
    codes = np.asarray(codes, dtype=np.int32)
    names = [f"a{j}" for j in range(codes.shape[1])]
    width = int(codes.max(initial=-1)) + 1
    view = DiscretizedView(
        None,
        {name: codes[:, j] for j, name in enumerate(names)},
        {name: tuple(f"v{c}" for c in range(width)) for name in names},
        {},
        nrows=len(codes),
    )
    return one_hot_encode(view, names)


def blobs(seed=0, n=100):
    """Three groups of ``n`` tuples over three attributes: group g holds
    code g, and about one value in ten is the shared code 3."""
    rng = np.random.default_rng(seed)
    codes = np.repeat(np.arange(3), n)[:, None].repeat(3, axis=1)
    codes[rng.random(codes.shape) < 0.1] = 3
    return encoded(codes)


class TestKMeans:
    def test_recovers_blobs(self):
        X = blobs()
        res = KMeans(3, seed=1).fit(X)
        sizes = sorted(res.cluster_sizes())
        assert sizes == [100, 100, 100]

    def test_labels_match_centers(self):
        X = blobs()
        res = KMeans(3, seed=1).fit(X)
        d = ((X.matrix[:, None, :] - res.centers[None]) ** 2).sum(axis=2)
        assert np.array_equal(res.labels, d.argmin(axis=1))

    def test_inertia_decreases_with_k(self):
        X = blobs()
        inertias = [KMeans(k, seed=2).fit(X).inertia for k in (1, 3, 6)]
        assert inertias[0] > inertias[1] > inertias[2]

    def test_fewer_points_than_clusters(self):
        X = encoded([[0, 0], [1, 1]])
        with pytest.warns(UserWarning, match="clamping"):
            res = KMeans(5, seed=0).fit(X)
        assert res.k == 2

    def test_duplicate_points(self):
        X = encoded(np.zeros((10, 3)))
        res = KMeans(3, seed=0).fit(X)
        assert res.inertia == pytest.approx(0.0)

    def test_empty_raises(self):
        with pytest.raises(QueryError):
            KMeans(2).fit(encoded(np.empty((0, 2))))

    def test_one_dim_input_raises(self):
        with pytest.raises(QueryError):
            KMeans(2).fit(np.array([1.0, 2.0]))

    def test_plain_matrix_raises(self):
        with pytest.raises(QueryError, match="Encoding"):
            KMeans(2).fit(np.zeros((5, 2)))

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


class TestClampWarning:
    """n_clusters > n_samples: clamp to singletons with a warning."""

    def test_kmeans_warns_and_clamps(self):
        X = encoded([[0, 0], [1, 1]])
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
        X = encoded(np.arange(20).reshape(10, 2))
        KMeans(3, seed=0).fit(X)
        assert not [w for w in recwarn if "clamping" in str(w.message)]


class TestCheckpoint:
    """The budget hook: called every iteration, exceptions propagate."""

    def test_kmeans_calls_checkpoint_each_iteration(self):
        rng = np.random.default_rng(0)
        X = encoded(rng.integers(0, 4, (60, 3)))
        calls = []
        KMeans(3, seed=0).fit(X, checkpoint=lambda: calls.append(1))
        assert len(calls) >= 1

    def test_kmeans_checkpoint_exception_propagates(self):
        rng = np.random.default_rng(0)
        X = encoded(rng.integers(0, 4, (60, 3)))

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
