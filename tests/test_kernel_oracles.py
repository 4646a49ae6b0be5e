"""Differential oracles for the vectorized CAD View kernels.

Each kernel is checked against the straightforward form it replaced,
which lives only here: the k-means centroid update (per column, and
from an encoding's count tables) against ``np.add.at``, the in-place
k-means distances against the expression written out, cluster labeling
against one mask per cluster, the categorical remap against
``sorted(set(...))``, a categorical column's distinct values against
``np.unique`` of its codes, the V-optimal micro-bucket counts against
``np.add.at``, and the search kernels (Algorithms 1 and 2, and the
build's similarity graph) against the scalar cosine that re-normalized
both vectors on every call.  A build-level case runs whole CAD View
builds on the held forms and on the shipped ones.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CADViewBuilder, CADViewConfig, DBExplorer
from repro.clustering import KMeans, one_hot_encode
from repro.clustering import kmeans as kmeans_module
from repro.clustering.kmeans import (
    _CountSums, _cluster_sums, _pairwise_sq_dists, _sq_norms,
)
from repro.core import builder as builder_module
from repro.core.serialize import to_dict
from repro.dataset import AttrKind, Attribute, Column, Schema, Table
from repro.dataset.generators import generate_usedcars
from repro.discretize import Discretizer
from repro.discretize import histogram as histogram_module
from repro.discretize.discretizer import DiscretizedView, _dense_codes
from repro.errors import CADViewError
from repro.iunits import (
    IUnit, LabelingConfig, build_iunits, iunit_similarity,
    ranked_list_distance, representative_values, similarity_graph,
)
from repro.iunits import iunit as iunit_module
from repro.iunits.similarity import similarity_matrix
from repro.obs import work

# ------------------------------------------------------ references


def sums_reference(X, labels, k):
    """The centroid sums as the k-means update used to compute them."""
    sums = np.zeros((k, X.shape[1]))
    np.add.at(sums, labels, X)
    return sums


def count_sums_reference(encoding):
    """Centroid sums of an encoding, added column by column."""
    return lambda labels, k: sums_reference(encoding.matrix, labels, k)


def distances_reference(X, C, x2):
    """The k-means distances as the expression written out."""
    work.add("work.cluster.distance_evals", X.shape[0] * C.shape[0])
    c2 = _sq_norms(C).T
    d = x2 - 2.0 * (X @ C.T) + c2
    np.maximum(d, 0.0, out=d)
    return d


def label_cluster_reference(view, member_mask, pivot_attribute,
                            pivot_value, compare_attributes,
                            config=LabelingConfig()):
    """One cluster's IUnit, its codes gathered through its mask."""
    member_mask = np.asarray(member_mask, dtype=bool)
    size = int(member_mask.sum())
    if size == 0:
        raise CADViewError("cannot label an empty cluster")
    distributions = {}
    display = {}
    for name in compare_attributes:
        codes = view.codes(name)[member_mask]
        valid = codes[codes >= 0]
        counts = np.bincount(valid, minlength=view.ncodes(name)).astype(float)
        distributions[name] = counts
        display[name] = representative_values(
            counts, view.labels(name), config
        )
    return IUnit(pivot_attribute, pivot_value, size,
                 tuple(compare_attributes), distributions, display)


def build_iunits_reference(view, cluster_labels, pivot_attribute,
                           pivot_value, compare_attributes,
                           config=LabelingConfig()):
    """Every cluster labeled through a mask of its own."""
    cluster_labels = np.asarray(cluster_labels)
    iunits = []
    for cid in np.unique(cluster_labels):
        if cid < 0:
            continue
        mask = cluster_labels == cid
        if not mask.any():
            continue
        iunits.append(label_cluster_reference(
            view, mask, pivot_attribute, pivot_value,
            compare_attributes, config,
        ))
    return iunits


def partition_reference(view, rows, names):
    """A pivot partition as the whole view restricted to ``rows``."""
    mask = np.zeros(len(view), dtype=bool)
    mask[rows] = True
    return view.restrict(mask)


def remap_reference(codes, ncategories):
    """The categorical remap as the discretizer used to compute it."""
    occurring = sorted(set(int(c) for c in codes if c >= 0))
    remap = np.full(ncategories + 1, -1, dtype=np.int32)
    for new, old in enumerate(occurring):
        remap[old] = new
    return remap[codes], occurring


def distinct_values_reference(col):
    """A categorical column's distinct values as ``np.unique`` found them."""
    present = np.unique(col.codes)
    return tuple(col.categories[int(c)] for c in present if c >= 0)


def cosine_reference(a, b):
    """The scalar cosine: both vectors re-normalized on every call."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise CADViewError(
            f"cosine: shape mismatch {a.shape} vs {b.shape}"
        )
    ma, mb = np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0)
    if ma == 0 or mb == 0:
        return 0.0
    a = a / ma
    b = b / mb
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    value = float(np.dot(a / na, b / nb))
    return min(1.0, max(0.0, value))


def similarity_reference(x, y):
    """Algorithm 1 as the sum of scalar cosines."""
    if x.compare_attributes != y.compare_attributes:
        raise CADViewError(
            "IUnits come from different Compare Attribute sets: "
            f"{x.compare_attributes} vs {y.compare_attributes}"
        )
    work.add("work.diversify.similarity_pairs")
    total = 0.0
    for d in x.compare_attributes:
        total += cosine_reference(x.distributions[d], y.distributions[d])
    return total


def ranked_list_reference(tx, ty, tau):
    """Algorithm 2 scoring every pair once per direction."""
    if not tx and not ty:
        return 0.0

    def one_direction(a, b):
        d = 0.0
        for i, unit in enumerate(a, start=1):
            similar_ranks = [
                j for j, other in enumerate(b, start=1)
                if similarity_reference(unit, other) >= tau
            ]
            if similar_ranks:
                index = min(similar_ranks, key=lambda j: abs(j - i))
            else:
                index = len(b) + 1
            d += abs(i - index)
        return d

    return one_direction(tx, ty) + one_direction(ty, tx)


def unit_rows_reference(m):
    """Rows of ``m`` scaled to unit length, all rows in one pass."""
    scale = np.abs(m).max(axis=1, initial=0.0)
    nonzero = scale > 0
    rows = m[nonzero] / scale[nonzero, None]
    out = np.zeros_like(m)
    out[nonzero] = rows / np.linalg.norm(rows, axis=1)[:, None]
    return out


def matrix_reference(units):
    """The Gram form over rows normalized from the raw distributions."""
    n = len(units)
    total = np.zeros((n, n))
    for d in (units[0].compare_attributes if units else ()):
        rows = [np.asarray(u.distributions[d], dtype=float) for u in units]
        unit = unit_rows_reference(np.stack(rows))
        total += np.clip(unit @ unit.T, 0.0, 1.0)
    return total


def graph_reference(units, tau):
    """Pairwise scalar Algorithm 1: (adjacency, similarity totals)."""
    n = len(units)
    adj = np.zeros((n, n), dtype=bool)
    totals = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            totals[i, j] = totals[j, i] = similarity_reference(
                units[i], units[j]
            )
            adj[i, j] = adj[j, i] = totals[i, j] >= tau
    return adj, totals


# ------------------------------------------------ k-means centroids

floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=True,
)


def code_view(codes, nrows):
    """A table-less view over ``codes`` ({name: (codes, width)})."""
    return DiscretizedView(
        None,
        {name: c for name, (c, _) in codes.items()},
        {name: tuple(f"v{i}" for i in range(w))
         for name, (_, w) in codes.items()},
        {},
        nrows=nrows,
    )


@st.composite
def code_columns(draw, n, max_attrs=4, max_width=5):
    """1-4 code columns of ``n`` rows, with missing (-1) codes and
    attributes whose domain is empty (every code missing)."""
    widths = draw(st.lists(
        st.integers(0, max_width), min_size=1, max_size=max_attrs,
    ))
    return {
        f"a{i}": (np.array(draw(st.lists(
            st.integers(-1, w - 1), min_size=n, max_size=n,
        )), dtype=np.int32), w)
        for i, w in enumerate(widths)
    }


@st.composite
def coded_design(draw):
    """(encoding, labels, k): a one-hot encoding, k >= used labels."""
    n = draw(st.integers(1, 60))
    k = draw(st.integers(1, 8))
    labels = np.array(
        draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)),
        dtype=np.int32,
    )
    columns = draw(code_columns(n))
    encoding = one_hot_encode(code_view(columns, n), list(columns))
    return encoding, labels, k


@st.composite
def design(draw):
    """(X, labels, k): one-hot blocks or random floats, k >= used labels."""
    if draw(st.booleans()):
        encoding, labels, k = draw(coded_design())
        return encoding.matrix, labels, k
    n = draw(st.integers(1, 60))
    k = draw(st.integers(1, 8))
    labels = np.array(
        draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)),
        dtype=np.int32,
    )
    d = draw(st.integers(1, 6))
    X = np.array(
        draw(st.lists(floats, min_size=n * d, max_size=n * d)),
    ).reshape(n, d)
    return X, labels, k


class TestCentroidUpdate:
    @settings(max_examples=200, deadline=None)
    @given(design())
    def test_matches_add_at(self, case):
        X, labels, k = case
        assert np.array_equal(
            _cluster_sums(X, labels, k), sums_reference(X, labels, k)
        )

    def test_empty_clusters_sum_to_zero(self):
        X = np.arange(12.0).reshape(4, 3)
        labels = np.array([2, 2, 0, 2], dtype=np.int32)
        sums = _cluster_sums(X, labels, 5)
        assert np.array_equal(sums, sums_reference(X, labels, 5))
        assert not sums[[1, 3, 4]].any()

    def test_single_column_accumulates_in_row_order(self):
        # a masked X[labels == j].sum(axis=0) sums one column pairwise
        X = np.full((5000, 1), 1.0 / np.sqrt(2.0))
        labels = (np.arange(5000) % 3).astype(np.int32)
        assert np.array_equal(
            _cluster_sums(X, labels, 3), sums_reference(X, labels, 3)
        )

    @settings(max_examples=40, deadline=None)
    @given(design(), st.integers(0, 2**16))
    def test_fit_matches_add_at_fit(self, case, seed):
        X, _, k = case
        k = min(k, len(X))
        new = KMeans(k, seed=seed).fit(X)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kmeans_module, "_cluster_sums", sums_reference)
            old = KMeans(k, seed=seed).fit(X)
        assert np.array_equal(new.labels, old.labels)
        assert np.array_equal(new.centers, old.centers)
        assert new.inertia == old.inertia
        assert new.n_iter == old.n_iter


def assert_same_fit(new, old):
    assert np.array_equal(new.labels, old.labels)
    assert np.array_equal(new.centers, old.centers)
    assert new.inertia == old.inertia
    assert new.n_iter == old.n_iter


class TestCountTableSums:
    """Centroid sums of an encoding, read off its codes' count tables."""

    @settings(max_examples=300, deadline=None)
    @given(coded_design())
    def test_matches_add_at(self, case):
        encoding, labels, k = case
        sums = _CountSums(encoding)(labels, k)
        assert np.array_equal(sums, sums_reference(encoding.matrix, labels, k))

    def test_missing_codes_and_empty_clusters(self):
        codes = {"a": (np.array([2, -1, 0, 2, -1], dtype=np.int32), 3),
                 "b": (np.full(5, -1, dtype=np.int32), 0)}
        encoding = one_hot_encode(code_view(codes, 5), ["a", "b"])
        labels = np.array([3, 3, 0, 3, 1], dtype=np.int32)
        sums = _CountSums(encoding)(labels, 6)
        assert np.array_equal(sums, sums_reference(encoding.matrix, labels, 6))
        assert not sums[[2, 4, 5]].any()
        assert not sums[:, 3].any()   # the empty domain's one zero column

    def test_single_cluster_reaches_the_prefix_table_tail(self):
        # 5,000 additions of s: the table's last entry, compared with
        # the sequential sum that np.add.at makes
        n = 5000
        codes = {"a": (np.zeros(n, dtype=np.int32), 1),
                 "b": ((np.arange(n) % 2).astype(np.int32), 2)}
        encoding = one_hot_encode(code_view(codes, n), ["a", "b"])
        labels = np.zeros(n, dtype=np.int32)
        sums = _CountSums(encoding)(labels, 1)
        assert np.array_equal(sums, sums_reference(encoding.matrix, labels, 1))
        assert np.array_equal(sums, _cluster_sums(encoding.matrix, labels, 1))

    @settings(max_examples=100, deadline=None)
    @given(coded_design(), st.integers(0, 2**16))
    def test_fit_on_encoding_matches_fit_on_matrix(self, case, seed):
        encoding, _, k = case
        k = min(k, len(encoding.matrix))
        assert_same_fit(
            KMeans(k, seed=seed).fit(encoding),
            KMeans(k, seed=seed).fit(encoding.matrix),
        )

    def test_fit_on_encoding_skips_the_column_loop(self, monkeypatch):
        codes = {"a": (np.array([0, 1, 2, 0, 1, 2, 0], dtype=np.int32), 3)}
        encoding = one_hot_encode(code_view(codes, 7), ["a"])

        def refuse(*args):
            raise AssertionError("per-column sums ran for an encoding")

        monkeypatch.setattr(kmeans_module, "_cluster_sums", refuse)
        assert KMeans(3, seed=0).fit(encoding).k == 3


class TestDistances:
    @settings(max_examples=200, deadline=None)
    @given(design(), st.integers(1, 5), st.integers(0, 2**16))
    def test_in_place_matches_expression(self, case, k, seed):
        X, _, _ = case
        rng = np.random.default_rng(seed)
        C = X[rng.integers(len(X), size=k)] + rng.normal(size=(k, X.shape[1]))
        x2 = _sq_norms(X)
        got = _pairwise_sq_dists(X, C, x2)
        assert got.tobytes() == distances_reference(X, C, x2).tobytes()


# -------------------------------------------------- cluster labeling

@st.composite
def labeled_partition(draw):
    """(view, cluster ids, config): negative and gapped cluster ids."""
    n = draw(st.integers(1, 60))
    columns = draw(code_columns(n, max_width=6))
    ids = np.array(draw(st.lists(
        st.sampled_from((-3, -1, 0, 1, 2, 5, 9)), min_size=n, max_size=n,
    )))
    config = LabelingConfig(
        max_display=draw(st.integers(1, 3)),
        alpha=draw(st.sampled_from((0.05, 0.5, 1.0))),
        min_share=draw(st.sampled_from((0.0, 0.15, 0.4))),
    )
    return code_view(columns, n), ids, config


def assert_same_iunits(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert (a.pivot_attribute, a.pivot_value, a.size) == (
            b.pivot_attribute, b.pivot_value, b.size
        )
        assert a.compare_attributes == b.compare_attributes
        assert dict(a.display) == dict(b.display)
        assert list(a.distributions) == list(b.distributions)
        for name in a.compare_attributes:
            x, y = a.distributions[name], b.distributions[name]
            assert x.dtype == y.dtype == np.float64
            assert x.tobytes() == y.tobytes()


class TestLabeling:
    """Every cluster's distributions from one joint count per attribute."""

    @settings(max_examples=300, deadline=None)
    @given(labeled_partition())
    def test_matches_mask_per_cluster(self, case):
        view, ids, config = case
        names = list(view.attribute_names)
        assert_same_iunits(
            build_iunits(view, ids, "p", "v", names, config),
            build_iunits_reference(view, ids, "p", "v", names, config),
        )

    def test_int32_labels_and_unlabeled_rows(self):
        codes = {"a": (np.array([1, 0, -1, 1, 1, 0], dtype=np.int32), 2)}
        view = code_view(codes, 6)
        ids = np.array([4, 4, 4, -1, 0, 0], dtype=np.int32)
        new = build_iunits(view, ids, "p", "v", ["a"])
        assert_same_iunits(
            new, build_iunits_reference(view, ids, "p", "v", ["a"])
        )
        assert [u.size for u in new] == [2, 3]
        assert new[1].distributions["a"].tolist() == [1.0, 1.0]


# --------------------------------------------- whole builds, held forms

# explore-workload CREATEs on the 40K table.  On the first three, a
# per-attribute gather of the k-means distances (not BLAS's order of
# addition) ends some fits differently and changes the view.
EXPLORE_BUILDS = (
    "SET pivot = Make SELECT Price, Mileage FROM data WHERE BodyType IN "
    "(Sedan, Truck) AND Price < 20000 AND Mileage > 50000",
    "SET pivot = Make SELECT Price, Mileage FROM data WHERE BodyType IN "
    "(Sedan, Truck) AND Transmission = Automatic",
    "SET pivot = Make SELECT Price FROM data WHERE Year >= 2011 AND "
    "Mileage < 30000",
    "SET pivot = BodyType SELECT Price FROM data WHERE Make = Ford",
    "SET pivot = Color SELECT Mileage, Year FROM data WHERE Price < 12000",
)


def build_views(dbx):
    views = []
    for i, body in enumerate(EXPLORE_BUILDS):
        views.append(dbx.execute(
            f"CREATE CADVIEW held{i} AS {body} LIMIT COLUMNS 4 IUNITS 3"
        ))
        dbx.execute(f"DROP CADVIEW held{i}")
    return views


def candidate_bytes(cad):
    return [
        (value, u.size, dict(u.display),
         [u.distributions[a].tobytes() for a in u.compare_attributes])
        for value, units in cad.candidates.items() for u in units
    ]


@pytest.fixture(scope="module")
def explorer40k():
    dbx = DBExplorer(CADViewConfig(seed=7))
    dbx.register("data", generate_usedcars(40_000, seed=7))
    return dbx


def test_builds_equal_the_held_forms(explorer40k):
    """Partition, centroid sums, distances and labeling all held."""
    new = build_views(explorer40k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DiscretizedView, "partition", partition_reference)
        mp.setattr(kmeans_module, "_CountSums", count_sums_reference)
        mp.setattr(kmeans_module, "_pairwise_sq_dists", distances_reference)
        mp.setattr(builder_module, "build_iunits", build_iunits_reference)
        old = build_views(explorer40k)
    for a, b in zip(new, old):
        assert to_dict(a) == to_dict(b)
        assert candidate_bytes(a) == candidate_bytes(b)


# ------------------------------------------------ categorical remap

@st.composite
def code_arrays(draw):
    ncategories = draw(st.integers(0, 12))
    codes = draw(st.lists(st.integers(-1, ncategories - 1), max_size=80))
    return np.array(codes, dtype=np.int32), ncategories


class TestCategoricalRemap:
    @settings(max_examples=200, deadline=None)
    @given(code_arrays())
    def test_matches_sorted_set(self, case):
        codes, ncategories = case
        new_codes, occurring = _dense_codes(codes, ncategories)
        ref_codes, ref_occurring = remap_reference(codes, ncategories)
        assert new_codes.dtype == ref_codes.dtype == np.int32
        assert np.array_equal(new_codes, ref_codes)
        assert [int(c) for c in occurring] == ref_occurring

    def test_missing_and_unused_categories(self):
        codes = np.array([3, -1, 0, 3, -1], dtype=np.int32)
        new_codes, occurring = _dense_codes(codes, 6)
        assert new_codes.tolist() == [1, -1, 0, 1, -1]
        assert occurring.tolist() == [0, 3]

    def test_discretizer_labels_follow_reference(self):
        schema = Schema([Attribute("c", AttrKind.CATEGORICAL)])
        table = Table.from_rows(schema, [
            {"c": v} for v in ("a", "b", None, "c", "a", "d", None)
        ])
        narrowed = table.filter(np.array([1, 0, 1, 0, 1, 1, 1], dtype=bool))
        col = narrowed["c"]
        view = Discretizer().fit(narrowed)
        ref_codes, ref_occurring = remap_reference(
            col.codes, len(col.categories)
        )
        assert np.array_equal(view.codes("c"), ref_codes)
        assert view.labels("c") == tuple(
            col.categories[o] for o in ref_occurring
        )
        assert view.labels("c") == ("a", "d")


# ------------------------------------------------ distinct values

def coded_column(codes, ncategories):
    return Column(
        Attribute("c", AttrKind.CATEGORICAL),
        np.asarray(codes, dtype=np.int32),
        tuple(f"v{i}" for i in range(ncategories)),
    )


class TestDistinctValues:
    @settings(max_examples=200, deadline=None)
    @given(code_arrays())
    def test_matches_unique(self, case):
        col = coded_column(*case)
        assert col.distinct_values() == distinct_values_reference(col)

    @pytest.mark.parametrize("codes, ncategories, expected", [
        ([3, -1, 0, 3, -1], 6, ("v0", "v3")),  # missing, unused categories
        ([2, 2, 1], 3, ("v1", "v2")),           # code order, not first seen
        ([], 4, ()),                            # empty
        ([], 0, ()),                            # empty, no categories
        ([-1, -1, -1], 3, ()),                  # all missing
    ])
    def test_edge_cases(self, codes, ncategories, expected):
        col = coded_column(codes, ncategories)
        assert col.distinct_values() == expected
        assert distinct_values_reference(col) == expected


# ------------------------------------------- V-optimal micro-buckets

@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.integers(0, 5000), min_size=1, max_size=300,
), st.integers(2, 12))
def test_voptimal_microbucket_counts_match_add_at(values, max_distinct):
    vals = np.array(values, dtype=float)
    seen = []

    def capture(counts, nbins):
        seen.append(np.array(counts, dtype=float))
        return real(counts, nbins)

    real = histogram_module.v_optimal_partition
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(histogram_module, "v_optimal_partition", capture)
        histogram_module.v_optimal_bins(vals, 3, max_distinct=max_distinct)
    uniq, counts = np.unique(vals, return_counts=True)
    if len(uniq) > max_distinct:
        edges = np.linspace(uniq[0], uniq[-1], max_distinct + 1)
        idx = np.clip(np.searchsorted(edges, uniq, side="right") - 1,
                      0, max_distinct - 1)
        expected = np.zeros(max_distinct)
        np.add.at(expected, idx, counts)
    else:
        expected = counts.astype(float)
    assert np.array_equal(seen[0], expected)


# ------------------------------------------ search and graph kernels

@st.composite
def candidate_sets(draw):
    """IUnits sharing Compare Attributes; zero and subnormal vectors."""
    nattrs = draw(st.integers(1, 4))
    attrs = tuple(f"a{i}" for i in range(nattrs))
    widths = [draw(st.integers(1, 6)) for _ in attrs]
    units = []
    for u in range(draw(st.integers(0, 8))):
        dists = {}
        for a, w in zip(attrs, widths):
            counts = np.array(
                draw(st.lists(st.integers(0, 50), min_size=w, max_size=w)),
                dtype=float,
            )
            kind = draw(st.sampled_from(("counts", "zero", "subnormal")))
            if kind == "zero":
                counts[:] = 0.0
            elif kind == "subnormal":
                counts *= 2.0 ** -1070
            dists[a] = counts
        units.append(IUnit("p", f"v{u}", 1, attrs, dists,
                           {a: () for a in attrs}))
    tau = draw(st.floats(0.0, float(nattrs)))
    return units, tau


@pytest.fixture(scope="module")
def cad(cars):
    return CADViewBuilder(
        CADViewConfig(compare_limit=3, iunits_k=2, seed=7)
    ).build(cars, pivot="BodyType")


@pytest.fixture
def normalizations(monkeypatch):
    """The :func:`unit_vector` calls made while the test runs."""
    calls = []
    real = iunit_module.unit_vector
    monkeypatch.setattr(
        iunit_module, "unit_vector",
        lambda counts: calls.append(1) or real(counts),
    )
    return calls


class TestSearchKernels:
    """Algorithms 1 and 2 from the vectors each IUnit normalized once."""

    @settings(max_examples=200, deadline=None)
    @given(candidate_sets())
    def test_algorithm1_equals_scalar_cosine_bit_for_bit(self, case):
        units, _ = case
        for x in units:
            for y in units:
                got = iunit_similarity(x, y)
                assert got.hex() == similarity_reference(x, y).hex()
                assert got.hex() == iunit_similarity(y, x).hex()

    @settings(max_examples=200, deadline=None)
    @given(candidate_sets(), st.data())
    def test_algorithm2_equals_two_direction_form(self, case, data):
        units, tau = case
        cut = data.draw(st.integers(0, len(units)))
        tx, ty = units[:cut], units[cut:]
        got = ranked_list_distance(tx, ty, tau)
        assert got == ranked_list_reference(tx, ty, tau)
        assert type(got) is float

    @settings(max_examples=50, deadline=None)
    @given(candidate_sets(), st.data())
    def test_algorithm2_scores_each_pair_once(self, case, data):
        units, tau = case
        cut = data.draw(st.integers(0, len(units)))
        tx, ty = units[:cut], units[cut:]
        with work.track() as new:
            ranked_list_distance(tx, ty, tau)
        with work.track() as old:
            ranked_list_reference(tx, ty, tau)
        pairs = len(tx) * len(ty)
        assert new.counts.get("work.diversify.similarity_pairs", 0) == pairs
        assert old.counts.get("work.diversify.similarity_pairs", 0) == (
            2 * pairs
        )

    @settings(max_examples=100, deadline=None)
    @given(candidate_sets())
    def test_gram_form_matches_held_gram_form(self, case):
        units, _ = case
        n = len(units)
        nattrs = len(units[0].compare_attributes) if units else 0
        off = ~np.eye(n, dtype=bool)
        diff = np.abs(similarity_matrix(units) - matrix_reference(units))
        assert np.all(diff[off] <= 1e-12 * nattrs)

    def test_highlight_prints_algorithm1_bits(self, cad):
        for value in cad.pivot_values:
            for anchor in cad.row(value):
                hits = cad.similar_iunits(
                    value, anchor.uid, threshold=0.0, include_self=True
                )
                assert len(hits) == len(cad.all_iunits())
                for ref, sim in hits:
                    other = cad.iunit(ref.pivot_value, ref.iunit_id)
                    assert sim.hex() == similarity_reference(
                        anchor, other
                    ).hex()

    def test_with_uid_copies_keep_the_vectors(self):
        unit = IUnit("p", "a", 3, ("x", "y"),
                     {"x": np.array([3.0, 1.0]), "y": np.array([0.0, 2.0])},
                     {"x": (), "y": ()})
        ranked = unit.with_uid(2).with_uid(1)
        assert ranked.unit_vectors is unit.unit_vectors
        assert ranked.uid == 1 and unit.uid is None

    def test_with_uid_normalizes_nothing(self, normalizations):
        unit = IUnit("p", "a", 3, ("x",), {"x": np.array([3.0, 1.0])},
                     {"x": ()})
        assert len(normalizations) == 1
        unit.with_uid(2).with_uid(1)
        assert len(normalizations) == 1

    def test_reordered_views_keep_the_vectors(self, cad, normalizations):
        reordered = cad.reorder_by_similarity(cad.pivot_values[-1])
        reordered.similar_iunits(reordered.pivot_values[0], 1)
        assert normalizations == []
        for value in cad.pivot_values:
            for old, new in zip(cad.row(value), reordered.row(value)):
                assert new.unit_vectors is old.unit_vectors

    def test_vectors_stay_off_the_payload(self, cad):
        assert "unit_vectors" not in json.dumps(to_dict(cad))


class TestSimilarityGraph:
    @settings(max_examples=200, deadline=None)
    @given(candidate_sets())
    def test_matches_pairwise_loop(self, case):
        units, tau = case
        ref_adj, ref_totals = graph_reference(units, tau)
        adj = similarity_graph(units, tau)
        totals = similarity_matrix(units)
        n = len(units)
        nattrs = len(units[0].compare_attributes) if units else 0
        off = ~np.eye(n, dtype=bool)
        assert np.all(np.abs(totals - ref_totals)[off] <= 1e-12 * nattrs)
        decided = off & (np.abs(ref_totals - tau) > 1e-9)
        assert np.array_equal(adj[decided], ref_adj[decided])
        assert np.array_equal(adj, adj.T)
        assert not adj.diagonal().any()

    @settings(max_examples=50, deadline=None)
    @given(candidate_sets())
    def test_counts_one_pair_per_unordered_pair(self, case):
        units, tau = case
        n = len(units)
        with work.track() as new:
            similarity_graph(units, tau)
        with work.track() as old:
            graph_reference(units, tau)
        assert new.as_dict() == old.as_dict()
        assert new.counts.get("work.diversify.similarity_pairs", 0) == (
            n * (n - 1) // 2
        )

    def test_zero_vector_is_similar_to_nothing(self):
        attrs = ("x",)
        zero = IUnit("p", "a", 1, attrs, {"x": np.zeros(3)}, {"x": ()})
        also_zero = IUnit("p", "b", 1, attrs, {"x": np.zeros(3)}, {"x": ()})
        assert similarity_matrix([zero, also_zero])[0, 1] == 0.0
        assert not similarity_graph([zero, also_zero], 1e-9).any()

    def test_mismatched_compare_attributes_raise(self):
        a = IUnit("p", "a", 1, ("x",), {"x": np.ones(2)}, {"x": ()})
        b = IUnit("p", "b", 1, ("y",), {"y": np.ones(2)}, {"y": ()})
        with pytest.raises(CADViewError, match="Compare Attribute sets"):
            similarity_graph([a, b], 0.5)

    def test_mismatched_widths_raise(self):
        a = IUnit("p", "a", 1, ("x",), {"x": np.ones(2)}, {"x": ()})
        b = IUnit("p", "b", 1, ("x",), {"x": np.ones(3)}, {"x": ()})
        with pytest.raises(CADViewError, match="shape mismatch"):
            similarity_graph([a, b], 0.5)
