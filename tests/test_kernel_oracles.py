"""Differential oracles for the vectorized CAD View kernels.

Each kernel is checked against the straightforward form it replaced,
which lives only here: the k-means centroid update against
``np.add.at``, the categorical remap against ``sorted(set(...))``, the
V-optimal micro-bucket counts against ``np.add.at``, and the search
kernels (Algorithms 1 and 2, and the build's similarity graph) against
the scalar cosine that re-normalized both vectors on every call.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CADViewBuilder, CADViewConfig
from repro.clustering import KMeans
from repro.clustering import kmeans as kmeans_module
from repro.clustering.kmeans import _cluster_sums
from repro.core.serialize import to_dict
from repro.dataset import AttrKind, Attribute, Schema, Table
from repro.discretize import Discretizer
from repro.discretize import histogram as histogram_module
from repro.discretize.discretizer import _dense_codes
from repro.errors import CADViewError
from repro.iunits import (
    IUnit, iunit_similarity, ranked_list_distance, similarity_graph,
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


def remap_reference(codes, ncategories):
    """The categorical remap as the discretizer used to compute it."""
    occurring = sorted(set(int(c) for c in codes if c >= 0))
    remap = np.full(ncategories + 1, -1, dtype=np.int32)
    for new, old in enumerate(occurring):
        remap[old] = new
    return remap[codes], occurring


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


@st.composite
def design(draw):
    """(X, labels, k): one-hot blocks or random floats, k >= used labels."""
    n = draw(st.integers(1, 60))
    k = draw(st.integers(1, 8))
    labels = np.array(
        draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)),
        dtype=np.int32,
    )
    if draw(st.booleans()):
        widths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
        blocks = []
        for w in widths:
            codes = draw(st.lists(
                st.integers(-1, w - 1), min_size=n, max_size=n,
            ))
            block = np.zeros((n, w))
            for row, code in enumerate(codes):
                if code >= 0:
                    block[row, code] = 1.0 / np.sqrt(2.0)
            blocks.append(block)
        X = np.hstack(blocks)
    else:
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
