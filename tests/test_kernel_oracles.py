"""Differential oracles for the vectorized CAD View kernels.

Each kernel is checked against the straightforward form it replaced,
which lives only here: the k-means centroid sums, read off an
encoding's count tables, against ``np.add.at``, the k-means fit over
distinct tuples against a plain row-by-row fit of the encoding's matrix
with the same fixed-order distance kernel (bit for bit) and against
the BLAS distance product it replaced (within a tolerance), a whole
build's cluster labeling against one mask, one normalization and one
representative-value loop per cluster, the categorical remap against
``sorted(set(...))``, a categorical column's distinct values against
``np.unique`` of its codes, the V-optimal micro-bucket counts against
``np.add.at``, and the search kernels (Algorithms 1 and 2, and the
build's similarity graph) against the scalar cosine that re-normalized
both vectors on every call.  A build-level case runs whole CAD View
builds on the held forms and on the shipped ones.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from repro import CADViewBuilder, CADViewConfig, DBExplorer
from repro.clustering import Encoding, KMeans, one_hot_encode
from repro.clustering.kmeans import (
    MAX_ITER, TOL, KMeansResult, _CountSums, _sq_norms, _Tuples,
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
from repro.iunits import labeling as labeling_module
from repro.iunits.iunit import unit_vector
from repro.iunits.similarity import ranked_list_distances, similarity_matrix
from repro.obs import work
from repro.obs.tracer import Tracer

# ------------------------------------------------------ references


def sums_reference(X, labels, k):
    """The centroid sums as the k-means update used to compute them."""
    sums = np.zeros((k, X.shape[1]))
    np.add.at(sums, labels, X)
    return sums


def fixed_order_distances(X, C):
    """k-means distances of every row: both column sums added in order."""
    dot = np.multiply.outer(X[:, 0], C[:, 0])
    x2 = X[:, 0] * X[:, 0]
    for j in range(1, X.shape[1]):
        dot = dot + np.multiply.outer(X[:, j], C[:, j])
        x2 = x2 + X[:, j] * X[:, j]
    return np.maximum(x2[:, None] - 2.0 * dot + _sq_norms(C).T, 0.0)


def blas_distances(X, C):
    """The k-means distances as the BLAS product computed them."""
    d = _sq_norms(X) - 2.0 * (X @ C.T) + _sq_norms(C).T
    return np.maximum(d, 0.0)


def kmeans_reference(km, encoding, rng=None):
    """Lloyd's k-means with k-means++ seeding, row by row.

    Every row of the encoding's matrix has its distances computed (no
    distinct tuples), with the fixed-order kernel, and the centroids are
    summed by ``np.add.at``.
    """
    X = encoding.matrix
    n, d = X.shape
    k = min(km.n_clusters, n)
    rng = rng or np.random.default_rng(km.seed)
    centers = np.empty((k, d))
    centers[0] = X[int(rng.integers(n))]
    closest = fixed_order_distances(X, centers[:1])[:, 0]
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[j:] = X[rng.integers(n, size=k - j)]
            break
        centers[j] = X[int(rng.choice(n, p=closest / total))]
        closest = np.minimum(
            closest, fixed_order_distances(X, centers[j:j + 1])[:, 0]
        )
    prev, n_iter = np.inf, 0
    for n_iter in range(1, MAX_ITER + 1):
        dists = fixed_order_distances(X, centers)
        labels = dists.argmin(axis=1)
        nearest = dists[np.arange(n), labels]
        inertia = float(nearest.sum())
        counts = np.bincount(labels, minlength=k).astype(float)
        sums = sums_reference(X, labels, k)
        far = np.argsort(nearest)[::-1]
        for j, idx in zip(np.flatnonzero(counts == 0), far):
            sums[j] = X[idx]
            counts[j] = 1.0
        centers = sums / counts[:, None]
        if np.isfinite(prev) and prev - inertia <= TOL * max(prev, 1e-12):
            break
        prev = inertia
    dists = fixed_order_distances(X, centers)
    labels = dists.argmin(axis=1)
    inertia = float(dists[np.arange(n), labels].sum())
    return KMeansResult(labels.astype(np.int32), centers, inertia, n_iter)


def unit_vector_reference(counts):
    """One distribution scaled to unit length on its own (1-D)."""
    a = np.asarray(counts, dtype=float)
    scale = np.abs(a).max(initial=0.0)
    if scale == 0:
        return np.zeros_like(a)
    a = a / scale
    return a / np.sqrt(np.add.reduce(a * a))


def significantly_below_reference(c_small, c_big, total, alpha):
    """The two-proportion z-test on one pair of counts."""
    if total <= 0 or c_big <= 0:
        return False
    p1, p2 = c_big / total, c_small / total
    pooled = (c_big + c_small) / (2.0 * total)
    if pooled in (0.0, 1.0):
        return False
    se = np.sqrt(2.0 * pooled * (1.0 - pooled) / total)
    if se == 0:
        return p1 > p2
    z = (p1 - p2) / se
    p_value = 1.0 - float(ndtr(z))  # one-sided
    return p_value <= alpha


def representative_values_reference(counts, labels, config):
    """One distribution's display values, admitted value by value."""
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        return ()
    order = np.argsort(-counts, kind="stable")
    chosen = []
    prev_count = None
    for idx in order:
        c = counts[idx]
        if c <= 0 or len(chosen) >= config.max_display:
            break
        if chosen:
            if c / total < config.min_share:
                break
            if significantly_below_reference(
                c, prev_count, total, config.alpha
            ):
                break
        chosen.append(labels[idx])
        prev_count = c
    return tuple(chosen)


def label_cluster_reference(view, member_mask, pivot_attribute,
                            pivot_value, compare_attributes,
                            config=LabelingConfig()):
    """One cluster's IUnit, its codes gathered through its mask and
    each distribution normalized and labeled on its own."""
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
        display[name] = representative_values_reference(
            counts, view.labels(name), config
        )
    vectors = {
        name: unit_vector_reference(counts)
        for name, counts in distributions.items()
    }
    return IUnit(pivot_attribute, pivot_value, size,
                 tuple(compare_attributes), distributions, display, vectors)


def build_iunits_reference(view, cluster_labels, pivot_attribute,
                           pivot_value, compare_attributes,
                           config=LabelingConfig()):
    """Every cluster of one partition labeled through a mask of its own."""
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


def held_iunit(value, size, dists):
    """An undisplayed IUnit whose vectors were normalized one by one."""
    attrs = tuple(dists)
    return IUnit("p", value, size, attrs, dists, {a: () for a in attrs},
                 {a: unit_vector_reference(d) for a, d in dists.items()})


def whole_build_reference(view, partitions, pivot_attribute,
                          compare_attributes, config=LabelingConfig()):
    """A build's labeling as one :func:`build_iunits_reference` call per
    pivot partition, in order."""
    iunits = []
    for value, rows, labels in partitions:
        iunits.extend(build_iunits_reference(
            view.partition(rows, compare_attributes), labels,
            pivot_attribute, value, compare_attributes, config,
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
    """The scalar cosine: both vectors re-normalized on every call.

    Its sums are numpy's 1-D add-reduction, the order the search
    kernels fix (the BLAS ``np.dot`` it once called adds in an order
    the loaded BLAS kernel picks).
    """
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
    na, nb = np.sqrt(np.add.reduce(a * a)), np.sqrt(np.add.reduce(b * b))
    if na == 0 or nb == 0:
        return 0.0
    value = float(np.add.reduce((a / na) * (b / nb)))
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
    """Rows normalized all at once, each pair's cosine taken alone."""
    n = len(units)
    total = np.zeros((n, n))
    for d in (units[0].compare_attributes if units else ()):
        rows = [np.asarray(u.distributions[d], dtype=float) for u in units]
        unit = unit_rows_reference(np.stack(rows))
        for i in range(n):
            for j in range(n):
                cos = float(np.add.reduce(unit[i] * unit[j]))
                total[i, j] += min(1.0, max(0.0, cos))
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


def assert_same_fit(new, old):
    assert np.array_equal(new.labels, old.labels)
    assert np.array_equal(new.centers, old.centers)
    assert new.inertia == old.inertia
    assert new.n_iter == old.n_iter


def row_count_sums(encoding):
    """The count-table sums of every row, each standing for itself."""
    n = encoding.nrows
    return _CountSums(encoding, np.arange(n), np.ones(n))


class TestCountTableSums:
    """Centroid sums of an encoding, read off its codes' count tables."""

    @settings(max_examples=200, deadline=None)
    @given(coded_design(), st.data())
    def test_weighted_tuples_match_add_at_over_rows(self, case, data):
        encoding, _, k = case
        tuples = _Tuples(encoding)
        labels = np.array(data.draw(st.lists(
            st.integers(0, k - 1), min_size=tuples.m, max_size=tuples.m,
        )))
        assert np.array_equal(
            tuples.sums(labels, k),
            sums_reference(encoding.matrix, labels[tuples.inverse], k),
        )

    @settings(max_examples=300, deadline=None)
    @given(coded_design())
    def test_matches_add_at(self, case):
        encoding, labels, k = case
        sums = row_count_sums(encoding)(labels, k)
        assert np.array_equal(sums, sums_reference(encoding.matrix, labels, k))

    def test_missing_codes_and_empty_clusters(self):
        codes = {"a": (np.array([2, -1, 0, 2, -1], dtype=np.int32), 3),
                 "b": (np.full(5, -1, dtype=np.int32), 0)}
        encoding = one_hot_encode(code_view(codes, 5), ["a", "b"])
        labels = np.array([3, 3, 0, 3, 1], dtype=np.int32)
        sums = row_count_sums(encoding)(labels, 6)
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
        sums = row_count_sums(encoding)(labels, 1)
        assert np.array_equal(sums, sums_reference(encoding.matrix, labels, 1))


class TestDistances:
    @settings(max_examples=200, deadline=None)
    @given(coded_design(), st.integers(1, 5), st.integers(0, 2**16))
    def test_in_place_matches_expression(self, case, k, seed):
        # per distinct tuple, in its buffer, equal to every row's
        # distances written out
        encoding, _, _ = case
        X = encoding.matrix
        rng = np.random.default_rng(seed)
        C = X[rng.integers(len(X), size=k)] + rng.normal(size=(k, X.shape[1]))
        tuples = _Tuples(encoding)
        got = tuples.sq_dists(C)[tuples.inverse]
        assert got.tobytes() == fixed_order_distances(X, C).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(coded_design(), st.integers(1, 5), st.integers(0, 2**16))
    def test_blas_product_within_tolerance(self, case, k, seed):
        encoding, _, _ = case
        X = encoding.matrix
        rng = np.random.default_rng(seed)
        C = X[rng.integers(len(X), size=k)] + rng.normal(size=(k, X.shape[1]))
        tuples = _Tuples(encoding)
        got = tuples.sq_dists(C)[tuples.inverse]
        held = blas_distances(X, C)
        scale = _sq_norms(X) + _sq_norms(C).T
        assert np.all(np.abs(got - held) <= 1e-12 * scale)
        if k > 1:
            ordered = np.sort(held, axis=1)
            untied = ordered[:, 1] - ordered[:, 0] > 1e-9 * (1.0 + scale.max(1))
            assert np.array_equal(
                got.argmin(axis=1)[untied], held.argmin(axis=1)[untied]
            )


    def test_centre_norms_ignore_memory_layout(self):
        # einsum adds in an order that follows the layout; the count
        # sums hand back column-major blocks unless told otherwise
        C = np.random.default_rng(0).random((4, 37))
        assert _sq_norms(np.asfortranarray(C)).tobytes() == (
            _sq_norms(C).tobytes()
        )
        codes = {"a": ((np.arange(9) % 3).astype(np.int32), 3),
                 "b": ((np.arange(9) % 2).astype(np.int32), 2)}
        encoding = one_hot_encode(code_view(codes, 9), ["a", "b"])
        labels = (np.arange(9) % 4).astype(np.int32)
        assert row_count_sums(encoding)(labels, 4).flags["C_CONTIGUOUS"]


def blas_sq_dists(self, C):
    """:meth:`_Tuples.sq_dists` as the BLAS product."""
    work.add("work.cluster.distance_evals", self.m * C.shape[0])
    return blas_distances(self.vectors[:, :self.d], C)


@pytest.mark.parametrize("seed", range(12))
def test_fit_matches_the_blas_fit_on_separated_blobs(seed):
    # four groups that differ in every attribute leave no near ties,
    # so the BLAS order of addition moves only the last bits of the
    # centres
    rng = np.random.default_rng(seed)
    codes = np.repeat(np.arange(4), 40)[:, None].repeat(4, axis=1)
    noise = rng.random(codes.shape) < 0.1
    codes[noise] = rng.integers(6, size=int(noise.sum()))
    columns = {f"a{j}": (codes[:, j].astype(np.int32), 6) for j in range(4)}
    encoding = one_hot_encode(code_view(columns, len(codes)), list(columns))
    new = KMeans(4, seed=seed).fit(encoding)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Tuples, "sq_dists", blas_sq_dists)
        held = KMeans(4, seed=seed).fit(encoding)
    assert np.array_equal(new.labels, held.labels)
    assert new.n_iter == held.n_iter
    assert np.allclose(new.centers, held.centers, rtol=0.0, atol=1e-12)


# ---------------------------------------- k-means over distinct tuples

@st.composite
def fit_input(draw):
    """(encoding, k): one-hot codes with missing values, a single
    distinct tuple, heavy repeats (rows drawn from two code rows), or
    all-distinct rows (each its own code in the first attribute); k may
    exceed the rows."""
    kind = draw(st.sampled_from(("codes", "one tuple", "repeats", "distinct")))
    n = draw(st.integers(1, 50))
    k = draw(st.integers(1, 9))
    if kind == "one tuple":
        columns = {"a": (np.full(n, draw(st.integers(-1, 2)),
                                 dtype=np.int32), 3),
                   "b": (np.full(n, 1, dtype=np.int32), 2)}
    elif kind == "repeats":
        picks = np.array(draw(st.lists(
            st.integers(0, 1), min_size=n, max_size=n,
        )))
        columns = {name: (codes[picks], w)
                   for name, (codes, w) in draw(code_columns(2)).items()}
    else:
        columns = draw(code_columns(n))
        if kind == "distinct":
            columns["a0"] = (np.arange(n, dtype=np.int32), n)
    return one_hot_encode(code_view(columns, n), list(columns)), k


def assert_same_rng(a, b):
    assert a.bit_generator.state == b.bit_generator.state


class TestTupleFit:
    """A fit over distinct tuples equals the plain row-by-row fit."""

    @settings(max_examples=300, deadline=None)
    @given(fit_input(), st.integers(0, 2**16))
    def test_equals_the_row_fit_bit_for_bit(self, case, seed):
        X, k = case
        rng, held_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # k > n clamps
            new = KMeans(k, seed=seed).fit(X, rng)
        held = kmeans_reference(KMeans(k, seed=seed), X, held_rng)
        assert_same_fit(new, held)
        assert new.centers.tobytes() == held.centers.tobytes()
        assert new.labels.dtype == np.int32
        assert_same_rng(rng, held_rng)

    def test_reseeds_empty_clusters_as_the_row_fit(self):
        # one distinct tuple and k = 3: two clusters come out empty
        codes = {"a": (np.full(12, 2, dtype=np.int32), 3)}
        encoding = one_hot_encode(code_view(codes, 12), ["a"])
        rng, held_rng = np.random.default_rng(3), np.random.default_rng(3)
        with work.track() as counted:
            new = KMeans(3, seed=3).fit(encoding, rng)
        assert counted.counts["work.cluster.reseeds"] > 0
        assert_same_fit(new, kmeans_reference(KMeans(3, seed=3), encoding,
                                              held_rng))
        assert_same_rng(rng, held_rng)

    def test_counts_tuple_distances(self):
        # 300 rows over 3 distinct tuples: each distance call costs
        # tuples x centres
        codes = {"a": (np.arange(300, dtype=np.int32) % 3, 3),
                 "b": (np.zeros(300, dtype=np.int32), 1)}
        encoding = one_hot_encode(code_view(codes, 300), ["a", "b"])
        with work.track() as counted:
            fit = KMeans(2, seed=0).fit(encoding)
        # k-means++ makes two one-centre calls; each iteration and the
        # final assignment one two-centre call
        calls = 2 + 2 * (fit.n_iter + 1)
        assert counted.counts["work.cluster.distance_evals"] == 3 * calls

    def test_span_records_rows_and_tuples(self):
        codes = {"a": (np.arange(40, dtype=np.int32) % 4, 4)}
        encoding = one_hot_encode(code_view(codes, 40), ["a"])
        tracer = Tracer()
        KMeans(2, seed=0).fit(encoding, tracer=tracer)
        (span,) = tracer.root.find("kmeans")
        assert (span.attrs["n"], span.attrs["d"], span.attrs["k"]) == (40, 4, 2)
        assert span.attrs["tuples"] == 4

    def test_wide_keys_are_renumbered(self):
        # 20 attributes of width 40: the mixed-radix key would overflow
        # int64, so the keys so far are renumbered densely on the way
        rng = np.random.default_rng(0)
        pool = rng.integers(-1, 40, size=(5, 20)).astype(np.int32)
        rows = pool[rng.integers(5, size=60)]
        codes = {f"a{i}": (rows[:, i], 40) for i in range(20)}
        encoding = one_hot_encode(code_view(codes, 60), list(codes))
        fit = KMeans(3, seed=0).fit(encoding)
        tuples = _Tuples(encoding)
        assert tuples.m == len(np.unique(pool, axis=0))
        assert_same_fit(fit, kmeans_reference(KMeans(3, seed=0), encoding))

    def test_builder_never_materializes_the_matrix(self, cars, monkeypatch):
        def refuse(self):
            raise AssertionError("the one-hot matrix was built")

        monkeypatch.setattr(Encoding, "matrix", property(refuse))
        cad = CADViewBuilder(
            CADViewConfig(compare_limit=3, iunits_k=2, seed=7)
        ).build(cars, pivot="BodyType")
        assert cad.all_iunits()


# -------------------------------------------------- cluster labeling

def whole_view(view, labels, value="v"):
    """One partition holding every row of ``view``."""
    return [(value, np.arange(len(view)), np.asarray(labels))]


@st.composite
def labeled_partition(draw):
    """(view, cluster ids, config): negative and gapped cluster ids."""
    n = draw(st.integers(1, 60))
    columns = draw(code_columns(n, max_width=6))
    ids = np.array(draw(st.lists(
        st.sampled_from((-3, -1, 0, 1, 2, 5, 9)), min_size=n, max_size=n,
    )))
    return code_view(columns, n), ids, draw(labeling_configs())


@st.composite
def labeling_configs(draw):
    return LabelingConfig(
        max_display=draw(st.integers(0, 3)),
        alpha=draw(st.sampled_from((0.05, 0.5, 1.0))),
        min_share=draw(st.sampled_from((0.0, 0.15, 0.4))),
    )


# numpy's pairwise sum adds fewer than 8 elements in a plain loop, up to
# 128 in an 8-way unrolled block, and splits longer runs in halves
WIDTHS = st.one_of(
    st.integers(0, 7), st.integers(8, 128), st.integers(129, 300),
)


@st.composite
def labeled_build(draw):
    """(view, partitions, config): a build's clustered pivot partitions.

    The view's rows are dealt to 1-5 partitions (some rows to none, as
    a cluster sample leaves them, but never all: the builder labels
    only once a pivot value clustered), each a plain clustering with
    skipped ids and outliers, a whole-partition cluster (the bottom
    rung), or one row per cluster (k clamped to a tiny partition).
    Attributes are 0-300 codes wide, and some have every code of some
    rows, or of every row, missing.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 400))
    columns = {}
    for i, w in enumerate(draw(st.lists(WIDTHS, min_size=1, max_size=3))):
        missing = draw(st.sampled_from((0.0, 0.3, 1.0)))
        codes = rng.integers(0, max(w, 1), size=n).astype(np.int32)
        codes[(rng.random(n) < missing) | (w == 0)] = -1
        columns[f"a{i}"] = (codes, w)
    owner = rng.integers(-1, draw(st.integers(1, 5)), size=n)
    owner[0] = 0  # a build labels at least one clustered partition
    partitions = []
    for p in range(owner.max() + 1):
        rows = np.flatnonzero(owner == p)
        if not len(rows):
            continue
        shape = draw(st.sampled_from(("kmeans", "whole", "clamped")))
        if shape == "kmeans":
            ids = rng.choice((-1, 0, 1, 3, 4, 7), size=len(rows))
        elif shape == "whole":
            ids = np.zeros(len(rows), dtype=np.int32)
        else:
            ids = np.arange(len(rows), dtype=np.int32)
        partitions.append((f"v{p}", rows, ids.astype(np.int32)))
    return code_view(columns, n), partitions, draw(labeling_configs())


@st.composite
def count_tables(draw):
    """A count table, 0-300 codes wide, with all-zero rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, w = draw(st.integers(1, 12)), draw(WIDTHS)
    table = rng.integers(0, draw(st.sampled_from((2, 50, 5000))),
                         size=(n, w)).astype(float)
    table[rng.random(n) < 0.2] = 0.0
    return table


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
            for x, y in ((a.distributions[name], b.distributions[name]),
                         (a.unit_vectors[name], b.unit_vectors[name])):
                assert x.dtype == y.dtype == np.float64
                assert x.tobytes() == y.tobytes()


class TestLabeling:
    """A whole build's clusters from one count table per attribute,
    normalized and labeled in one pass per attribute."""

    @settings(max_examples=300, deadline=None)
    @given(labeled_partition())
    def test_matches_mask_per_cluster(self, case):
        view, ids, config = case
        names = list(view.attribute_names)
        assert_same_iunits(
            build_iunits(view, whole_view(view, ids), "p", names, config),
            build_iunits_reference(view, ids, "p", "v", names, config),
        )

    @settings(max_examples=200, deadline=None)
    @given(labeled_build())
    def test_whole_build_matches_each_partition_alone(self, case):
        view, partitions, config = case
        names = list(view.attribute_names)
        assert_same_iunits(
            build_iunits(view, partitions, "p", names, config),
            whole_build_reference(view, partitions, "p", names, config),
        )

    @settings(max_examples=200, deadline=None)
    @given(count_tables())
    def test_rows_normalize_as_each_row_alone(self, table):
        unit = unit_vector(table)
        assert unit.shape == table.shape and unit.dtype == np.float64
        for row, got in zip(table, unit):
            assert got.tobytes() == unit_vector_reference(row).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(count_tables(), labeling_configs())
    def test_rows_label_as_each_row_alone(self, table, config):
        labels = tuple(f"v{i}" for i in range(table.shape[1]))
        assert representative_values(table, labels, config) == [
            representative_values_reference(row, labels, config)
            for row in table
        ]

    def test_int32_labels_and_unlabeled_rows(self):
        codes = {"a": (np.array([1, 0, -1, 1, 1, 0], dtype=np.int32), 2)}
        view = code_view(codes, 6)
        ids = np.array([4, 4, 4, -1, 0, 0], dtype=np.int32)
        new = build_iunits(view, whole_view(view, ids), "p", ["a"])
        assert_same_iunits(
            new, build_iunits_reference(view, ids, "p", "v", ["a"])
        )
        assert [u.size for u in new] == [2, 3]
        assert new[1].distributions["a"].tolist() == [1.0, 1.0]

    def test_one_pass_per_attribute_per_build(self, cars, monkeypatch):
        calls = []
        for name in ("unit_vector", "representative_values"):
            real = getattr(labeling_module, name)
            monkeypatch.setattr(
                labeling_module, name,
                lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a),
            )
        cad = CADViewBuilder(
            CADViewConfig(compare_limit=3, iunits_k=2, seed=7)
        ).build(cars, pivot="BodyType")
        assert len(cad.pivot_values) > 1
        assert sorted(calls) == sorted(
            ["unit_vector", "representative_values"]
            * len(cad.compare_attributes)
        )


# --------------------------------------------- whole builds, held forms

# explore-workload CREATEs on the 40K table.  On the first three, a
# k-means distance that adds in another order than the held row fit
# ends some fits differently and changes the view.
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
         [u.distributions[a].tobytes() for a in u.compare_attributes],
         [u.unit_vectors[a].tobytes() for a in u.compare_attributes])
        for value, units in cad.candidates.items() for u in units
    ]


@pytest.fixture(scope="module")
def explorer40k():
    dbx = DBExplorer(CADViewConfig(seed=7))
    dbx.register("data", generate_usedcars(40_000, seed=7))
    return dbx


def fit_reference(self, X, rng=None, checkpoint=None, tracer=None):
    """:meth:`KMeans.fit` as the plain row-by-row fit."""
    return kmeans_reference(self, X, rng)


def test_builds_equal_the_held_forms(explorer40k):
    """Partition, the row-by-row k-means fit and labeling all held."""
    new = build_views(explorer40k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DiscretizedView, "partition", partition_reference)
        mp.setattr(KMeans, "fit", fit_reference)
        mp.setattr(builder_module, "build_iunits", whole_build_reference)
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
        units.append(held_iunit(f"v{u}", 1, dists))
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
    @given(candidate_sets(), st.data())
    def test_reorder_block_equals_one_call_per_row(self, case, data):
        units, tau = case
        cuts = sorted(data.draw(st.lists(
            st.integers(0, len(units)), max_size=4,
        )))
        rows = [units[a:b] for a, b in zip([0, *cuts], [*cuts, len(units)])]
        tx, tys = rows[0], rows[1:]
        with work.track() as counted:
            got = ranked_list_distances(tx, tys, tau)
        assert got == [ranked_list_reference(tx, ty, tau) for ty in tys]
        assert counted.counts.get("work.diversify.similarity_pairs", 0) == (
            len(tx) * sum(len(ty) for ty in tys)
        )

    def test_reorder_sorts_by_value_distance(self, cad):
        for preferred in cad.pivot_values:
            others = [v for v in cad.pivot_values if v != preferred]
            others.sort(key=lambda v: (cad.value_distance(preferred, v), v))
            reordered = cad.reorder_by_similarity(preferred)
            assert list(reordered.pivot_values) == [preferred, *others]

    @settings(max_examples=100, deadline=None)
    @given(candidate_sets())
    def test_gram_form_matches_held_gram_form(self, case):
        units, _ = case
        assert (
            similarity_matrix(units).tobytes()
            == matrix_reference(units).tobytes()
        )

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
        unit = held_iunit(
            "a", 3, {"x": np.array([3.0, 1.0]), "y": np.array([0.0, 2.0])}
        )
        ranked = unit.with_uid(2).with_uid(1)
        assert ranked.unit_vectors is unit.unit_vectors
        assert ranked.uid == 1 and unit.uid is None

    def test_with_uid_normalizes_nothing(self, normalizations):
        # the labeling step hands an IUnit its vectors: neither the
        # constructor nor a with_uid copy normalizes anything
        unit = held_iunit("a", 3, {"x": np.array([3.0, 1.0])})
        unit.with_uid(2).with_uid(1)
        assert normalizations == []

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
        off = ~np.eye(len(units), dtype=bool)
        assert totals[off].tobytes() == ref_totals[off].tobytes()
        assert np.array_equal(adj, ref_adj)
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
        zero = held_iunit("a", 1, {"x": np.zeros(3)})
        also_zero = held_iunit("b", 1, {"x": np.zeros(3)})
        assert similarity_matrix([zero, also_zero])[0, 1] == 0.0
        assert not similarity_graph([zero, also_zero], 1e-9).any()

    def test_mismatched_compare_attributes_raise(self):
        a = held_iunit("a", 1, {"x": np.ones(2)})
        b = held_iunit("b", 1, {"y": np.ones(2)})
        with pytest.raises(CADViewError, match="Compare Attribute sets"):
            similarity_graph([a, b], 0.5)

    def test_mismatched_widths_raise(self):
        a = held_iunit("a", 1, {"x": np.ones(2)})
        b = held_iunit("b", 1, {"x": np.ones(3)})
        with pytest.raises(CADViewError, match="shape mismatch"):
            similarity_graph([a, b], 0.5)
