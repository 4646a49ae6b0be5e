"""Property-based tests (hypothesis) on core data structures/invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from itertools import combinations

from repro.dataset import AttrKind, Attribute
from repro.dataset.column import Column
from repro.discretize import Bin, bin_indices, equal_depth_bins, equal_width_bins
from repro.discretize.histogram import v_optimal_partition
from repro.features.chi2 import chi2_sf, chi_square_test
from repro.iunits import IUnit, div_astar, div_greedy, iunit_similarity
from repro.iunits.iunit import unit_vector
from repro.iunits.labeling import LabelingConfig, representative_values
from repro.study.metrics import f1_score

# ---------------------------------------------------------------- columns

values_strategy = st.lists(
    st.one_of(st.none(), st.text(min_size=0, max_size=6)), max_size=60
)


@given(values_strategy)
def test_column_roundtrip_categorical(values):
    col = Column.from_values(
        Attribute("x", AttrKind.CATEGORICAL), values
    )
    decoded = list(col)
    assert decoded == [None if v is None else str(v) for v in values]


@given(st.lists(st.one_of(st.none(), st.floats(
    allow_nan=False, allow_infinity=False, width=32)), max_size=60))
def test_column_value_counts_sum(values):
    col = Column.from_values(Attribute("x", AttrKind.NUMERIC), values)
    counts = col.value_counts()
    assert sum(counts.values()) == len([v for v in values if v is not None])
    assert col.missing_count() == values.count(None)


# -------------------------------------------------------------- binning

finite_vals = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
    min_size=1, max_size=200,
)


@given(finite_vals, st.integers(1, 10))
def test_equal_width_covers_everything(vals, nbins):
    bins = equal_width_bins(vals, nbins)
    idx = bin_indices(np.array(vals, dtype=float), bins)
    assert (idx >= 0).all()


@given(finite_vals, st.integers(1, 10))
def test_equal_depth_covers_everything(vals, nbins):
    bins = equal_depth_bins(vals, nbins)
    idx = bin_indices(np.array(vals, dtype=float), bins)
    assert (idx >= 0).all()
    assert len(bins) <= nbins


@given(finite_vals, st.integers(1, 10))
def test_bins_are_ordered_and_contiguous(vals, nbins):
    bins = equal_width_bins(vals, nbins)
    for a, b in zip(bins, bins[1:]):
        assert a.hi == b.lo
        assert a.lo < a.hi or (a.lo == a.hi and len(bins) == 1)


@given(
    st.lists(st.floats(min_value=0, max_value=100, allow_nan=False),
             min_size=1, max_size=18),
    st.integers(1, 5),
)
def test_voptimal_partition_is_valid(weights, b):
    ranges = v_optimal_partition(weights, b)
    assert ranges[0][0] == 0
    assert ranges[-1][1] == len(weights)
    assert len(ranges) <= b
    for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
        assert e1 == s2
        assert s1 < e1


# ------------------------------------------------------------- chi-square

@given(st.floats(min_value=0.001, max_value=500), st.integers(1, 30))
def test_chi2_sf_is_probability(x, df):
    p = chi2_sf(x, df)
    assert 0.0 <= p <= 1.0


@given(st.lists(st.lists(st.integers(0, 50), min_size=2, max_size=4),
                min_size=2, max_size=4).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_chi_square_result_valid(rows):
    t = np.array(rows, dtype=float)
    r = chi_square_test(t)
    assert r.statistic >= 0.0
    assert 0.0 <= r.p_value <= 1.0


# ------------------------------------------------------------ similarity

def make_unit(vecs):
    dists = {f"a{i}": np.array(v, dtype=float) for i, v in enumerate(vecs)}
    return IUnit("p", "v", 1, tuple(dists), dists, {k: () for k in dists},
                 {k: unit_vector(v) for k, v in dists.items()})


unit_vecs = st.lists(
    st.lists(st.floats(min_value=0, max_value=100, allow_nan=False),
             min_size=3, max_size=3),
    min_size=2, max_size=4,
)


@given(unit_vecs, unit_vecs)
def test_iunit_similarity_bounds_and_symmetry(va, vb):
    if len(va) != len(vb):
        va = va[: min(len(va), len(vb))]
        vb = vb[: len(va)]
    a, b = make_unit(va), make_unit(vb)
    s = iunit_similarity(a, b)
    assert 0.0 <= s <= len(va) + 1e-9
    assert s == pytest.approx(iunit_similarity(b, a))


@given(unit_vecs)
def test_iunit_self_similarity_max(vecs):
    a = make_unit(vecs)
    nonzero_dims = sum(1 for v in vecs if any(x > 0 for x in v))
    assert iunit_similarity(a, a) == pytest.approx(nonzero_dims, abs=1e-9)


# ---------------------------------------------------------- diversified top-k

@st.composite
def topk_instance(draw):
    n = draw(st.integers(1, 9))
    scores = draw(st.lists(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        min_size=n, max_size=n,
    ))
    edges = draw(st.lists(st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1)
    ), max_size=12))
    adj = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        if a != b:
            adj[a][b] = adj[b][a] = True
    k = draw(st.integers(1, n))
    return scores, adj, k


@given(topk_instance())
@settings(max_examples=60)
def test_div_astar_dominates_greedy_and_is_independent(instance):
    scores, adj, k = instance
    exact = div_astar(scores, adj, k)
    greedy = div_greedy(scores, adj, k)
    assert len(exact) <= k
    for a, b in combinations(exact, 2):
        assert not adj[a][b]
    assert sum(scores[i] for i in exact) >= sum(
        scores[i] for i in greedy
    ) - 1e-9


# -------------------------------------------------------------- labeling

@given(st.lists(st.integers(0, 1000), min_size=1, max_size=10),
       st.integers(1, 4))
def test_representative_values_subset_and_ordered(counts, max_display):
    labels = [f"v{i}" for i in range(len(counts))]
    cfg = LabelingConfig(max_display=max_display)
    (got,) = representative_values(np.array([counts], float), labels, cfg)
    assert len(got) <= max_display
    assert len(set(got)) == len(got)
    # representatives must be among the labels, in weakly decreasing count
    picked_counts = [counts[labels.index(g)] for g in got]
    assert picked_counts == sorted(picked_counts, reverse=True)
    if sum(counts) > 0:
        assert len(got) >= 1
        assert counts[labels.index(got[0])] == max(counts)


# -------------------------------------------------------------------- f1

@given(st.lists(st.booleans(), min_size=1, max_size=40),
       st.lists(st.booleans(), min_size=1, max_size=40))
def test_f1_bounds(a, b):
    n = min(len(a), len(b))
    pred, act = np.array(a[:n]), np.array(b[:n])
    s = f1_score(pred, act)
    assert 0.0 <= s <= 1.0
    if s == 1.0:
        assert np.array_equal(pred, act) or not act.any()
