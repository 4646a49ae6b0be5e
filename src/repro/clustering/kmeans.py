"""Standard k-means (Lloyd's algorithm with k-means++ seeding).

The paper uses Weka's SimpleKMeans "since both efficiency and quality
are major concerns" (Sec. 3.1.2).  This is the numpy equivalent over
one-hot encoded Compare Attribute tuples: k-means++ initialization,
Lloyd iterations, empty-cluster reseeding to the farthest points, and
a relative-improvement stopping rule.

Discretized tuples repeat, so a fit clusters the *distinct* tuples of
its :class:`~repro.clustering.encoding.Encoding`, each weighted by the
number of rows that carry it (DESIGN §15).  A squared distance ``|t|^2
- 2 t.c + |c|^2`` is computed once per distinct tuple: ``t.c`` gathers
the centres' column at the tuple's code, attribute by attribute, and
adds the attributes in order, never by BLAS.  Rows are reached only
through 1-D gathers: the k-means++ draws, the inertia, the reseeding
order and the labels.  So a fit equals the row-by-row fit of the
encoding's matrix bit for bit, RNG state included, and its bits do not
depend on the BLAS library.  The centroid sums are read off
per-attribute count tables; the n x d indicator matrix is never built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.clustering.encoding import Encoding
from repro.errors import QueryError
from repro.obs import work
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["KMeansResult", "KMeans"]

MAX_ITER = 50   # Lloyd iteration cap, kept small for interactive builds
TOL = 1e-4      # relative inertia improvement below which a fit stops


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one k-means fit."""

    labels: np.ndarray      # (n,) int32 cluster assignment
    centers: np.ndarray     # (k, d) float64 centroids
    inertia: float          # sum of squared distances to assigned centers
    n_iter: int             # Lloyd iterations executed

    @property
    def k(self) -> int:
        """The number of clusters actually fit."""
        return self.centers.shape[0]

    def cluster_sizes(self) -> np.ndarray:
        """(k,) row counts per cluster."""
        return np.bincount(self.labels, minlength=self.k)


def _sq_norms(X: np.ndarray) -> np.ndarray:
    """(n, 1) squared row norms ``|x|^2``.

    Taken over C-ordered rows: einsum adds in an order that follows the
    memory layout, so a column-major copy of the same centres would
    give other bits.
    """
    X = np.ascontiguousarray(X)
    return np.einsum("ij,ij->i", X, X)[:, None]


class _CountSums:
    """(k, d) per-cluster sums of a one-hot encoding's rows, from its codes.

    A centroid is reproducible only if its rows are added in the same
    order every time: row after row, as ``np.add.at(sums, labels, X)``
    adds them.  A one-hot column holds only 0 and ``s``, so a cluster's
    sum over ``m`` rows holding the value is ``s`` added ``m`` times in
    sequence, and adding a 0 changes nothing.  That is ``T[m]`` of the
    prefix table ``T = cumsum([0, s, s, ...])``, which numpy also
    accumulates in order.  So the sums are ``T`` read at the count of
    every (cluster, column) cell, bit-identical to the row-order form.
    One ``bincount`` counts all the cells: an attribute of block width
    ``w`` owns ``w + 1`` cells per cluster, a missing code counting into
    the spare one, which is dropped.  Nothing of size n x d is built.

    ``rows`` picks the rows whose codes are counted and ``weights`` how
    many rows each stands for, so the labels of distinct tuples with
    their multiplicities give the sums of all the rows they stand for.
    The weighted counts are integers, exact in any order, and read the
    same table entries.
    """

    def __init__(
        self, encoding: Encoding, rows: np.ndarray, weights: np.ndarray
    ):
        steps = np.full(encoding.nrows + 1, encoding.value)
        steps[0] = 0.0
        self.table = np.cumsum(steps)
        cells, keep, start = [], [], 0
        for name, codes in zip(encoding.names, encoding.codes):
            w = max(1, encoding.widths[name])
            codes = codes[rows]
            cells.append(np.where(codes >= 0, codes, w) + start)
            keep.extend(range(start, start + w))
            start += w + 1
        self.cells = np.stack(cells).astype(np.intp)
        self.grid = start          # cells per cluster
        self.keep = np.array(keep, dtype=np.intp)
        self.weights = np.tile(weights, len(cells))

    def __call__(self, labels: np.ndarray, k: int) -> np.ndarray:
        index = labels * self.grid + self.cells
        counts = np.bincount(
            index.ravel(), weights=self.weights, minlength=k * self.grid
        ).astype(np.intp).reshape(k, self.grid)
        return self.table[counts.take(self.keep, axis=1)]


class _Tuples:
    """A one-hot encoding's distinct code tuples, read off its codes.

    ``inverse[i]`` is row ``i``'s tuple, ``rep[t]`` a row that carries
    tuple ``t`` and ``weights[t]`` how many rows carry it.  A row's key
    is its codes in a mixed radix of ``w + 1`` per attribute of block
    width ``w``, a missing code in the spare digit ``w``.  A tuple's
    one-hot row holds ``s`` at one column per present code, so its dot
    product with a centre adds ``s * c`` at those columns, in attribute
    order -- the nonzero terms of the sum over its columns, in column
    order, and adding the zero terms changes nothing -- and ``|t|^2``
    adds ``s * s`` once per present code.  :attr:`sums` gives the
    centroid sums of a labeling of the tuples.
    """

    def __init__(self, encoding: Encoding):
        n = encoding.nrows
        key = np.zeros(n, dtype=np.int64)
        bound = 1
        for name, codes in zip(encoding.names, encoding.codes):
            base = max(1, encoding.widths[name]) + 1
            if bound * base >= 2**62:
                # renumber the keys so far densely: at most n of them
                _, key = np.unique(key, return_inverse=True)
                bound = n
            key = key * base + np.where(codes >= 0, codes, base - 1)
            bound *= base
        distinct, inverse = np.unique(key, return_inverse=True)
        self.inverse = inverse.ravel()
        self.rep = np.empty(len(distinct), dtype=np.intp)
        self.rep[self.inverse] = np.arange(n)  # any holder will do
        self.weights = np.bincount(self.inverse).astype(np.float64)
        self.n = n
        self.m = len(self.rep)
        self.d = encoding.width
        self.value = encoding.value
        offsets = np.array([encoding.offsets[name] for name in encoding.names])
        codes = np.stack([c[self.rep] for c in encoding.codes])
        # each tuple's column per attribute; a missing code reads the
        # zero column past the last block
        self.columns = np.where(codes >= 0, codes + offsets[:, None], self.d)
        # s * s added once per present code, in order: a prefix table
        steps = np.full(len(codes) + 1, self.value * self.value)
        steps[0] = 0.0
        self.sq_norms = np.cumsum(steps)[np.count_nonzero(codes >= 0, axis=0)]
        # each tuple's one-hot row: m x d, never n x d
        self.vectors = np.zeros((self.m, self.d + 1))
        self.vectors[np.arange(self.m), self.columns] = self.value
        self.sums = _CountSums(encoding, self.rep, self.weights)

    def sq_dists(self, C: np.ndarray) -> np.ndarray:
        """(m, k) squared distances ``|t|^2 - 2 t.c + |c|^2`` to ``C``."""
        work.add("work.cluster.distance_evals", self.m * C.shape[0])
        scaled = np.zeros((self.d + 1, C.shape[0]))
        np.multiply(C.T, self.value, out=scaled[:self.d])
        terms = scaled[self.columns]   # (attributes, tuples, centres)
        d = terms[0]
        for term in terms[1:]:
            d += term
        d *= -2.0
        d += self.sq_norms[:, None]
        d += _sq_norms(C).T
        np.maximum(d, 0.0, out=d)
        return d

    def rows(self, idx: np.ndarray) -> np.ndarray:
        return self.vectors[self.inverse[idx], :self.d]


class KMeans:
    """Lloyd's k-means with k-means++ seeding.

    Parameters
    ----------
    n_clusters:
        Number of clusters (the paper's ``l`` candidate IUnits).
    seed:
        RNG seed for reproducible views.
    """

    def __init__(self, n_clusters: int, seed: int = 0):
        if n_clusters < 1:
            raise QueryError(f"n_clusters must be >= 1, got {n_clusters}")
        self.n_clusters = n_clusters
        self.seed = seed

    # -- seeding ---------------------------------------------------------

    def _init_centers(
        self, tuples: _Tuples, rng: np.random.Generator
    ) -> np.ndarray:
        """k-means++: spread seeds proportionally to squared distance.

        The draws run over rows, each tuple's distance gathered to the
        rows that carry it.
        """
        n = tuples.n
        k = min(self.n_clusters, n)
        centers = np.empty((k, tuples.d))
        centers[0] = tuples.rows([int(rng.integers(n))])[0]
        closest = tuples.sq_dists(centers[:1]).ravel()
        for j in range(1, k):
            row_closest = closest[tuples.inverse]
            total = row_closest.sum()
            if total <= 0:
                # all points coincide with chosen centers; fill uniformly
                centers[j:] = tuples.rows(rng.integers(n, size=k - j))
                break
            idx = int(rng.choice(n, p=row_closest / total))
            centers[j] = tuples.rows([idx])[0]
            closest = np.minimum(
                closest, tuples.sq_dists(centers[j:j + 1]).ravel()
            )
        return centers

    # -- fitting ------------------------------------------------------------

    def fit(
        self,
        X: Encoding,
        rng: Optional[np.random.Generator] = None,
        checkpoint: Optional[Callable[[], None]] = None,
        tracer: Optional[Tracer] = None,
    ) -> KMeansResult:
        """Cluster the rows of the one-hot encoding ``X``.

        The fit runs over ``X``'s distinct tuples and equals the
        row-by-row fit of ``X.matrix`` bit for bit.  If there are fewer
        rows than clusters, every row becomes its own cluster (k is
        clamped, with a warning — tiny pivot partitions are routine,
        not an error).  ``checkpoint`` is called once per Lloyd
        iteration; a budgeted caller passes a deadline check that
        raises :class:`~repro.errors.BudgetExceededError`.  A ``tracer``
        gains a ``kmeans`` span recording iterations, empty-cluster
        reseeds and convergence.
        """
        if not isinstance(X, Encoding):
            raise QueryError(
                f"k-means fits an Encoding, got {type(X).__name__}"
            )
        n, d = X.nrows, X.width
        if n == 0:
            raise QueryError("cannot cluster zero rows")
        rng = rng or np.random.default_rng(self.seed)
        if self.n_clusters > n:
            warnings.warn(
                f"n_clusters={self.n_clusters} > n_samples={n}; "
                f"clamping to {n} singleton clusters",
                UserWarning,
                stacklevel=2,
            )
        k = min(self.n_clusters, n)
        tracer = tracer or NULL_TRACER

        with tracer.span("kmeans", n=n, d=d, k=k) as span:
            tuples = _Tuples(X)
            span.set_attr("tuples", tuples.m)
            at = np.arange(tuples.m)
            centers = self._init_centers(tuples, rng)
            prev_inertia = np.inf
            converged = False
            n_iter = 0
            for n_iter in range(1, MAX_ITER + 1):
                if checkpoint is not None:
                    checkpoint()
                span.inc("iterations")
                work.add("work.cluster.iterations")
                dists = tuples.sq_dists(centers)
                labels = dists.argmin(axis=1)
                nearest = dists[at, labels][tuples.inverse]
                inertia = float(nearest.sum())

                # recompute centroids; reseed empties to farthest points
                counts = np.bincount(
                    labels, weights=tuples.weights, minlength=k
                )
                sums = tuples.sums(labels, k)
                empty = counts == 0
                if empty.any():
                    span.inc("reseeds", int(empty.sum()))
                    work.add("work.cluster.reseeds", int(empty.sum()))
                    far = np.argsort(nearest)[::-1]
                    for j, idx in zip(np.flatnonzero(empty), far):
                        sums[j] = tuples.rows([idx])[0]
                        counts[j] = 1.0
                centers = sums / counts[:, None]

                if np.isfinite(prev_inertia) and (
                    prev_inertia - inertia <= TOL * max(prev_inertia, 1e-12)
                ):
                    converged = True
                    break
                prev_inertia = inertia

            # final assignment against the final centers
            dists = tuples.sq_dists(centers)
            labels = dists.argmin(axis=1)
            inertia = float(dists[at, labels][tuples.inverse].sum())
            span.set_attr("converged", converged)
            span.set_attr("inertia", round(inertia, 6))
        return KMeansResult(
            labels[tuples.inverse].astype(np.int32), centers, inertia, n_iter
        )
