"""Standard k-means (Lloyd's algorithm with k-means++ seeding).

The paper uses Weka's SimpleKMeans "since both efficiency and quality
are major concerns" (Sec. 3.1.2).  This is the numpy equivalent:
k-means++ initialization, vectorized assignment via the expanded
squared-distance identity, empty-cluster reseeding to the farthest
points, and a relative-improvement stopping rule.  Given a one-hot
:class:`~repro.clustering.encoding.Encoding`, the centroid sums are
read off per-attribute count tables of its codes (DESIGN §15).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from repro.clustering.encoding import Encoding
from repro.errors import QueryError
from repro.obs import work
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["KMeansResult", "KMeans"]


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
        """(k,) tuple counts per cluster."""
        return np.bincount(self.labels, minlength=self.k)


def _sq_norms(X: np.ndarray) -> np.ndarray:
    """(n, 1) squared row norms ``|x|^2``; computed once per fit."""
    return np.einsum("ij,ij->i", X, X)[:, None]


def _pairwise_sq_dists(
    X: np.ndarray, C: np.ndarray, x2: np.ndarray
) -> np.ndarray:
    """(n, k) squared Euclidean distances via |x|^2 - 2xC' + |c|^2.

    Computed in place in the product's buffer: ``(-2 xC') + |x|^2`` is
    ``|x|^2 - 2 xC'`` bit for bit (a subtraction is the addition of the
    negation, and addition commutes), so the distances equal the
    expression written out, without its two extra n x k temporaries.
    """
    work.add("work.cluster.distance_evals", X.shape[0] * C.shape[0])
    c2 = _sq_norms(C).T
    d = X @ C.T
    d *= -2.0
    d += x2
    d += c2
    np.maximum(d, 0.0, out=d)
    return d


def _cluster_sums(X: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """(k, d) per-cluster row sums, each accumulated in row order.

    Per column, ``bincount`` adds the rows into their clusters one
    after another -- the same float additions, in the same order, as
    ``np.add.at(sums, labels, X)``, so the centroids are bit-identical
    to it.  A masked ``X[labels == j].sum(axis=0)`` is not: with one
    column the reduced axis is the contiguous one and numpy sums it
    pairwise.  Nothing of size n x d is allocated.
    """
    sums = np.empty((k, X.shape[1]))
    for c in range(X.shape[1]):
        sums[:, c] = np.bincount(labels, weights=X[:, c], minlength=k)
    return sums


class _CountSums:
    """:func:`_cluster_sums` of a one-hot encoding, from its codes.

    A one-hot column holds only 0 and ``s``, and ``bincount`` adds it
    in row order, so a cluster's sum over ``m`` rows holding the value
    is ``s`` added ``m`` times in sequence, and adding a 0 changes
    nothing.  That is ``T[m]`` of the prefix table ``T = cumsum([0, s,
    s, ...])``, which numpy also accumulates in order.  Per attribute
    of block width ``w`` the sums are therefore ``T[bincount(label *
    (w + 1) + code)]``, bit-identical to the per-column form, from one
    n-long index per attribute and never an n x d one.  A missing code
    counts into the spare column ``w``, which is dropped.
    """

    def __init__(self, encoding: Encoding):
        n = encoding.matrix.shape[0]
        steps = np.full(n + 1, encoding.value)
        steps[0] = 0.0
        self.width = encoding.matrix.shape[1]
        self.table = np.cumsum(steps)
        self.blocks = []
        for name, codes in zip(encoding.names, encoding.codes):
            w = max(1, encoding.widths[name])
            cells = np.where(codes >= 0, codes, w).astype(np.intp)
            self.blocks.append((encoding.offsets[name], w, cells))

    def __call__(self, labels: np.ndarray, k: int) -> np.ndarray:
        sums = np.empty((k, self.width))
        for start, w, cells in self.blocks:
            counts = np.bincount(
                labels * (w + 1) + cells, minlength=k * (w + 1)
            ).reshape(k, w + 1)
            sums[:, start:start + w] = self.table[counts[:, :w]]
        return sums


class KMeans:
    """Lloyd's k-means with k-means++ seeding.

    Parameters
    ----------
    n_clusters:
        Number of clusters (the paper's ``l`` candidate IUnits).
    max_iter:
        Iteration cap; the interactive setting favors small caps.
    tol:
        Relative inertia improvement below which we stop.
    seed:
        RNG seed for reproducible views.
    """

    def __init__(
        self,
        n_clusters: int,
        max_iter: int = 50,
        tol: float = 1e-4,
        seed: int = 0,
    ):
        if n_clusters < 1:
            raise QueryError(f"n_clusters must be >= 1, got {n_clusters}")
        self.n_clusters = n_clusters
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed

    # -- seeding ---------------------------------------------------------

    def _init_centers(
        self, X: np.ndarray, x2: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """k-means++: spread seeds proportionally to squared distance."""
        n = X.shape[0]
        k = min(self.n_clusters, n)
        centers = np.empty((k, X.shape[1]))
        first = int(rng.integers(n))
        centers[0] = X[first]
        closest = _pairwise_sq_dists(X, centers[:1], x2).ravel()
        for j in range(1, k):
            total = closest.sum()
            if total <= 0:
                # all points coincide with chosen centers; fill uniformly
                centers[j:] = X[rng.integers(n, size=k - j)]
                break
            probs = closest / total
            idx = int(rng.choice(n, p=probs))
            centers[j] = X[idx]
            closest = np.minimum(
                closest, _pairwise_sq_dists(X, centers[j:j + 1], x2).ravel()
            )
        return centers

    # -- fitting ------------------------------------------------------------

    def fit(
        self,
        X: Union[np.ndarray, Encoding],
        rng: Optional[np.random.Generator] = None,
        checkpoint: Optional[Callable[[], None]] = None,
        tracer: Optional[Tracer] = None,
    ) -> KMeansResult:
        """Cluster the rows of ``X``, a matrix or a one-hot encoding.

        An :class:`Encoding` clusters its matrix, with the centroid sums
        taken from its codes (:class:`_CountSums`); the result is
        bit-identical to fitting ``X.matrix``.  If there are fewer rows
        than clusters, every row becomes its own cluster (k is clamped,
        with a warning — tiny pivot partitions are routine, not an
        error).  ``checkpoint`` is called once per
        Lloyd iteration; a budgeted caller passes a deadline check that
        raises :class:`~repro.errors.BudgetExceededError`.  A ``tracer``
        gains a ``kmeans`` span recording iterations, empty-cluster
        reseeds and convergence.
        """
        if isinstance(X, Encoding):
            cluster_sums = _CountSums(X)
            X = X.matrix
        else:
            X = np.asarray(X, dtype=np.float64)
            cluster_sums = functools.partial(_cluster_sums, X)
        if X.ndim != 2:
            raise QueryError(f"X must be 2-D, got shape {X.shape}")
        n = X.shape[0]
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

        with tracer.span("kmeans", n=n, d=int(X.shape[1]), k=k) as span:
            x2 = _sq_norms(X)
            centers = self._init_centers(X, x2, rng)
            labels = np.zeros(n, dtype=np.int32)
            prev_inertia = np.inf
            converged = False
            n_iter = 0
            for n_iter in range(1, self.max_iter + 1):
                if checkpoint is not None:
                    checkpoint()
                span.inc("iterations")
                work.add("work.cluster.iterations")
                dists = _pairwise_sq_dists(X, centers, x2)
                labels = dists.argmin(axis=1).astype(np.int32)
                inertia = float(dists[np.arange(n), labels].sum())

                # recompute centroids; reseed empties to farthest points
                counts = np.bincount(labels, minlength=k).astype(np.float64)
                sums = cluster_sums(labels, k)
                empty = counts == 0
                if empty.any():
                    span.inc("reseeds", int(empty.sum()))
                    work.add("work.cluster.reseeds", int(empty.sum()))
                    far = np.argsort(dists[np.arange(n), labels])[::-1]
                    replacements = iter(far)
                    for j in np.flatnonzero(empty):
                        idx = next(replacements)
                        sums[j] = X[idx]
                        counts[j] = 1.0
                centers = sums / counts[:, None]

                if np.isfinite(prev_inertia) and (
                    prev_inertia - inertia
                    <= self.tol * max(prev_inertia, 1e-12)
                ):
                    converged = True
                    break
                prev_inertia = inertia

            # final assignment against the final centers
            dists = _pairwise_sq_dists(X, centers, x2)
            labels = dists.argmin(axis=1).astype(np.int32)
            inertia = float(dists[np.arange(n), labels].sum())
            span.set_attr("converged", converged)
            span.set_attr("inertia", round(inertia, 6))
        return KMeansResult(labels, centers, inertia, n_iter)
