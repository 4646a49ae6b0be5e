"""Standard k-means (Lloyd's algorithm with k-means++ seeding).

The paper uses Weka's SimpleKMeans "since both efficiency and quality
are major concerns" (Sec. 3.1.2).  This is the numpy equivalent:
k-means++ initialization, vectorized assignment via the expanded
squared-distance identity, empty-cluster reseeding to the farthest
points, and a relative-improvement stopping rule.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

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
    """(n, k) squared Euclidean distances via |x|^2 - 2xC' + |c|^2."""
    work.add("work.cluster.distance_evals", X.shape[0] * C.shape[0])
    c2 = _sq_norms(C).T
    d = x2 - 2.0 * (X @ C.T) + c2
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
        X: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        checkpoint: Optional[Callable[[], None]] = None,
        tracer: Optional[Tracer] = None,
    ) -> KMeansResult:
        """Cluster the rows of ``X``.

        If there are fewer rows than clusters, every row becomes its own
        cluster (k is clamped, with a warning — tiny pivot partitions
        are routine, not an error).  ``checkpoint`` is called once per
        Lloyd iteration; a budgeted caller passes a deadline check that
        raises :class:`~repro.errors.BudgetExceededError`.  A ``tracer``
        gains a ``kmeans`` span recording iterations, empty-cluster
        reseeds and convergence.
        """
        X = np.asarray(X, dtype=np.float64)
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
                sums = _cluster_sums(X, labels, k)
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
