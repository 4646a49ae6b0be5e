"""k-modes clustering for purely categorical code matrices.

An alternative to one-hot + k-means (Huang-style k-modes): tuples are
rows of integer codes, dissimilarity is the number of mismatching
attributes, and centroids are per-attribute modes.  Exposed so the
clustering-choice ablation can compare it against the paper's k-means;
it also handles missing codes (-1) natively (a missing entry mismatches
everything, including another missing entry).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.errors import QueryError
from repro.obs import work
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["KModesResult", "KModes"]

MAX_ITER = 50   # iteration cap, as k-means has


@dataclass(frozen=True)
class KModesResult:
    """Outcome of one k-modes fit."""

    labels: np.ndarray    # (n,) int32
    modes: np.ndarray     # (k, d) int32 per-attribute modes
    cost: float           # total mismatch count
    n_iter: int

    @property
    def k(self) -> int:
        """The number of clusters actually fit."""
        return self.modes.shape[0]

    def cluster_sizes(self) -> np.ndarray:
        """(k,) member counts."""
        return np.bincount(self.labels, minlength=self.k)


def _mismatches(X: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """(n, k) matching-dissimilarity matrix; missing never matches."""
    work.add("work.cluster.distance_evals", X.shape[0] * modes.shape[0])
    eq = (X[:, None, :] == modes[None, :, :]) & (X[:, None, :] >= 0)
    return (~eq).sum(axis=2)


def _column_modes(X: np.ndarray, minlength: int = 0) -> np.ndarray:
    """Per-column most frequent non-missing code (-1 for all-missing)."""
    out = np.empty(X.shape[1], dtype=np.int32)
    for j in range(X.shape[1]):
        col = X[:, j]
        col = col[col >= 0]
        if col.size == 0:
            out[j] = -1
            continue
        out[j] = np.bincount(col).argmax()
    return out


class KModes:
    """Huang's k-modes with greedy density-based seeding."""

    def __init__(self, n_clusters: int, seed: int = 0):
        if n_clusters < 1:
            raise QueryError(f"n_clusters must be >= 1, got {n_clusters}")
        self.n_clusters = n_clusters
        self.seed = seed

    def fit(
        self,
        X: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        checkpoint: Optional[Callable[[], None]] = None,
        tracer: Optional[Tracer] = None,
    ) -> KModesResult:
        """Cluster the rows of an (n, d) integer code matrix.

        ``checkpoint`` is called once per iteration (see
        :meth:`KMeans.fit`); ``n_clusters > n`` clamps with a warning.
        A ``tracer`` gains a ``kmodes`` span recording iterations and
        empty-cluster reseeds, mirroring the k-means span.
        """
        X = np.asarray(X, dtype=np.int32)
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

        with tracer.span("kmodes", n=n, d=int(X.shape[1]), k=k) as span:
            # seed with distinct random rows (k-modes++ analogue:
            # farthest rows)
            modes = X[rng.choice(n, size=1)]
            while modes.shape[0] < k:
                # seeding scans all n rows per new mode; a budgeted
                # caller must be able to stop here too, not just in the
                # main loop
                if checkpoint is not None:
                    checkpoint()
                d = _mismatches(X, modes).min(axis=1).astype(float)
                total = d.sum()
                if total <= 0:
                    idx = int(rng.integers(n))
                else:
                    idx = int(rng.choice(n, p=d / total))
                modes = np.vstack([modes, X[idx]])

            labels = np.zeros(n, dtype=np.int32)
            n_iter = 0
            for n_iter in range(1, MAX_ITER + 1):
                if checkpoint is not None:
                    checkpoint()
                span.inc("iterations")
                work.add("work.cluster.iterations")
                d = _mismatches(X, modes)
                new_labels = d.argmin(axis=1).astype(np.int32)
                new_modes = modes.copy()
                for j in range(k):
                    members = X[new_labels == j]
                    if members.shape[0]:
                        new_modes[j] = _column_modes(members)
                    else:
                        # reseed an empty cluster at the worst-fit row
                        span.inc("reseeds")
                        work.add("work.cluster.reseeds")
                        worst = int(d[np.arange(n), new_labels].argmax())
                        new_modes[j] = X[worst]
                if np.array_equal(new_labels, labels) and np.array_equal(
                    new_modes, modes
                ):
                    labels = new_labels
                    break
                labels, modes = new_labels, new_modes

            cost = float(_mismatches(X, modes)[np.arange(n), labels].sum())
        return KModesResult(labels, modes, cost, n_iter)
