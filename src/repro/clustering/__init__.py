"""Clustering substrate: one-hot encodings, k-means, k-modes, agglomerative."""

from repro.clustering.encoding import Encoding, one_hot_encode
from repro.clustering.kmeans import KMeans, KMeansResult
from repro.clustering.hierarchical import AgglomerativeResult, agglomerative
from repro.clustering.kmodes import KModes, KModesResult

__all__ = [
    "Encoding", "one_hot_encode",
    "KMeans", "KMeansResult",
    "KModes", "KModesResult",
    "AgglomerativeResult", "agglomerative",
]
