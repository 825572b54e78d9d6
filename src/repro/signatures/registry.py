"""Registry of the seven clustering configurations of the evaluation.

Each :class:`ClusteringConfig` turns a page collection into a
:class:`~repro.cluster.assignments.Clustering` using one of the
representations the paper compares:

========  =============================================  =============
key       representation                                 algorithm
========  =============================================  =============
``ttag``  TFIDF-weighted tag signature (THOR's choice)   K-Means
``rtag``  raw tag signature                              K-Means
``tcon``  TFIDF-weighted content signature               K-Means
``rcon``  raw content signature                          K-Means
``size``  page size in bytes                             1-D K-Means
``url``   URL string, edit distance                      k-medoids
``rand``  none                                           random labels
========  =============================================  =============
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.cluster.assignments import Clustering
from repro.cluster.kmeans import KMeans
from repro.cluster.kmedoids import KMedoids
from repro.cluster.random_baseline import random_clustering
from repro.cluster.scalar import ScalarKMeans
from repro.core.page import Page
from repro.runtime import cached_weighted_space
from repro.vsm.matrix import pairwise_normalized_levenshtein
from repro.signatures.content import content_signature
from repro.signatures.size import size_signature
from repro.signatures.tag import tag_signature
from repro.signatures.url import url_distance


@dataclass(frozen=True)
class ClusteringConfig:
    """A named page-clustering approach.

    ``cluster`` partitions ``pages`` into ``k`` clusters; ``restarts``
    and ``seed`` are forwarded to the underlying algorithm (ignored by
    the random baseline's single draw).
    """

    key: str
    label: str
    cluster: Callable[[Sequence[Page], int, int, Optional[int]], Clustering]

    def __call__(
        self,
        pages: Sequence[Page],
        k: int,
        restarts: int = 10,
        seed: Optional[int] = None,
    ) -> Clustering:
        return self.cluster(pages, k, restarts, seed)


def _vector_kmeans(signature: Callable[[Page], dict], weighting: str):
    def run(
        pages: Sequence[Page],
        k: int,
        restarts: int,
        seed: Optional[int],
    ) -> Clustering:
        signatures = [signature(p) for p in pages]
        kmeans = KMeans(k, restarts=restarts, seed=seed)
        # Weight straight into the dense space — no per-page
        # SparseVector is ever materialized — and reuse it across calls
        # over the same collection (k sweeps).
        space = cached_weighted_space(signatures, weighting)
        return kmeans.fit_space(space).clustering

    return run


def _size_kmeans(
    pages: Sequence[Page],
    k: int,
    restarts: int,
    seed: Optional[int],
) -> Clustering:
    values = [size_signature(p) for p in pages]
    return ScalarKMeans(k, restarts=restarts, seed=seed).fit(values).clustering


def _url_kmedoids(
    pages: Sequence[Page],
    k: int,
    restarts: int,
    seed: Optional[int],
) -> Clustering:
    medoids = KMedoids(k, distance=url_distance, restarts=restarts, seed=seed)
    # One call to the vectorized, memoized Levenshtein kernel replaces
    # the n²/2 scalar url_distance invocations.
    precomputed = pairwise_normalized_levenshtein([p.url for p in pages])
    return medoids.fit(list(pages), precomputed=precomputed).clustering


def _random(
    pages: Sequence[Page],
    k: int,
    restarts: int,
    seed: Optional[int],
) -> Clustering:
    return random_clustering(len(pages), k, seed=seed)


CONFIGURATIONS: dict[str, ClusteringConfig] = {
    "ttag": ClusteringConfig(
        "ttag", "TFIDF Tags", _vector_kmeans(tag_signature, "tfidf")
    ),
    "rtag": ClusteringConfig(
        "rtag", "Raw Tags", _vector_kmeans(tag_signature, "raw")
    ),
    "tcon": ClusteringConfig(
        "tcon", "TFIDF Content", _vector_kmeans(content_signature, "tfidf")
    ),
    "rcon": ClusteringConfig(
        "rcon", "Raw Content", _vector_kmeans(content_signature, "raw")
    ),
    "size": ClusteringConfig("size", "Size", _size_kmeans),
    "url": ClusteringConfig("url", "URLs", _url_kmedoids),
    "rand": ClusteringConfig("rand", "Random", _random),
}


def get_configuration(key: str) -> ClusteringConfig:
    """Look up a configuration by key; raises KeyError with the valid
    keys listed for a typo-friendly message."""
    try:
        return CONFIGURATIONS[key]
    except KeyError:
        valid = ", ".join(sorted(CONFIGURATIONS))
        raise KeyError(f"unknown clustering configuration {key!r}; valid: {valid}")
