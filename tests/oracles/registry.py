"""The seven clustering configurations, wired to the reference kernels.

Mirrors :data:`repro.signatures.registry.CONFIGURATIONS` key for key:
the vector configurations weight one ``SparseVector`` per page
(:func:`~repro.vsm.weighting.tfidf_vectors` /
:func:`~repro.vsm.weighting.raw_tf_vector`) and cluster with
:class:`~tests.oracles.kmeans.OracleKMeans`; ``url`` runs
:class:`~tests.oracles.kmedoids.OracleKMedoids` over n²/2 scalar
:func:`~repro.signatures.url.url_distance` calls. ``size`` and
``rand`` have no matrix kernel and are production's own.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.cluster.assignments import Clustering
from repro.core.page import Page
from repro.signatures.content import content_signature
from repro.signatures.registry import CONFIGURATIONS as PRODUCTION
from repro.signatures.registry import ClusteringConfig
from repro.signatures.tag import tag_signature
from repro.signatures.url import url_distance
from repro.vsm.weighting import raw_tf_vector, tfidf_vectors
from tests.oracles.kmeans import OracleKMeans
from tests.oracles.kmedoids import OracleKMedoids


def _vector_kmeans(signature: Callable[[Page], dict], weighting: str):
    def run(
        pages: Sequence[Page],
        k: int,
        restarts: int,
        seed: Optional[int],
    ) -> Clustering:
        signatures = [signature(p) for p in pages]
        if weighting == "raw":
            vectors = [raw_tf_vector(s) for s in signatures]
        else:
            vectors = tfidf_vectors(signatures)
        kmeans = OracleKMeans(k, restarts=restarts, seed=seed)
        return kmeans.fit(vectors).clustering

    return run


def _url_kmedoids(
    pages: Sequence[Page],
    k: int,
    restarts: int,
    seed: Optional[int],
) -> Clustering:
    medoids = OracleKMedoids(k, distance=url_distance, restarts=restarts, seed=seed)
    return medoids.fit(list(pages)).clustering


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
    "size": PRODUCTION["size"],
    "url": ClusteringConfig("url", "URLs", _url_kmedoids),
    "rand": PRODUCTION["rand"],
}


def get_configuration(key: str) -> ClusteringConfig:
    """The reference configuration for ``key`` (KeyError if unknown)."""
    return CONFIGURATIONS[key]
