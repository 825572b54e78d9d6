"""Reference Simple K-Means: one ``cosine_similarity`` per (page, center).

:class:`OracleKMeans` is :class:`repro.cluster.kmeans.KMeans` with the
per-restart computation swapped for the sparse-vector loops. It draws
from the restart RNG call for call like the matrix kernel, so a seeded
run yields the same labels under both.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.cluster.assignments import Clustering
from repro.cluster.kmeans import KMeans, KMeansResult
from repro.errors import ClusteringError
from repro.vsm.centroid import centroid
from repro.vsm.similarity import cosine_similarity
from repro.vsm.vector import SparseVector


def _assign(
    vectors: Sequence[SparseVector], centers: Sequence[SparseVector]
) -> list[int]:
    labels = []
    for vector in vectors:
        best_label = 0
        best_sim = -1.0
        for index, center in enumerate(centers):
            sim = cosine_similarity(vector, center)
            if sim > best_sim:
                best_sim = sim
                best_label = index
        labels.append(best_label)
    return labels


def _cohesion(
    vectors: Sequence[SparseVector],
    labels: Sequence[int],
    centers: Sequence[SparseVector],
) -> float:
    """Σ_i Σ_{p∈C_i} cos(p, center_i) — the standard cohesion
    criterion (Steinbach/Karypis/Kumar 2000, which the paper cites).

    ``centers`` are the final centers the main loop already computed;
    reusing them instead of recomputing every centroid from the labels
    saves one full centroid pass per restart. (On convergence the two
    are identical — the loop exits when reassignment against these
    exact centers leaves every label unchanged.)

    Note: the paper's Section 3.1.4 additionally weights each cluster
    by n_i/n, but that variant grows quadratically with cluster size
    and therefore *prefers merging* a small page class into a large
    near-identical one — the opposite of the reported behaviour
    (entropy ≈ 0.04, i.e. classes kept apart). We use the unweighted
    criterion the paper cites for restart selection and keep the
    weighted formula in :mod:`repro.cluster.quality` for reporting.
    """
    return sum(
        cosine_similarity(vector, centers[label])
        for vector, label in zip(vectors, labels)
    )


class OracleKMeans(KMeans):
    """K-Means over :class:`SparseVector` lists, one restart at a time."""

    def fit(self, vectors: Sequence[SparseVector]) -> KMeansResult:
        if not vectors:
            raise ClusteringError("cannot cluster an empty collection")
        return self._fit_restarts(
            self._run_once, list(vectors), min(self.k, len(vectors))
        )

    def _seed_centers(
        self, vectors: Sequence[SparseVector], k: int, rng: random.Random
    ) -> list[SparseVector]:
        if self.init == "random":
            return [vectors[i] for i in rng.sample(range(len(vectors)), k)]
        # kmeans++: pick the first center uniformly, then each next
        # center with probability proportional to its cosine distance
        # to the nearest already-chosen center.
        centers = [vectors[rng.randrange(len(vectors))]]
        while len(centers) < k:
            weights = []
            for vector in vectors:
                nearest = max(
                    cosine_similarity(vector, center) for center in centers
                )
                weights.append(max(0.0, 1.0 - nearest))
            total = sum(weights)
            if total == 0.0:
                centers.append(vectors[rng.randrange(len(vectors))])
                continue
            threshold = rng.random() * total
            cumulative = 0.0
            chosen = vectors[-1]
            for vector, weight in zip(vectors, weights):
                cumulative += weight
                if cumulative >= threshold:
                    chosen = vector
                    break
            centers.append(chosen)
        return centers

    def _run_once(
        self, vectors: Sequence[SparseVector], k: int, rng: random.Random
    ) -> KMeansResult:
        centers = self._seed_centers(vectors, k, rng)
        labels = _assign(vectors, centers)
        iterations = 1
        while iterations < self.max_iterations:
            new_centers = []
            for cluster in range(k):
                members = [vectors[i] for i, lab in enumerate(labels) if lab == cluster]
                if members:
                    new_centers.append(centroid(members))
                else:
                    # Re-seed an empty cluster with a random vector so k
                    # clusters survive (the paper's simple K-Means does
                    # not specify this; re-seeding is the common fix).
                    new_centers.append(vectors[rng.randrange(len(vectors))])
            new_labels = _assign(vectors, new_centers)
            centers = new_centers
            iterations += 1
            if new_labels == labels:
                labels = new_labels
                break
            labels = new_labels
        similarity = _cohesion(vectors, labels, centers)
        return KMeansResult(
            clustering=Clustering(tuple(labels), k),
            centroids=tuple(centers),
            internal_similarity=similarity,
            iterations=iterations,
            restarts_run=1,
        )
