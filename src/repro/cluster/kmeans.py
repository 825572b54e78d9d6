"""Simple K-Means over sparse vectors with cosine similarity.

This is the paper's Phase-1 clustering algorithm (Section 3.1.2):

1. pick ``k`` random cluster centers (distinct input vectors),
2. assign every page to the most similar center (cosine),
3. recompute each center as the centroid of its members,
4. repeat 2–3 until assignments stabilize.

Because K-Means quality depends on the initial centers, the algorithm
is run for ``restarts`` independent iterations and the clustering with
the highest *internal similarity* (Section 3.1.4) is kept — internal
similarity needs no external labels, so it can guide model selection.

The collection is interned into a
:class:`~repro.vsm.matrix.VectorSpace` once per ``fit``, and
assignment, centroid update, and cohesion run as O(1) matmuls /
scatters per iteration. The pure-python formulation — one
``cosine_similarity`` call per (page, center) pair — is kept as the
test-only reference in ``tests/oracles/``; it consumes the restart RNG
call for call like this kernel, so a seeded run yields the same labels
under both.

Each restart draws from its own namespaced seed stream
(:func:`repro.runtime.restart_seed_streams`), so no restart's RNG
depends on any other's; :func:`repro.runtime.run_restarts` runs them
in order in the calling process and keeps the first best.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.cluster.assignments import Clustering
from repro.errors import ClusteringError
from repro.runtime import restart_seed_streams, run_restarts
from repro.vsm.matrix import VectorSpace, centroid_matrix, cosine_matrix
from repro.vsm.vector import SparseVector


@dataclass(frozen=True)
class KMeansResult:
    """A clustering plus the diagnostics callers care about."""

    clustering: Clustering
    centroids: tuple[SparseVector, ...]
    internal_similarity: float
    iterations: int
    restarts_run: int


class KMeans:
    """Simple K-Means with restarts and internal-similarity selection.

    Parameters mirror the paper's setup: the first THOR prototype ran
    the clusterer 10 times ("a balance between the faster running times
    using fewer iterations and the increased cluster quality using more
    iterations").

    ``max_iterations`` bounds the assign/recenter loop per restart;
    tag-signature clustering converges in a handful of iterations, but
    the bound protects against oscillation on degenerate inputs.

    Restart selection maximizes the unweighted cohesion
    Σ_i Σ_{p∈C_i} cos(p, center_i) — the standard criterion
    (Steinbach/Karypis/Kumar 2000, which the paper cites). The paper's
    Section 3.1.4 additionally weights each cluster by n_i/n, but that
    variant grows quadratically with cluster size and therefore
    *prefers merging* a small page class into a large near-identical
    one — the opposite of the reported behaviour (entropy ≈ 0.04, i.e.
    classes kept apart). The weighted formula stays in
    :mod:`repro.cluster.quality` for reporting.
    """

    def __init__(
        self,
        k: int,
        restarts: int = 10,
        max_iterations: int = 100,
        seed: Optional[int] = None,
        init: str = "random",
    ) -> None:
        if k < 1:
            raise ClusteringError(f"k must be >= 1, got {k}")
        if restarts < 1:
            raise ClusteringError(f"restarts must be >= 1, got {restarts}")
        if init not in ("random", "kmeans++"):
            raise ClusteringError(
                f"init must be 'random' or 'kmeans++', got {init!r}"
            )
        self.k = k
        self.restarts = restarts
        self.max_iterations = max_iterations
        self.seed = seed
        #: Center seeding: "random" is the paper's choice; "kmeans++"
        #: (distance-weighted seeding under cosine distance) needs
        #: fewer restarts to find small classes.
        self.init = init

    def fit(self, vectors: Sequence[SparseVector]) -> KMeansResult:
        """Cluster ``vectors`` into (at most) ``k`` clusters.

        When fewer than ``k`` vectors are given the effective k drops
        to ``len(vectors)`` — the paper notes over-provisioned k merely
        yields more refined clusters, and an n < k input degenerates to
        singletons.
        """
        if not vectors:
            raise ClusteringError("cannot cluster an empty collection")
        return self.fit_space(VectorSpace.build(vectors))

    def fit_space(self, space: VectorSpace) -> KMeansResult:
        """Cluster a prebuilt :class:`~repro.vsm.matrix.VectorSpace`.

        Callers that already hold a dense space (e.g. the vectorized
        TFIDF weighting of :func:`repro.vsm.matrix.weighted_space`) skip
        the SparseVector round-trip entirely.
        """
        if space.n == 0:
            raise ClusteringError("cannot cluster an empty collection")
        return self._fit_restarts(
            self._run_once_space, space, min(self.k, space.n)
        )

    def _fit_restarts(self, run_once, data, effective_k: int) -> KMeansResult:
        """Run ``run_once(data, k, rng)`` once per restart seed stream
        and keep the highest-cohesion result (first restart wins
        ties)."""
        best = run_restarts(
            lambda seed: run_once(data, effective_k, random.Random(seed)),
            restart_seed_streams(self.seed, self.restarts, "kmeans"),
            lambda result, incumbent: result.internal_similarity
            > incumbent.internal_similarity,
        )
        return self._with_restarts(best)

    def _with_restarts(self, best: KMeansResult) -> KMeansResult:
        return KMeansResult(
            clustering=best.clustering,
            centroids=best.centroids,
            internal_similarity=best.internal_similarity,
            iterations=best.iterations,
            restarts_run=self.restarts,
        )

    def _seed_rows(self, space: VectorSpace, k: int, rng: random.Random):
        """Seed centers as matrix rows. "random" draws ``k`` distinct
        rows; "kmeans++" picks the first uniformly, then each next with
        probability proportional to its cosine distance to the nearest
        already-chosen center."""
        matrix, norms = space.matrix, space.norms
        n = space.n
        if self.init == "random":
            indices = rng.sample(range(n), k)
            return matrix[indices].copy(), norms[indices].copy()
        first = rng.randrange(n)
        centers = matrix[np.newaxis, first].copy()
        # Running max of cosine to the nearest chosen center.
        nearest = cosine_matrix(
            matrix, centers, norms_a=norms
        ).ravel()
        while centers.shape[0] < k:
            weights = np.maximum(0.0, 1.0 - nearest)
            total = float(weights.sum())
            if total == 0.0:
                pick = rng.randrange(n)
            else:
                threshold = rng.random() * total
                pick = min(
                    int(np.searchsorted(np.cumsum(weights), threshold)), n - 1
                )
            centers = np.vstack([centers, matrix[np.newaxis, pick]])
            nearest = np.maximum(
                nearest,
                cosine_matrix(matrix, matrix[np.newaxis, pick], norms_a=norms).ravel(),
            )
        return centers, np.linalg.norm(centers, axis=1)

    def _run_once_space(
        self, space: VectorSpace, k: int, rng: random.Random
    ) -> KMeansResult:
        matrix, norms = space.matrix, space.norms
        n = space.n
        centers, center_norms = self._seed_rows(space, k, rng)
        sims = cosine_matrix(matrix, centers, norms_a=norms, norms_b=center_norms)
        labels = np.argmax(sims, axis=1)
        iterations = 1
        while iterations < self.max_iterations:
            new_centers, counts = centroid_matrix(matrix, labels, k)
            for cluster in range(k):
                if counts[cluster] == 0:
                    # Re-seed an empty cluster with a random vector so k
                    # clusters survive (the paper's simple K-Means does
                    # not specify this; re-seeding is the common fix).
                    new_centers[cluster] = matrix[rng.randrange(n)]
            center_norms = np.linalg.norm(new_centers, axis=1)
            sims = cosine_matrix(
                matrix, new_centers, norms_a=norms, norms_b=center_norms
            )
            new_labels = np.argmax(sims, axis=1)
            centers = new_centers
            iterations += 1
            if np.array_equal(new_labels, labels):
                labels = new_labels
                break
            labels = new_labels
        # Cohesion from the similarities of the final assignment — the
        # matmul above already holds every member-to-center cosine (on
        # convergence these are the final centers: reassignment against
        # them left every label unchanged).
        similarity = float(sims[np.arange(n), labels].sum())
        return KMeansResult(
            clustering=Clustering(tuple(labels.tolist()), k),
            centroids=tuple(space.to_sparse(centers[c]) for c in range(k)),
            internal_similarity=similarity,
            iterations=iterations,
            restarts_run=1,
        )
