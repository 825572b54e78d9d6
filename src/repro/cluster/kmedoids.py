"""K-medoids clustering over an arbitrary distance function.

The URL-based baseline of Section 4.1 describes each page by its URL
and measures similarity with string edit distance. Edit distance gives
no vector space and no centroid, so the K-Means recipe is adapted with
*medoids*: each cluster's center is the member minimizing the total
distance to the other members (Voronoi-iteration k-medoids). Restarts
with best total-distance selection mirror the K-Means driver.

The pairwise matrix is held as a dense array and both the Voronoi
assignment and the medoid update are batched reductions; callers that
can compute the whole matrix with a vectorized kernel (e.g.
:func:`repro.vsm.matrix.pairwise_normalized_levenshtein` for URL
batches) can hand it in via ``fit(..., precomputed=...)`` and skip the
O(n²) scalar distance calls entirely.

Reference caveat: normalized edit distances are small rationals, so
*exact* mathematical ties between candidate medoids are common; the
pure-python reference in ``tests/oracles/`` breaks such a tie by the
last ulp of its own summation order, so a seeded run may pick a
different — equally central — medoid there. (K-Means does not share
this caveat: cosine ties over continuous weights only arise from
duplicate vectors, which both resolve identically.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from repro.cluster.assignments import Clustering
from repro.errors import ClusteringError
from repro.runtime import restart_seed_streams, run_restarts

T = TypeVar("T")


@dataclass(frozen=True)
class KMedoidsResult:
    clustering: Clustering
    medoid_indices: tuple[int, ...]
    total_distance: float
    iterations: int


class KMedoids:
    """Voronoi-iteration k-medoids with restarts.

    ``distance`` must be a symmetric non-negative function. The full
    pairwise distance matrix is computed once (O(n²) calls unless
    ``precomputed`` short-circuits it), which is fine at the paper's
    collection sizes (≤ 110 pages per site for the URL baseline).
    """

    def __init__(
        self,
        k: int,
        distance: Callable[[T, T], float],
        restarts: int = 10,
        max_iterations: int = 100,
        seed: Optional[int] = None,
    ) -> None:
        if k < 1:
            raise ClusteringError(f"k must be >= 1, got {k}")
        if restarts < 1:
            raise ClusteringError(f"restarts must be >= 1, got {restarts}")
        self.k = k
        self.distance = distance
        self.restarts = restarts
        self.max_iterations = max_iterations
        self.seed = seed

    def fit(self, items: Sequence[T], precomputed=None) -> KMedoidsResult:
        """Cluster ``items``.

        ``precomputed`` optionally supplies the full symmetric pairwise
        distance matrix (nested lists or a numpy array); when given,
        ``self.distance`` is never called.
        """
        if not len(items):
            raise ClusteringError("cannot cluster an empty collection")
        n = len(items)
        if precomputed is not None:
            matrix = np.asarray(precomputed, dtype=np.float64)
        else:
            matrix = np.zeros((n, n), dtype=np.float64)
            for i in range(n):
                for j in range(i + 1, n):
                    matrix[i, j] = matrix[j, i] = self.distance(
                        items[i], items[j]
                    )
        return self._fit_matrix(self._run_once_matrix, matrix, n)

    def _fit_matrix(self, run_once, data, n: int) -> KMedoidsResult:
        """Run ``run_once(data, n, k, rng)`` once per restart seed
        stream and keep the lowest total distance (first restart wins
        ties)."""
        k = min(self.k, n)
        return run_restarts(
            lambda seed: run_once(data, n, k, random.Random(seed)),
            restart_seed_streams(self.seed, self.restarts, "kmedoids"),
            lambda result, incumbent: result.total_distance
            < incumbent.total_distance,
        )

    def _run_once_matrix(self, matrix, n: int, k: int, rng: random.Random):
        medoids = rng.sample(range(n), k)
        labels = np.argmin(matrix[:, medoids], axis=1)
        iterations = 1
        while iterations < self.max_iterations:
            new_medoids: list[int] = []
            for cluster in range(k):
                members = np.flatnonzero(labels == cluster)
                if members.size == 0:
                    new_medoids.append(rng.randrange(n))
                    continue
                totals = matrix[np.ix_(members, members)].sum(axis=1)
                new_medoids.append(int(members[np.argmin(totals)]))
            new_labels = np.argmin(matrix[:, new_medoids], axis=1)
            iterations += 1
            if np.array_equal(new_labels, labels) and new_medoids == medoids:
                break
            labels, medoids = new_labels, new_medoids
        medoid_array = np.asarray(medoids)
        total = float(matrix[np.arange(n), medoid_array[labels]].sum())
        return KMedoidsResult(
            clustering=Clustering(tuple(int(lab) for lab in labels), k),
            medoid_indices=tuple(int(m) for m in medoids),
            total_distance=total,
            iterations=iterations,
        )
