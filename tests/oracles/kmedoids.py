"""Reference Voronoi-iteration k-medoids over nested-list matrices.

:class:`OracleKMedoids` is :class:`repro.cluster.kmedoids.KMedoids`
with the per-restart computation swapped for plain loops. Normalized
edit distances tie exactly and often, and this reference breaks such
ties by the last ulp of its own summation order, so it agrees with the
matrix kernel on invariants, not label for label.
"""

from __future__ import annotations

import random

from repro.cluster.assignments import Clustering
from repro.cluster.kmedoids import KMedoids, KMedoidsResult
from repro.errors import ClusteringError


class OracleKMedoids(KMedoids):
    """k-medoids over a ``list[list[float]]`` distance matrix."""

    def fit(self, items, precomputed=None) -> KMedoidsResult:
        if not len(items):
            raise ClusteringError("cannot cluster an empty collection")
        n = len(items)
        if precomputed is not None:
            matrix = [list(row) for row in precomputed]
        else:
            matrix = [[0.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    d = self.distance(items[i], items[j])
                    matrix[i][j] = d
                    matrix[j][i] = d
        return self._fit_matrix(self._run_once, matrix, n)

    def _run_once(
        self, matrix: list[list[float]], n: int, k: int, rng: random.Random
    ) -> KMedoidsResult:
        medoids = rng.sample(range(n), k)
        labels = self._assign(matrix, n, medoids)
        iterations = 1
        while iterations < self.max_iterations:
            new_medoids = []
            for cluster in range(k):
                members = [i for i, lab in enumerate(labels) if lab == cluster]
                if not members:
                    new_medoids.append(rng.randrange(n))
                    continue
                best_member = min(
                    members,
                    key=lambda m: sum(matrix[m][other] for other in members),
                )
                new_medoids.append(best_member)
            new_labels = self._assign(matrix, n, new_medoids)
            iterations += 1
            if new_labels == labels and new_medoids == medoids:
                break
            labels, medoids = new_labels, new_medoids
        total = sum(matrix[i][medoids[labels[i]]] for i in range(n))
        return KMedoidsResult(
            clustering=Clustering(tuple(labels), k),
            medoid_indices=tuple(medoids),
            total_distance=total,
            iterations=iterations,
        )

    @staticmethod
    def _assign(matrix: list[list[float]], n: int, medoids: list[int]) -> list[int]:
        labels = []
        for i in range(n):
            best_label = 0
            best_dist = float("inf")
            for index, medoid in enumerate(medoids):
                d = matrix[i][medoid]
                if d < best_dist:
                    best_dist = d
                    best_label = index
            labels.append(best_label)
        return labels
