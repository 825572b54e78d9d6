"""1-D K-Means for the size-based clustering baseline.

Section 4.1: "For the size-based approach, we described each page by
its size in bytes and measured the distance between two pages by the
difference in bytes." Clustering scalars with K-Means is the natural
instantiation; centers are means, assignment is nearest-center by
absolute difference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cluster.assignments import Clustering
from repro.errors import ClusteringError


@dataclass(frozen=True)
class ScalarKMeansResult:
    clustering: Clustering
    centers: tuple[float, ...]
    inertia: float
    iterations: int


class ScalarKMeans:
    """K-Means over scalar values with |a - b| distance."""

    def __init__(
        self,
        k: int,
        restarts: int = 10,
        max_iterations: int = 100,
        seed: Optional[int] = None,
    ) -> None:
        if k < 1:
            raise ClusteringError(f"k must be >= 1, got {k}")
        if restarts < 1:
            raise ClusteringError(f"restarts must be >= 1, got {restarts}")
        self.k = k
        self.restarts = restarts
        self.max_iterations = max_iterations
        self.seed = seed

    def fit(self, values: Sequence[float]) -> ScalarKMeansResult:
        if not values:
            raise ClusteringError("cannot cluster an empty collection")
        n = len(values)
        effective_k = min(self.k, len(set(values)) or 1)
        rng = random.Random(self.seed)
        best: Optional[ScalarKMeansResult] = None
        for _restart in range(self.restarts):
            result = self._run_once(values, n, effective_k, rng)
            if best is None or result.inertia < best.inertia:
                best = result
        assert best is not None
        return best

    def _run_once(
        self, values: Sequence[float], n: int, k: int, rng: random.Random
    ) -> ScalarKMeansResult:
        distinct = list(set(values))
        centers = rng.sample(distinct, min(k, len(distinct)))
        while len(centers) < k:
            centers.append(rng.choice(distinct))
        labels = self._assign(values, centers)
        iterations = 1
        while iterations < self.max_iterations:
            new_centers = []
            for cluster in range(k):
                members = [values[i] for i, lab in enumerate(labels) if lab == cluster]
                if members:
                    new_centers.append(sum(members) / len(members))
                else:
                    new_centers.append(rng.choice(distinct))
            new_labels = self._assign(values, new_centers)
            iterations += 1
            if new_labels == labels:
                centers = new_centers
                break
            labels, centers = new_labels, new_centers
        inertia = sum(abs(values[i] - centers[labels[i]]) for i in range(n))
        return ScalarKMeansResult(
            clustering=Clustering(tuple(labels), k),
            centers=tuple(centers),
            inertia=inertia,
            iterations=iterations,
        )

    @staticmethod
    def _assign(values: Sequence[float], centers: Sequence[float]) -> list[int]:
        labels = []
        for value in values:
            best_label = 0
            best_dist = float("inf")
            for index, center in enumerate(centers):
                d = abs(value - center)
                if d < best_dist:
                    best_dist = d
                    best_label = index
            labels.append(best_label)
        return labels
