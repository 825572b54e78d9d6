"""Agglomerative (hierarchical) clustering over sparse vectors.

Section 3.1.2 notes that "given the tag-tree signatures of pages and
the similarity function, a number of clustering algorithms can be
applied"; the first THOR prototype picks Simple K-Means for cost. This
module provides the classic alternative — average-link agglomerative
clustering under cosine similarity — so the choice can be ablated
(``benchmarks/bench_ablation_clusterer.py``).

Average-link merges the pair of clusters with the highest mean
pairwise similarity until ``k`` clusters remain. With unit-length
vectors the mean pairwise similarity between clusters A and B is
``(S_A · S_B) / (|A|·|B|)`` where ``S_X`` is the sum of X's member
vectors — so merges are O(1) vector additions and the whole run is
O(n² log n) with a heap.

The initial n²/2 linkage computations — the dominant cost — collapse
into a single Gram matmul over the unit-normalized
:class:`~repro.vsm.matrix.VectorSpace` matrix, and each merge updates
the remaining linkages with one matrix-vector product. The
sparse-vector formulation is the test-only reference in
``tests/oracles/``.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.cluster.assignments import Clustering
from repro.errors import ClusteringError
from repro.runtime import restart_seed_streams, run_restarts
from repro.vsm.matrix import VectorSpace
from repro.vsm.vector import SparseVector


@dataclass(frozen=True)
class AgglomerativeResult:
    clustering: Clustering
    #: Similarity at which each merge happened (n - k entries,
    #: descending for well-separated data).
    merge_similarities: tuple[float, ...]

    @property
    def mean_merge_similarity(self) -> float:
        """Restart-selection score: tighter merge sequences are better.
        Average link is deterministic up to linkage *ties*, which the
        heap breaks by insertion order; restarts permute that order."""
        if not self.merge_similarities:
            return 0.0
        return sum(self.merge_similarities) / len(self.merge_similarities)


class AverageLinkClusterer:
    """Average-link agglomerative clustering with a target k.

    A single fit is deterministic given the input order, so
    ``restarts=1`` (the default) is the classic algorithm. With
    ``restarts > 1`` each restart presents the vectors in an
    independently seeded random order — only linkage *ties* can differ
    — and the restart with the tightest merge sequence (highest mean
    merge similarity) wins, first-wins on ties. Restart seed streams
    come from :func:`repro.runtime.restart_seed_streams`, and
    :func:`repro.runtime.run_restarts` runs them in order.
    """

    def __init__(
        self,
        k: int,
        restarts: int = 1,
        seed: Optional[int] = None,
    ) -> None:
        if k < 1:
            raise ClusteringError(f"k must be >= 1, got {k}")
        if restarts < 1:
            raise ClusteringError(f"restarts must be >= 1, got {restarts}")
        self.k = k
        self.restarts = restarts
        self.seed = seed

    def fit(self, vectors: Sequence[SparseVector]) -> AgglomerativeResult:
        n = len(vectors)
        if n == 0:
            raise ClusteringError("cannot cluster an empty collection")
        if self.restarts > 1:
            return run_restarts(
                lambda seed: self._restart(vectors, seed),
                restart_seed_streams(self.seed, self.restarts, "hac"),
                lambda candidate, incumbent: candidate.mean_merge_similarity
                > incumbent.mean_merge_similarity,
            )
        return self._fit_single(vectors, n, min(self.k, n))

    def _restart(
        self, vectors: Sequence[SparseVector], seed_material
    ) -> AgglomerativeResult:
        """One restart: shuffle the presentation order under the
        restart's seed stream, fit single-shot, and map labels back to
        input order with first-appearance-canonical ids — so a
        restart's result is a pure function of (vectors, restart
        seed)."""
        n = len(vectors)
        order = list(range(n))
        random.Random(seed_material).shuffle(order)
        permuted = [vectors[i] for i in order]
        fitted = self._fit_single(permuted, n, min(self.k, n))
        labels = [0] * n
        for position, original in enumerate(order):
            labels[original] = fitted.clustering.labels[position]
        remap: dict[int, int] = {}
        canonical = []
        for label in labels:
            if label not in remap:
                remap[label] = len(remap)
            canonical.append(remap[label])
        return AgglomerativeResult(
            clustering=Clustering(tuple(canonical), fitted.clustering.k),
            merge_similarities=fitted.merge_similarities,
        )

    def _fit_single(
        self, vectors: Sequence[SparseVector], n: int, target_k: int
    ) -> AgglomerativeResult:
        """One deterministic average-link run in the given order."""
        space = VectorSpace.build(vectors)
        unit = space.matrix.copy()
        nonzero = space.norms > 0.0
        unit[nonzero] /= space.norms[nonzero, None]

        # Cluster-sum rows, indexed by cluster id (grown on merge).
        sums: dict[int, np.ndarray] = {i: unit[i] for i in range(n)}
        sizes: dict[int, int] = {i: 1 for i in range(n)}
        members: dict[int, list[int]] = {i: [i] for i in range(n)}
        next_id = n

        # All-pairs initial linkage in one Gram matmul: for singleton
        # clusters the average link is exactly the cosine.
        gram = unit @ unit.T
        heap = [
            (-float(gram[a, b]), a, b) for a in range(n) for b in range(a + 1, n)
        ]
        heapq.heapify(heap)

        active = set(range(n))
        merge_similarities: list[float] = []
        while len(active) > target_k and heap:
            neg_sim, a, b = heapq.heappop(heap)
            if a not in active or b not in active:
                continue  # stale entry
            merge_similarities.append(-neg_sim)
            merged = next_id
            next_id += 1
            sums[merged] = sums[a] + sums[b]
            sizes[merged] = sizes[a] + sizes[b]
            members[merged] = members[a] + members[b]
            for stale in (a, b):
                active.discard(stale)
                del sums[stale], sizes[stale], members[stale]
            if active:
                # One matvec updates the merged cluster's linkage to
                # every surviving cluster.
                others = sorted(active)
                stacked = np.stack([sums[o] for o in others])
                dots = stacked @ sums[merged]
                merged_size = sizes[merged]
                for other, dot in zip(others, dots):
                    denom = merged_size * sizes[other]
                    heapq.heappush(heap, (-float(dot) / denom, merged, other))
            active.add(merged)

        return self._label(n, active, members, merge_similarities)

    @staticmethod
    def _label(
        n: int,
        active: set[int],
        members: dict[int, list[int]],
        merge_similarities: list[float],
    ) -> AgglomerativeResult:
        labels = [0] * n
        for label, cluster_id in enumerate(sorted(active)):
            for index in members[cluster_id]:
                labels[index] = label
        return AgglomerativeResult(
            clustering=Clustering(tuple(labels), len(active)),
            merge_similarities=tuple(merge_similarities),
        )
