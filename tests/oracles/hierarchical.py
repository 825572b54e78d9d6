"""Reference average-link clustering over sparse-vector cluster sums.

:class:`OracleAverageLinkClusterer` is
:class:`repro.cluster.hierarchical.AverageLinkClusterer` with the
single-shot fit swapped for the dict-of-``SparseVector`` formulation:
one ``dot`` per cluster pair instead of a Gram matmul. Restarts
(``restarts > 1``) run through :func:`repro.runtime.run_restarts`
exactly as in production and call this fit per permutation.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from repro.cluster.hierarchical import AgglomerativeResult, AverageLinkClusterer
from repro.vsm.vector import SparseVector


class OracleAverageLinkClusterer(AverageLinkClusterer):
    """Average link with ``SparseVector`` sums and scalar linkages."""

    def _fit_single(
        self, vectors: Sequence[SparseVector], n: int, target_k: int
    ) -> AgglomerativeResult:
        return self._fit_python(vectors, n, target_k)

    def _fit_python(
        self, vectors: Sequence[SparseVector], n: int, target_k: int
    ) -> AgglomerativeResult:
        # Normalize defensively; zero vectors stay zero (similarity 0
        # to everything, merged last).
        unit: list[SparseVector] = [
            v if v.is_zero() else v.normalized() for v in vectors
        ]

        # Union-find-ish bookkeeping: active cluster id → (sum vector,
        # size, member indices).
        sums: dict[int, SparseVector] = {i: unit[i] for i in range(n)}
        sizes: dict[int, int] = {i: 1 for i in range(n)}
        members: dict[int, list[int]] = {i: [i] for i in range(n)}
        next_id = n

        def linkage(a: int, b: int) -> float:
            denom = sizes[a] * sizes[b]
            if denom == 0:
                return 0.0
            return sums[a].dot(sums[b]) / denom

        heap: list[tuple[float, int, int]] = []
        active = set(range(n))
        for a in active:
            for b in active:
                if a < b:
                    heapq.heappush(heap, (-linkage(a, b), a, b))

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
            for other in active:
                heapq.heappush(heap, (-linkage(merged, other), merged, other))
            active.add(merged)

        return self._label(n, active, members, merge_similarities)
