"""Clustering result representation.

A :class:`Clustering` records, for ``n`` items, which of ``k`` clusters
each item belongs to. It is algorithm-agnostic: K-Means, k-medoids,
scalar and random clusterings all return this type, so the evaluation
code (entropy, cluster ranking) works uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import ClusteringError


@dataclass(frozen=True)
class Clustering:
    """Partition of items ``0..n-1`` into clusters ``0..k-1``.

    Clusters may be empty (K-Means with an unlucky start can produce
    them); downstream code must not assume every label occurs.
    """

    labels: tuple[int, ...]
    k: int
    _members: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ClusteringError(f"k must be >= 1, got {self.k}")
        for label in self.labels:
            if not 0 <= label < self.k:
                raise ClusteringError(f"label {label} out of range for k={self.k}")
        members: list[list[int]] = [[] for _ in range(self.k)]
        for index, label in enumerate(self.labels):
            members[label].append(index)
        object.__setattr__(
            self, "_members", tuple(tuple(m) for m in members)
        )

    @classmethod
    def from_labels(cls, labels: Iterable[int], k: int | None = None) -> "Clustering":
        label_tuple = tuple(labels)
        if k is None:
            k = (max(label_tuple) + 1) if label_tuple else 1
        return cls(label_tuple, k)

    @property
    def n(self) -> int:
        return len(self.labels)

    def members(self, cluster: int) -> tuple[int, ...]:
        """Item indices assigned to ``cluster``."""
        return self._members[cluster]

    def clusters(self) -> tuple[tuple[int, ...], ...]:
        """All clusters as index tuples (including empty ones)."""
        return self._members

    def non_empty_clusters(self) -> list[int]:
        """Labels of clusters that have at least one member."""
        return [i for i, m in enumerate(self._members) if m]

    def sizes(self) -> list[int]:
        return [len(m) for m in self._members]

    def select(self, items: Sequence, cluster: int) -> list:
        """The subsequence of ``items`` assigned to ``cluster``."""
        return [items[i] for i in self.members(cluster)]


def assign_to_centroids(rows, centroids) -> list[int]:
    """Nearest-centroid labels for already-encoded rows (no refit).

    The assign-without-refit kernel of incremental re-extraction: one
    cosine matmul of the new pages' tf-idf rows (encoded into the
    *stored* space via :func:`repro.vsm.matrix.encode_tfidf`) against
    the stored Phase-1 centroids, then an argmax per row. Ties break
    toward the lower cluster index — the same rule K-Means applies
    during a full fit, so a page that did not move re-earns its old
    label.
    """
    from repro.vsm.matrix import cosine_matrix

    if len(rows) == 0:
        return []
    similarities = cosine_matrix(rows, centroids)
    return [int(label) for label in similarities.argmax(axis=1)]
