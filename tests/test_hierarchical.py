"""Tests for average-link agglomerative clustering."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.hierarchical import AverageLinkClusterer
from repro.errors import ClusteringError
from repro.vsm import SparseVector


def blobs():
    a = [SparseVector({"a": 1.0, "n": 0.05 * i}) for i in range(6)]
    b = [SparseVector({"b": 1.0, "m": 0.05 * i}) for i in range(6)]
    return a + b


class TestAverageLink:
    def test_separates_blobs(self):
        result = AverageLinkClusterer(2).fit(blobs())
        labels = result.clustering.labels
        assert len(set(labels[:6])) == 1
        assert len(set(labels[6:])) == 1
        assert labels[0] != labels[6]

    def test_k_one_merges_all(self):
        result = AverageLinkClusterer(1).fit(blobs())
        assert set(result.clustering.labels) == {0}

    def test_k_equals_n(self):
        vectors = blobs()
        result = AverageLinkClusterer(len(vectors)).fit(vectors)
        assert sorted(result.clustering.labels) == list(range(len(vectors)))

    def test_k_exceeds_n(self):
        vectors = blobs()[:3]
        result = AverageLinkClusterer(50).fit(vectors)
        assert result.clustering.k == 3

    def test_merge_count(self):
        vectors = blobs()
        result = AverageLinkClusterer(2).fit(vectors)
        assert len(result.merge_similarities) == len(vectors) - 2

    def test_early_merges_are_tightest(self):
        # Each blob's internal merges (similarity ~1) happen before the
        # cross-blob merge (similarity ~0).
        result = AverageLinkClusterer(1).fit(blobs())
        assert result.merge_similarities[0] > result.merge_similarities[-1]

    def test_empty_raises(self):
        with pytest.raises(ClusteringError):
            AverageLinkClusterer(2).fit([])

    def test_invalid_restarts(self):
        with pytest.raises(ClusteringError):
            AverageLinkClusterer(2, restarts=0)


class TestRestartFanout:
    """Seeded restarts (repro.runtime.run_restarts) on the
    agglomerative path."""

    def test_seeded_restarts_deterministic(self):
        vectors = blobs()
        a = AverageLinkClusterer(2, restarts=3, seed=5).fit(vectors)
        b = AverageLinkClusterer(2, restarts=3, seed=5).fit(vectors)
        assert a.clustering.labels == b.clustering.labels

    def test_restarts_preserve_quality(self):
        result = AverageLinkClusterer(2, restarts=4, seed=1).fit(blobs())
        labels = result.clustering.labels
        assert len(set(labels[:6])) == 1
        assert len(set(labels[6:])) == 1
        assert labels[0] != labels[6]

    def test_labels_canonical_first_appearance(self):
        # Restart permutation must not leak into label numbering: the
        # first input vector always lands in cluster 0.
        result = AverageLinkClusterer(2, restarts=5, seed=3).fit(blobs())
        assert result.clustering.labels[0] == 0

    def test_invalid_k(self):
        with pytest.raises(ClusteringError):
            AverageLinkClusterer(0)

    def test_zero_vectors_tolerated(self):
        vectors = [SparseVector({"a": 1.0}), SparseVector(), SparseVector({"a": 1.0})]
        result = AverageLinkClusterer(2).fit(vectors)
        assert result.clustering.n == 3

    def test_deterministic(self):
        a = AverageLinkClusterer(3).fit(blobs()).clustering.labels
        b = AverageLinkClusterer(3).fit(blobs()).clustering.labels
        assert a == b

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.dictionaries(
                st.sampled_from("abcd"),
                st.floats(min_value=0.1, max_value=5, allow_nan=False),
                min_size=1,
                max_size=3,
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(1, 5),
    )
    def test_partition_invariants(self, dicts, k):
        vectors = [SparseVector(d) for d in dicts]
        result = AverageLinkClusterer(k).fit(vectors)
        clustering = result.clustering
        assert clustering.n == len(vectors)
        assert clustering.k == min(k, len(vectors))
        # Every item in exactly one cluster.
        seen = sorted(
            i for c in range(clustering.k) for i in clustering.members(c)
        )
        assert seen == list(range(len(vectors)))
