"""Tests for the clustering substrate."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    Clustering,
    KMeans,
    KMedoids,
    ScalarKMeans,
    cluster_entropy,
    clustering_entropy,
    clustering_similarity,
    levenshtein,
    normalized_levenshtein,
    random_clustering,
    tree_edit_distance,
)
from repro.cluster.quality import purity
from repro.cluster.treeedit import normalized_tree_edit_distance
from repro.errors import ClusteringError, EvaluationError
from repro.html import parse
from repro.vsm import SparseVector


class TestClustering:
    def test_members(self):
        c = Clustering((0, 1, 0, 1), 2)
        assert c.members(0) == (0, 2)
        assert c.members(1) == (1, 3)

    def test_from_labels_infers_k(self):
        c = Clustering.from_labels([0, 2, 1])
        assert c.k == 3

    def test_empty_cluster_allowed(self):
        c = Clustering((0, 0), 3)
        assert c.sizes() == [2, 0, 0]
        assert c.non_empty_clusters() == [0]

    def test_select(self):
        c = Clustering((0, 1, 0), 2)
        assert c.select(["a", "b", "c"], 0) == ["a", "c"]

    def test_bad_k_raises(self):
        with pytest.raises(ClusteringError):
            Clustering((), 0)

    def test_out_of_range_label_raises(self):
        with pytest.raises(ClusteringError):
            Clustering((5,), 2)

    @given(st.lists(st.integers(0, 3), max_size=30))
    def test_members_partition_items(self, labels):
        c = Clustering.from_labels(labels, k=4)
        all_members = [i for cluster in range(4) for i in c.members(cluster)]
        assert sorted(all_members) == list(range(len(labels)))


def _two_blob_vectors(n_per=10):
    blob_a = [SparseVector({"a": 1.0, "x": 0.05 * (i % 3)}) for i in range(n_per)]
    blob_b = [SparseVector({"b": 1.0, "y": 0.05 * (i % 3)}) for i in range(n_per)]
    return blob_a + blob_b


class TestKMeans:
    def test_separates_clear_blobs(self):
        vectors = _two_blob_vectors()
        result = KMeans(2, seed=0).fit(vectors)
        labels = result.clustering.labels
        assert len(set(labels[:10])) == 1
        assert len(set(labels[10:])) == 1
        assert labels[0] != labels[10]

    def test_k_greater_than_n_degrades(self):
        vectors = [SparseVector({"a": 1.0})] * 3
        result = KMeans(10, seed=0).fit(vectors)
        assert result.clustering.n == 3

    def test_empty_input_raises(self):
        with pytest.raises(ClusteringError):
            KMeans(2).fit([])

    def test_invalid_k_raises(self):
        with pytest.raises(ClusteringError):
            KMeans(0)

    def test_invalid_restarts_raises(self):
        with pytest.raises(ClusteringError):
            KMeans(2, restarts=0)

    def test_deterministic_with_seed(self):
        vectors = _two_blob_vectors()
        a = KMeans(2, seed=42).fit(vectors).clustering.labels
        b = KMeans(2, seed=42).fit(vectors).clustering.labels
        assert a == b

    def test_internal_similarity_reported(self):
        vectors = _two_blob_vectors()
        result = KMeans(2, seed=0).fit(vectors)
        assert result.internal_similarity > 0

    def test_more_restarts_never_hurts(self):
        vectors = _two_blob_vectors(6)
        few = KMeans(3, restarts=1, seed=7).fit(vectors).internal_similarity
        many = KMeans(3, restarts=15, seed=7).fit(vectors).internal_similarity
        assert many >= few - 1e-9

    def test_handles_zero_vectors(self):
        vectors = [SparseVector({"a": 1.0}), SparseVector(), SparseVector({"b": 1.0})]
        result = KMeans(2, seed=0).fit(vectors)
        assert result.clustering.n == 3


class TestScalarKMeans:
    def test_separates_scales(self):
        values = [10.0] * 5 + [1000.0] * 5
        labels = ScalarKMeans(2, seed=0).fit(values).clustering.labels
        assert labels[0] != labels[5]
        assert len(set(labels[:5])) == 1

    def test_single_distinct_value(self):
        result = ScalarKMeans(3, seed=0).fit([5.0, 5.0, 5.0])
        assert result.clustering.n == 3

    def test_empty_raises(self):
        with pytest.raises(ClusteringError):
            ScalarKMeans(2).fit([])

    def test_invalid_k_raises(self):
        with pytest.raises(ClusteringError):
            ScalarKMeans(0)

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_invalid_restarts_raises(self, restarts):
        with pytest.raises(ClusteringError):
            ScalarKMeans(2, restarts=restarts)


class TestKMedoids:
    def test_separates_string_groups(self):
        items = ["aaaa1", "aaaa2", "aaaa3", "zzzzzzz1", "zzzzzzz2"]
        result = KMedoids(2, distance=lambda a, b: float(levenshtein(a, b)), seed=0).fit(items)
        labels = result.clustering.labels
        assert len(set(labels[:3])) == 1
        assert labels[0] != labels[3]

    def test_medoid_is_member(self):
        items = ["ab", "abc", "abcd"]
        result = KMedoids(1, distance=lambda a, b: float(levenshtein(a, b)), seed=0).fit(items)
        assert result.medoid_indices[0] in range(3)

    def test_empty_raises(self):
        with pytest.raises(ClusteringError):
            KMedoids(2, distance=lambda a, b: 0.0).fit([])

    def test_invalid_k_raises(self):
        with pytest.raises(ClusteringError):
            KMedoids(0, distance=lambda a, b: 0.0)

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_invalid_restarts_raises(self, restarts):
        # Raised up front: a fit with no restarts has no result to keep.
        with pytest.raises(ClusteringError):
            KMedoids(2, distance=lambda a, b: 0.0, restarts=restarts)


class TestRandomBaseline:
    def test_covers_n(self):
        c = random_clustering(25, 4, seed=3)
        assert c.n == 25
        assert c.k == 4

    def test_deterministic(self):
        assert random_clustering(10, 3, seed=1).labels == random_clustering(10, 3, seed=1).labels

    def test_invalid(self):
        with pytest.raises(ClusteringError):
            random_clustering(-1, 2)
        with pytest.raises(ClusteringError):
            random_clustering(2, 0)


class TestEditDistance:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("cat", "cake", 2),  # the paper's example
            ("", "", 0),
            ("", "abc", 3),
            ("abc", "abc", 0),
            ("kitten", "sitting", 3),
            ("he", "het", 1),
        ],
    )
    def test_known_distances(self, a, b, expected):
        assert levenshtein(a, b) == expected

    def test_normalized_paper_example(self):
        # he vs het -> 1/3 (Section 3.2.1).
        assert math.isclose(normalized_levenshtein("he", "het"), 1 / 3)

    def test_normalized_empty(self):
        assert normalized_levenshtein("", "") == 0.0

    @given(st.text(max_size=25), st.text(max_size=25))
    def test_symmetric(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(st.text(max_size=25), st.text(max_size=25))
    def test_bounds(self, a, b):
        d = levenshtein(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))
        assert 0.0 <= normalized_levenshtein(a, b) <= 1.0

    @settings(max_examples=30)
    @given(st.text(max_size=12), st.text(max_size=12), st.text(max_size=12))
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


class TestEntropy:
    def test_pure_clusters_zero(self):
        c = Clustering((0, 0, 1, 1), 2)
        assert clustering_entropy(c, ["a", "a", "b", "b"]) == 0.0

    def test_worst_case_one(self):
        c = Clustering((0, 1, 0, 1), 2)
        assert math.isclose(clustering_entropy(c, ["a", "a", "b", "b"]), 1.0)

    def test_single_class_zero(self):
        c = Clustering((0, 1), 2)
        assert clustering_entropy(c, ["a", "a"]) == 0.0

    def test_mismatched_lengths_raise(self):
        with pytest.raises(EvaluationError):
            clustering_entropy(Clustering((0,), 1), ["a", "b"])

    def test_cluster_entropy_range(self):
        assert cluster_entropy(["a", "b"], 2) == 1.0
        assert cluster_entropy(["a", "a"], 2) == 0.0
        assert cluster_entropy([], 2) == 0.0

    def test_purity_complements_entropy(self):
        perfect = Clustering((0, 0, 1, 1), 2)
        assert purity(perfect, ["a", "a", "b", "b"]) == 1.0
        mixed = Clustering((0, 1, 0, 1), 2)
        assert purity(mixed, ["a", "a", "b", "b"]) == 0.5

    @given(
        st.lists(st.sampled_from("ab"), min_size=2, max_size=20),
        st.lists(st.integers(0, 2), min_size=2, max_size=20),
    )
    def test_entropy_in_unit_interval(self, classes, labels):
        n = min(len(classes), len(labels))
        c = Clustering.from_labels(labels[:n], k=3)
        value = clustering_entropy(c, classes[:n])
        assert 0.0 <= value <= 1.0 + 1e-9


class TestClusteringSimilarity:
    def test_identical_members_high(self):
        vectors = [SparseVector({"a": 1.0})] * 4
        c = Clustering((0, 0, 1, 1), 2)
        # Each cluster contributes (2/4)*2 = 1.0
        assert math.isclose(clustering_similarity(vectors, c), 2.0)

    def test_mismatch_raises(self):
        with pytest.raises(EvaluationError):
            clustering_similarity([SparseVector()], Clustering((0, 0), 1))


class TestTreeEditDistance:
    def test_identical_trees_zero(self):
        t = parse("<html><body><p>x</p></body></html>")
        assert tree_edit_distance(t, t) == 0.0

    def test_single_relabel(self):
        a = parse("<html><body><p>x</p></body></html>")
        b = parse("<html><body><div>x</div></body></html>")
        assert tree_edit_distance(a, b) == 1.0

    def test_single_insert(self):
        a = parse("<html><body></body></html>")
        b = parse("<html><body><p></p></body></html>")
        assert tree_edit_distance(a, b) == 1.0

    def test_symmetric(self):
        a = parse("<html><table><tr><td>x</td></tr></table></html>")
        b = parse("<html><ul><li>x</li><li>y</li></ul></html>")
        assert tree_edit_distance(a, b) == tree_edit_distance(b, a)

    def test_bounded_by_sizes(self):
        a = parse("<html><p>x</p></html>")
        b = parse("<html><table><tr><td>y</td><td>z</td></tr></table></html>")
        d = tree_edit_distance(a, b)
        assert d <= a.size() + b.size()

    def test_normalized_range(self):
        a = parse("<html><p>x</p></html>")
        b = parse("<html><div><div><div>y</div></div></div></html>")
        assert 0.0 <= normalized_tree_edit_distance(a, b) <= 1.0

    def test_custom_relabel_cost(self):
        a = parse("<html><p>x</p></html>")
        b = parse("<html><div>x</div></html>")
        free = tree_edit_distance(a, b, relabel_cost=lambda x, y: 0.0)
        assert free == 0.0

    def test_deep_tree_no_recursion_error(self):
        deep = "<html>" + "<div>" * 300 + "x" + "</div>" * 300 + "</html>"
        t = parse(deep)
        assert tree_edit_distance(t, t) == 0.0


class TestKMeansPlusPlus:
    def test_invalid_init_raises(self):
        with pytest.raises(ClusteringError):
            KMeans(2, init="bogus")

    def test_separates_blobs(self):
        vectors = _two_blob_vectors()
        result = KMeans(2, init="kmeans++", seed=0).fit(vectors)
        labels = result.clustering.labels
        assert labels[0] != labels[10]
        assert len(set(labels[:10])) == 1

    def test_finds_small_class_with_one_restart(self):
        # 40 near-identical vectors plus a 3-vector minority class:
        # distance-weighted seeding reliably places a center on the
        # minority even without restarts.
        majority = [SparseVector({"a": 1.0, "x": 0.01 * (i % 5)}) for i in range(40)]
        minority = [SparseVector({"b": 1.0}) for _ in range(3)]
        vectors = majority + minority
        result = KMeans(2, restarts=1, init="kmeans++", seed=4).fit(vectors)
        labels = result.clustering.labels
        assert labels[0] != labels[40]

    def test_deterministic(self):
        vectors = _two_blob_vectors()
        a = KMeans(3, init="kmeans++", seed=8).fit(vectors).clustering.labels
        b = KMeans(3, init="kmeans++", seed=8).fit(vectors).clustering.labels
        assert a == b

    def test_quality_not_worse_than_random_init(self):
        vectors = _two_blob_vectors()
        random_init = KMeans(2, restarts=5, seed=3).fit(vectors)
        plusplus = KMeans(2, restarts=5, init="kmeans++", seed=3).fit(vectors)
        assert plusplus.internal_similarity >= random_init.internal_similarity - 1e-6
