"""Equivalence: numpy matrix kernels vs the pure-python references.

The references in ``tests/oracles/`` are the readable formulation; the
production numpy kernels must reproduce them. Kernels (cosine,
centroids, assignment, Levenshtein) must agree to 1e-9 or
bit-for-bit; the seeded K-Means driver must produce *identical* labels
under both. K-medoids is checked via invariants only: normalized edit
distances are small rationals, so exact mathematical medoid ties are
common and each implementation breaks them by the last ulp of its own
summation order (see ``repro.cluster.kmedoids``).

Random collections are generated from a seeded ``random.Random`` with
continuous weights (hypothesis supplies only the seed): drawing raw
floats would let hypothesis construct exact cosine ties, which neither
implementation promises to break the same way.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.editdist import normalized_levenshtein
from repro.cluster.hierarchical import AverageLinkClusterer
from repro.cluster.kmeans import KMeans
from repro.cluster.kmedoids import KMedoids
from repro.core.subtree_sets import (
    SubtreeCandidate,
    shape_distance,
    shape_distance_matrix,
)
from repro.html.metrics import SubtreeShape
from repro.vsm.centroid import centroid
from repro.vsm.matrix import (
    VectorSpace,
    centroid_matrix,
    cosine_matrix,
    pairwise_normalized_levenshtein,
    weighted_space,
)
from repro.vsm.similarity import cosine_similarity
from repro.vsm.vector import SparseVector
from repro.vsm.weighting import raw_tf_vector, tfidf_vectors
from tests.oracles import treeedit as oracle_treeedit
from tests.oracles.hierarchical import OracleAverageLinkClusterer
from tests.oracles.kmeans import OracleKMeans
from tests.oracles.kmedoids import OracleKMedoids

FEATURES = [f"f{i}" for i in range(8)]

seeds = st.integers(0, 10_000)


def random_vectors(seed: int, n: int, allow_zero: bool = False) -> list[SparseVector]:
    """A seeded collection with continuous weights (no adversarial ties)."""
    rng = random.Random(seed)
    vectors = []
    for i in range(n):
        if allow_zero and rng.random() < 0.1:
            vectors.append(SparseVector())
            continue
        chosen = rng.sample(FEATURES, rng.randint(1, len(FEATURES)))
        vectors.append(
            SparseVector({f: rng.uniform(0.05, 5.0) for f in chosen})
        )
    return vectors


class TestKernelAgreement:
    @given(seeds, st.integers(2, 12))
    def test_cosine_matrix_matches_scalar(self, seed, n):
        vectors = random_vectors(seed, n, allow_zero=True)
        space = VectorSpace.build(vectors)
        sims = cosine_matrix(space.matrix, space.matrix, space.norms, space.norms)
        for i, a in enumerate(vectors):
            for j, b in enumerate(vectors):
                assert math.isclose(
                    float(sims[i, j]),
                    cosine_similarity(a, b),
                    rel_tol=0.0,
                    abs_tol=1e-9,
                )

    @given(seeds, st.integers(2, 12), st.integers(1, 4))
    def test_centroid_matrix_matches_scalar(self, seed, n, k):
        vectors = random_vectors(seed, n)
        rng = random.Random(seed + 1)
        labels = [rng.randrange(k) for _ in range(n)]
        space = VectorSpace.build(vectors)
        centroids, counts = centroid_matrix(
            space.matrix, np.asarray(labels), k
        )
        for cluster in range(k):
            members = [v for v, lab in zip(vectors, labels) if lab == cluster]
            assert counts[cluster] == len(members)
            if not members:
                assert not np.any(centroids[cluster])
                continue
            reference = centroid(members)
            recovered = space.to_sparse(centroids[cluster])
            for feature in reference.features() | recovered.features():
                assert math.isclose(
                    recovered.get(feature),
                    reference.get(feature),
                    rel_tol=0.0,
                    abs_tol=1e-9,
                )

    @given(seeds, st.integers(3, 12), st.integers(1, 3))
    def test_assignment_matches_scalar(self, seed, n, k):
        vectors = random_vectors(seed, n)
        # Centers are always centroids of *disjoint* member lists in the
        # driver — and their features never fall outside the interned
        # vocabulary. (Overlapping samples could produce two
        # mathematically identical centers, whose tied cosines neither
        # implementation promises to break the same way.)
        rng = random.Random(seed + 7)
        indices = list(range(n))
        rng.shuffle(indices)
        chunk = max(1, n // k)
        groups = [indices[start : start + chunk] for start in range(0, k * chunk, chunk)]
        centers = [centroid([vectors[i] for i in group]) for group in groups if group]
        space = VectorSpace.build(vectors)
        sims = cosine_matrix(
            space.matrix, space.encode(centers), space.norms, None
        )
        numpy_labels = np.argmax(sims, axis=1)
        for i, vector in enumerate(vectors):
            best, best_sim = 0, -math.inf
            for j, center in enumerate(centers):
                s = cosine_similarity(vector, center)
                if s > best_sim:
                    best, best_sim = j, s
            assert int(numpy_labels[i]) == best

    @given(st.lists(st.text(alphabet="abrtd", max_size=12), min_size=1, max_size=10))
    def test_pairwise_levenshtein_matches_scalar(self, strings):
        matrix = pairwise_normalized_levenshtein(strings)
        for i, a in enumerate(strings):
            for j, b in enumerate(strings):
                # Exact same division of the same integer edit distance.
                assert float(matrix[i][j]) == normalized_levenshtein(a, b)

    @given(seeds, st.integers(1, 10), st.sampled_from(["tfidf", "raw"]))
    def test_weighted_space_matches_scalar_weighting(self, seed, n, weighting):
        rng = random.Random(seed)
        maps = [
            {
                f: rng.randint(1, 30)
                for f in rng.sample(FEATURES, rng.randint(0, len(FEATURES)))
            }
            for _ in range(n)
        ]
        space = weighted_space(maps, weighting)
        reference = (
            tfidf_vectors(maps)
            if weighting == "tfidf"
            else [raw_tf_vector(m) for m in maps]
        )
        assert space.n == n
        for row, expected in enumerate(reference):
            recovered = space.to_sparse(space.matrix[row])
            for feature in expected.features() | recovered.features():
                assert math.isclose(
                    recovered.get(feature),
                    expected.get(feature),
                    rel_tol=0.0,
                    abs_tol=1e-9,
                )

    def test_weighted_space_rejects_unknown_weighting(self):
        with pytest.raises(ValueError):
            weighted_space([{"a": 1}], "binary")

    @given(
        st.text(alphabet="abcxy", min_size=33, max_size=40),
        st.text(alphabet="abcxy", min_size=33, max_size=40),
    )
    def test_rowwise_levenshtein_kernel(self, a, b):
        # Long enough (33*33 > 1024) to force the vectorized DP path.
        matrix = pairwise_normalized_levenshtein([a], [b])
        assert float(matrix[0][0]) == normalized_levenshtein(a, b)


def _partition(result):
    members = result.clustering.members
    return {
        frozenset(members(c))
        for c in range(result.clustering.k)
        if members(c)
    }


class TestKMeansEquivalence:
    @settings(deadline=None, max_examples=25)
    @given(seeds, st.integers(4, 16), st.integers(1, 4), st.sampled_from(["random", "kmeans++"]))
    def test_identical_labels_and_cohesion(self, seed, n, k, init):
        # A single restart exercises one full seeded run of each kernel;
        # those must agree label-for-label.
        vectors = random_vectors(seed, n, allow_zero=True)
        kwargs = dict(k=k, restarts=1, seed=seed, init=init)
        py = OracleKMeans(**kwargs).fit(vectors)
        npy = KMeans(**kwargs).fit(vectors)
        assert npy.clustering.labels == py.clustering.labels
        assert math.isclose(
            npy.internal_similarity,
            py.internal_similarity,
            rel_tol=0.0,
            abs_tol=1e-9,
        )
        assert npy.iterations == py.iterations
        for c_np, c_py in zip(npy.centroids, py.centroids):
            for feature in c_np.features() | c_py.features():
                assert math.isclose(
                    c_np.get(feature), c_py.get(feature), rel_tol=0.0, abs_tol=1e-9
                )

    @settings(deadline=None, max_examples=25)
    @given(seeds, st.integers(4, 16), st.integers(1, 4), st.sampled_from(["random", "kmeans++"]))
    def test_restart_selection_same_partition(self, seed, n, k, init):
        # With restarts, two starts can converge to equal-cohesion
        # optima (equal up to summation order); each implementation may
        # then keep a different copy. The kept partitions can only differ in
        # relabeling and in where zero vectors land (they contribute no
        # cohesion anywhere) — quality always matches.
        vectors = random_vectors(seed, n, allow_zero=True)
        kwargs = dict(k=k, restarts=4, seed=seed, init=init)
        py = OracleKMeans(**kwargs).fit(vectors)
        npy = KMeans(**kwargs).fit(vectors)
        nonzero = {i for i, v in enumerate(vectors) if not v.is_zero()}
        restrict = lambda partition: {
            frozenset(cluster & nonzero)
            for cluster in partition
            if cluster & nonzero
        }
        assert restrict(_partition(npy)) == restrict(_partition(py))
        assert math.isclose(
            npy.internal_similarity,
            py.internal_similarity,
            rel_tol=0.0,
            abs_tol=1e-9,
        )


class TestKMedoidsEquivalence:
    @settings(deadline=None, max_examples=20)
    @given(seeds, st.integers(4, 14), st.integers(1, 3))
    def test_invariants_match(self, seed, n, k):
        rng = random.Random(seed)
        urls = [
            "/list?p=" + "".join(rng.choices("abcd", k=rng.randint(1, 6)))
            for _ in range(n)
        ]
        kwargs = dict(
            k=k, distance=normalized_levenshtein, restarts=3, seed=seed
        )
        py = OracleKMedoids(**kwargs).fit(urls)
        npy = KMedoids(**kwargs).fit(urls)
        for result in (py, npy):
            assert len(result.clustering.labels) == n
            assert len(result.medoid_indices) == min(k, n)
            # Each medoid actually carries its own cluster's label.
            for cluster, medoid in enumerate(result.medoid_indices):
                if result.clustering.members(cluster):
                    assert result.clustering.labels[medoid] == cluster
            recomputed = sum(
                normalized_levenshtein(
                    url, urls[result.medoid_indices[label]]
                )
                for url, label in zip(urls, result.clustering.labels)
            )
            assert math.isclose(
                result.total_distance, recomputed, rel_tol=0.0, abs_tol=1e-9
            )

    def test_precomputed_matrix_short_circuits_distance(self):
        urls = ["/a", "/ab", "/abc", "/b", "/bc"]
        matrix = pairwise_normalized_levenshtein(urls)

        def forbidden(a, b):  # pragma: no cover - must never run
            raise AssertionError("distance called despite precomputed matrix")

        result = KMedoids(k=2, distance=forbidden, restarts=2, seed=0).fit(
            urls, precomputed=matrix
        )
        assert len(result.clustering.labels) == len(urls)


class TestHierarchicalEquivalence:
    @settings(deadline=None, max_examples=20)
    @given(seeds, st.integers(3, 12), st.integers(1, 3))
    def test_same_partition(self, seed, n, k):
        vectors = random_vectors(seed, n)
        py = OracleAverageLinkClusterer(k=k).fit(vectors)
        npy = AverageLinkClusterer(k=k).fit(vectors)
        as_partition = lambda result: {
            frozenset(result.clustering.members(c))
            for c in range(result.clustering.k)
            if result.clustering.members(c)
        }
        assert as_partition(npy) == as_partition(py)


class TestShapeDistanceEquivalence:
    def _cand(self, rng):
        code = "".join(rng.choices("hbtdr", k=rng.randint(1, 8)))
        return SubtreeCandidate(
            page_index=0,
            node=None,
            shape=SubtreeShape(
                "html/body", rng.randint(0, 9), rng.randint(1, 6), rng.randint(1, 40)
            ),
            code_path=code,
        )

    @settings(deadline=None, max_examples=25)
    @given(seeds, st.integers(1, 6), st.integers(1, 6))
    def test_matrix_matches_scalar_bitwise(self, seed, na, nb):
        rng = random.Random(seed)
        a = [self._cand(rng) for _ in range(na)]
        b = [self._cand(rng) for _ in range(nb)]
        weights = (0.4, 0.2, 0.2, 0.2)
        matrix = shape_distance_matrix(a, b, weights)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                assert float(matrix[i][j]) == shape_distance(ca, cb, weights)


def _random_tag_tree(rng: random.Random, depth: int = 4, width: int = 3):
    from repro.html.tree import ContentNode, TagNode

    tags = ["div", "p", "span", "table", "tr", "td", "ul", "li"]

    def build(d):
        node = TagNode(rng.choice(tags))
        if d > 0:
            for _ in range(rng.randrange(width + 1)):
                if rng.random() < 0.3:
                    node.children.append(ContentNode("x"))
                else:
                    node.children.append(build(d - 1))
        return node

    root = TagNode("html")
    for _ in range(rng.randrange(1, width + 1)):
        root.children.append(build(depth))
    return root


class TestTreeEditEquivalence:
    """The vectorized Zhang–Shasha kernel must agree with the scalar DP
    bitwise (unit costs are small integers, exact in float64)."""

    @settings(deadline=None, max_examples=25)
    @given(seeds)
    def test_hybrid_matches_scalar_bitwise(self, seed):
        from repro.cluster.treeedit import tree_edit_distance

        rng = random.Random(seed)
        a, b = _random_tag_tree(rng), _random_tag_tree(rng)
        py = oracle_treeedit.tree_edit_distance(a, b)
        npy = tree_edit_distance(a, b)
        assert npy == py

    def test_forced_vector_kernel_matches_scalar_bitwise(self, monkeypatch):
        # Drop the width threshold so *every* keyroot pair runs the
        # vectorized rows, not just the wide ones the hybrid picks.
        from repro.cluster import treeedit

        monkeypatch.setattr(treeedit, "_VECTOR_MIN_COLS", 1)
        for seed in range(15):
            rng = random.Random(seed)
            a, b = _random_tag_tree(rng), _random_tag_tree(rng)
            py = oracle_treeedit.tree_edit_distance(a, b)
            npy = treeedit.tree_edit_distance(a, b)
            assert npy == py

    def test_custom_costs_match(self, monkeypatch):
        from repro.cluster import treeedit

        monkeypatch.setattr(treeedit, "_VECTOR_MIN_COLS", 1)
        rng = random.Random(99)
        a, b = _random_tag_tree(rng), _random_tag_tree(rng)
        variants = [
            dict(relabel_cost=lambda x, y: 0.0 if x == y else 0.5),
            dict(insert_cost=2.0, delete_cost=1.5),
        ]
        for kwargs in variants:
            py = oracle_treeedit.tree_edit_distance(a, b, **kwargs)
            npy = treeedit.tree_edit_distance(a, b, **kwargs)
            assert npy == py

    def test_normalized_matches_scalar(self):
        from repro.cluster.treeedit import normalized_tree_edit_distance

        rng = random.Random(3)
        a, b = _random_tag_tree(rng), _random_tag_tree(rng)
        py = oracle_treeedit.normalized_tree_edit_distance(a, b)
        npy = normalized_tree_edit_distance(a, b)
        assert npy == py
        assert 0.0 <= npy <= 1.0


class TestParallelEquivalence:
    """Restart seeding and the in-order restart loop: each restart is
    a pure function of (data, restart seed), and the best restart wins
    with the earliest kept on ties."""

    def test_restart_seed_streams_are_deterministic(self):
        from repro.runtime import restart_seed_streams

        assert restart_seed_streams(7, 3, "kmeans") == [
            "kmeans:7:0",
            "kmeans:7:1",
            "kmeans:7:2",
        ]
        # Unseeded streams draw fresh entropy, one per restart.
        unseeded = restart_seed_streams(None, 4, "kmeans")
        assert len(unseeded) == 4
        assert len(set(unseeded)) == 4

    def test_run_restarts_orders_results(self):
        from repro.runtime import run_restarts

        scores = {"a": 1, "b": 3, "c": 3, "d": 2}
        calls = []

        def restart(seed):
            calls.append(seed)
            return (scores[seed], seed)

        def better(candidate, incumbent):
            return candidate[0] > incumbent[0]

        best = run_restarts(restart, list("abcd"), better)
        # One call per seed, in seed order, in this process.
        assert calls == list("abcd")
        # "b" and "c" tie on the best score: the first one found wins.
        assert best == (3, "b")
        assert run_restarts(restart, [], better) is None
