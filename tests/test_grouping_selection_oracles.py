"""Cross-page grouping and selection against their loop references.

:func:`repro.core.subtree_sets.find_common_subtree_sets` orders each
page's thresholded distance cells with one stable argsort, and
:func:`repro.core.selection._containment_relation` counts shared
pages with a membership-matrix product. ``tests/oracles/grouping.py``
and ``tests/oracles/selection.py`` keep the tuple-sorting and
pair-counting loops they replaced. Production must return exactly what
the references return: the same sets in the same order with equal
members per page, the same contained sets in the same iteration order
(``score_sets`` sums in that order, and its scores feed the result
digest), and ``score_sets`` output equal under ``==``, scores
included. Inputs are real clusters of all seven genres under varied
thresholds and distance weights — Figure 8's single features and a
NaN weight among them — plus generated containment structures with
more sets than a small Python set's hash table.
"""

from __future__ import annotations

import functools
import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core import selection
from repro.core.single_page import candidate_records_for_cluster
from repro.core.subtree_ranking import (
    RankedSubtreeSet,
    dynamic_sets,
    rank_subtree_sets,
)
from repro.core.subtree_sets import (
    CommonSubtreeSet,
    SubtreeCandidate,
    find_common_subtree_sets,
)
from repro.deepweb import generate_corpus
from repro.deepweb.domains import DOMAINS
from repro.eval.experiments import DISTANCE_VARIANTS, _pagelet_clusters
from repro.html.metrics import SubtreeShape
from tests.oracles import grouping as grouping_oracle
from tests.oracles import selection as selection_oracle

ALL_DOMAINS = sorted(DOMAINS)
SEEDS = (2, 1000, 1003)
NAN = float("nan")
WEIGHTS = (
    *DISTANCE_VARIANTS.values(),
    (NAN, 0.25, 0.25, 0.25),
    (0.25, 0.25, NAN, 0.25),
    (0.4, 0.1, 0.3, 0.2),
)


@functools.lru_cache(maxsize=None)
def cluster_records(domain: str, seed: int) -> tuple[list, ...]:
    """Candidate records of one site's pagelet clusters (grouped by
    true class, standing in for a perfect Phase 1)."""
    sample = generate_corpus(n_sites=1, seed=seed, domains=[domain])[0]
    return tuple(
        candidate_records_for_cluster(pages) for pages in _pagelet_clusters(sample)
    )


def members_view(sets: list[CommonSubtreeSet]) -> list:
    """Sets in order, each as its prototype and its members in
    insertion order (``==`` on :class:`SubtreeCandidate`)."""
    return [(s.prototype, list(s.members.items())) for s in sets]


def containment_view(contained: list[set[int]]) -> list[list[int]]:
    """Contained sets in iteration order."""
    return [list(s) for s in contained]


class TestGroupingAndSelectionMatchOracles:
    @settings(max_examples=30, deadline=None)
    @given(
        domain=st.sampled_from(ALL_DOMAINS),
        seed=st.sampled_from(SEEDS),
        cluster=st.integers(0, 3),
        weights=st.sampled_from(WEIGHTS),
        max_assign_distance=st.one_of(
            st.sampled_from((0.0, 0.5, 1.0)),
            st.floats(0.0, 1.0, allow_nan=False),
        ),
        grouping_seed=st.integers(0, 20),
    )
    def test_real_clusters(
        self, domain, seed, cluster, weights, max_assign_distance, grouping_seed
    ):
        clusters = cluster_records(domain, seed)
        if not clusters:
            return
        records = clusters[cluster % len(clusters)]
        kwargs = dict(
            weights=weights,
            max_assign_distance=max_assign_distance,
            seed=grouping_seed,
        )
        sets = find_common_subtree_sets(records, **kwargs)
        assert members_view(sets) == members_view(
            grouping_oracle.find_common_subtree_sets(records, **kwargs)
        )

        candidates = dynamic_sets(rank_subtree_sets(sets, n_pages=len(records)))
        assert containment_view(
            selection._containment_relation(candidates)
        ) == containment_view(selection_oracle.containment_relation(candidates))
        scored = selection.score_sets(candidates)
        with mock.patch.object(
            selection,
            "_containment_relation",
            selection_oracle.containment_relation,
        ):
            reference = selection.score_sets(candidates)
        assert [s.score for s in scored] == [s.score for s in reference]
        assert scored == reference


def generated_sets(
    rng: random.Random, n_sets: int, n_pages: int, density: float
) -> list[RankedSubtreeSet]:
    """Sets whose member paths nest often: each page draws its paths
    from one small random tree, and members list their pages in a
    shuffled order (so first-seen page order is not page order)."""
    page_trees = []
    for _ in range(n_pages):
        paths = ["html[1]"]
        for _ in range(rng.randint(1, 30)):
            parent = rng.choice(paths)
            paths.append(f"{parent}/{rng.choice('abdt')}[{rng.randint(1, 11)}]")
        page_trees.append(paths)
    sets = []
    for _ in range(n_sets):
        members = {}
        pages = list(range(n_pages))
        rng.shuffle(pages)
        for page in pages:
            if rng.random() < density:
                members[page] = SubtreeCandidate(
                    page_index=page,
                    node=None,
                    shape=SubtreeShape(rng.choice(page_trees[page]), 1, 1, 1),
                    code_path="h",
                )
        prototype = next(iter(members.values()), None)
        sets.append(
            RankedSubtreeSet(
                subtree_set=CommonSubtreeSet(prototype, members),
                similarity=0.0,
                is_static=False,
            )
        )
    return sets


class TestContainmentOrder:
    @settings(max_examples=40, deadline=None)
    @given(
        n_sets=st.integers(1, 200),
        n_pages=st.integers(1, 8),
        density=st.floats(0.0, 1.0, allow_nan=False),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_generated_sets(self, n_sets, n_pages, density, seed):
        candidates = generated_sets(random.Random(seed), n_sets, n_pages, density)
        assert containment_view(
            selection._containment_relation(candidates)
        ) == containment_view(selection_oracle.containment_relation(candidates))
