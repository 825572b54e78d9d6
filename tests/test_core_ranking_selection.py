"""Tests for subtree-set content ranking and QA-Pagelet selection."""

from __future__ import annotations

import math

from repro.config import SubtreeConfig
from repro.core.page import Page
from repro.core.single_page import candidate_records_for_cluster
from repro.core.subtree_ranking import (
    dynamic_sets,
    intra_set_similarity,
    rank_subtree_sets,
)
from repro.core.subtree_sets import find_common_subtree_sets
from repro.core.selection import score_sets
from tests.oracles import ranking as oracle_ranking


def build_sets(pages, **kwargs):
    candidates = candidate_records_for_cluster(pages)
    return find_common_subtree_sets(candidates, seed=0, **kwargs)


def results_pages(row_texts):
    """Pages with a static header/footer and varying result rows."""
    pages = []
    for texts in row_texts:
        rows = "".join(
            f"<tr><td>{t} one</td><td>{t} two</td></tr>" for t in texts
        )
        pages.append(
            Page(
                "<html><body>"
                "<div>Welcome to ExampleHub navigation links here</div>"
                f"<table>{rows}</table>"
                "<div>Copyright 2003 ExampleHub terms of service</div>"
                "</body></html>"
            )
        )
    return pages


PAGES = results_pages(
    [["alpha", "beta"], ["gamma", "delta"], ["epsilon", "zeta"]]
)


class TestIntraSetSimilarity:
    def test_static_set_scores_high(self):
        sets = build_sets(PAGES)
        static = [
            s for s in sets
            if s.prototype.shape.path.endswith("div[2]")
        ]
        assert static
        assert intra_set_similarity(static[0]) > 0.9

    def test_dynamic_set_scores_low(self):
        sets = build_sets(PAGES)
        tables = [
            s for s in sets if s.prototype.shape.path.endswith("table")
        ]
        assert tables
        assert intra_set_similarity(tables[0]) < 0.5

    def test_singleton_set_is_one(self):
        sets = build_sets([PAGES[0]], prototype_index=0)
        assert all(intra_set_similarity(s) == 1.0 for s in sets)

    def test_matches_naive_pairwise(self):
        # The closed-form computation must agree with the naive O(n²).
        from repro.vsm.similarity import cosine_similarity

        sets = build_sets(PAGES)
        for subtree_set in sets[:5]:
            vectors = oracle_ranking.set_content_vectors(subtree_set)
            n = len(vectors)
            if n <= 1:
                continue
            naive = sum(
                cosine_similarity(vectors[i], vectors[j])
                for i in range(n)
                for j in range(i + 1, n)
            ) / (n * (n - 1) / 2)
            fast = intra_set_similarity(subtree_set)
            assert math.isclose(naive, fast, abs_tol=1e-9)

    def test_raw_vs_tfidf_modes_differ(self):
        sets = build_sets(PAGES)
        table = next(
            s for s in sets if s.prototype.shape.path.endswith("table")
        )
        tfidf = intra_set_similarity(table, use_tfidf=True)
        raw = intra_set_similarity(table, use_tfidf=False)
        # Rows share the static "one"/"two" cell suffixes; raw TF sees
        # that shared content, TFIDF discounts it.
        assert raw > tfidf


class TestRankSubtreeSets:
    def test_sorted_ascending(self):
        ranked = rank_subtree_sets(build_sets(PAGES), n_pages=3)
        sims = [r.similarity for r in ranked]
        assert sims == sorted(sims)

    def test_order_identical_across_backends(self):
        # The sparse-vector reference scores similarities to ulp-level
        # differences from the matrix kernel; the quantized sort key
        # must keep the ranked order (and hence everything downstream)
        # identical under both.
        sets = build_sets(PAGES)
        reference = [
            id(r.subtree_set)
            for r in oracle_ranking.rank_subtree_sets(sets, n_pages=3)
        ]
        ranked = [id(r.subtree_set) for r in rank_subtree_sets(sets, n_pages=3)]
        assert ranked == reference

    def test_static_flagging(self):
        ranked = rank_subtree_sets(
            build_sets(PAGES), n_pages=3, static_similarity_threshold=0.5
        )
        for entry in ranked:
            assert entry.is_static == (entry.similarity > 0.5)

    def test_min_support_filters(self):
        ranked = rank_subtree_sets(
            build_sets(PAGES), n_pages=3, min_support=1.0
        )
        assert all(r.subtree_set.support == 3 for r in ranked)

    def test_dynamic_sets_helper(self):
        ranked = rank_subtree_sets(build_sets(PAGES), n_pages=3)
        dynamic = dynamic_sets(ranked)
        assert dynamic
        assert all(not d.is_static for d in dynamic)
        # The results table must be among the dynamic sets.
        assert any(
            d.subtree_set.prototype.shape.path.endswith("table") for d in dynamic
        )


class TestSelection:
    def test_selects_results_container(self):
        ranked = rank_subtree_sets(build_sets(PAGES), n_pages=3)
        scored = score_sets(dynamic_sets(ranked))
        winner = scored[0].ranked.subtree_set.prototype.shape.path
        assert winner.endswith("table")

    def test_winner_flagged_on_path(self):
        ranked = rank_subtree_sets(build_sets(PAGES), n_pages=3)
        scored = score_sets(dynamic_sets(ranked))
        assert scored[0].on_path

    def test_empty_input(self):
        assert score_sets([]) == []

    def test_no_containment_falls_back_to_largest(self):
        # Candidates directly under the (excluded) root: no candidate
        # contains another, so the largest dynamic region must win.
        pages = [
            Page(f"<html><p>{w} text <b>content</b> here</p><i>{w}</i></html>")
            for w in ("alpha", "beta", "gamma")
        ]
        ranked = rank_subtree_sets(build_sets(pages), n_pages=3)
        scored = score_sets(dynamic_sets(ranked))
        assert scored
        # The <p> subtree is larger than the <i> subtree.
        top_path = scored[0].ranked.subtree_set.prototype.shape.path
        assert "p" in top_path.rsplit("/", 1)[-1]
