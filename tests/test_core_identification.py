"""Integration tests for Phase-2 identification on simulated clusters."""

from __future__ import annotations

import pytest

from repro.config import SubtreeConfig
from repro.core.identification import PageletIdentifier
from repro.core.page import Page
from repro.deepweb import make_site
from repro.deepweb.corpus import probe_site
from repro.errors import ExtractionError


@pytest.fixture(scope="module")
def sample():
    return probe_site(make_site("ecommerce", seed=13, error_rate=0.0), seed=13)


def cluster_of(sample, label):
    return [p for p in sample.pages if p.class_label == label]


class TestIdentifyOnRealClusters:
    def test_multi_cluster_extracts_gold_pagelets(self, sample):
        pages = cluster_of(sample, "multi")
        assert len(pages) >= 2
        result = PageletIdentifier(SubtreeConfig(), seed=13).identify(pages)
        assert len(result.pagelets) == len(pages)
        correct = sum(
            1 for p in result.pagelets if p.path == p.page.gold_pagelet_path
        )
        # Per-page template jitter (an extra wrapper on some pages)
        # can cost one wrapper level on those pages; the bulk must be
        # exact.
        assert correct / len(result.pagelets) >= 0.75

    def test_single_cluster_extracts_gold_pagelets(self, sample):
        pages = cluster_of(sample, "single")
        result = PageletIdentifier(SubtreeConfig(), seed=13).identify(pages)
        correct = sum(
            1 for p in result.pagelets if p.path == p.page.gold_pagelet_path
        )
        assert correct / max(1, len(result.pagelets)) >= 0.8

    def test_pagelets_annotated_with_contained_paths(self, sample):
        pages = cluster_of(sample, "multi")
        result = PageletIdentifier(SubtreeConfig(), seed=13).identify(pages)
        # Result rows are dynamic, so multi pagelets must carry
        # QA-Object recommendations.
        annotated = [p for p in result.pagelets if p.contained_dynamic_paths]
        assert len(annotated) >= len(result.pagelets) // 2

    def test_ranked_sets_exposed_sorted(self, sample):
        pages = cluster_of(sample, "multi")
        result = PageletIdentifier(SubtreeConfig(), seed=13).identify(pages)
        # Ordering is by quantized similarity: ulp-level ties keep
        # discovery order, so compare at the sort's precision.
        from repro.core.subtree_ranking import _SORT_PRECISION

        sims = [round(r.similarity, _SORT_PRECISION) for r in result.ranked_sets]
        assert sims == sorted(sims)

    def test_pagelet_for_lookup(self, sample):
        pages = cluster_of(sample, "multi")
        result = PageletIdentifier(SubtreeConfig(), seed=13).identify(pages)
        found = result.pagelet_for(0)
        assert found is None or found.page is pages[0]

    def test_deterministic(self, sample):
        pages = cluster_of(sample, "multi")
        a = PageletIdentifier(SubtreeConfig(), seed=13).identify(pages)
        b = PageletIdentifier(SubtreeConfig(), seed=13).identify(pages)
        assert [p.path for p in a.pagelets] == [p.path for p in b.pagelets]


class TestEdgeCases:
    def test_empty_cluster_raises(self):
        with pytest.raises(ExtractionError):
            PageletIdentifier().identify([])

    def test_contentless_cluster_yields_no_pagelets(self):
        pages = [Page("<html><body></body></html>") for _ in range(3)]
        result = PageletIdentifier(seed=0).identify(pages)
        assert result.pagelets == ()

    def test_single_page_cluster(self, sample):
        pages = cluster_of(sample, "multi")[:1]
        result = PageletIdentifier(SubtreeConfig(), seed=13).identify(pages)
        # One page gives no cross-page contrast: sets are all
        # singletons (similarity 1.0 → static) so nothing is extracted.
        assert isinstance(result.pagelets, tuple)

    def test_identical_pages_cluster(self):
        html = (
            "<html><body><table><tr><td>same</td></tr>"
            "<tr><td>rows</td></tr></table></body></html>"
        )
        pages = [Page(html) for _ in range(4)]
        result = PageletIdentifier(seed=0).identify(pages)
        # Identical pages have no dynamic content at all.
        assert result.pagelets == ()
