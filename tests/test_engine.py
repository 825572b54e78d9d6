"""Tests for the deep-web search-engine layer."""

from __future__ import annotations

import pytest

from repro.config import ExecutionConfig, ProbeConfig, ThorConfig
from repro.deepweb import make_site
from repro.engine import DeepWebSearchEngine, InvertedIndex, ObjectDocument
from repro.errors import ThorError


def doc(doc_id, text, site="s.example.com", query="q"):
    return ObjectDocument.build(
        doc_id=doc_id,
        site=site,
        probe_query=query,
        path="html/body/table/tr",
        page_url=f"http://{site}/?q={query}",
        text=text,
    )


class TestObjectDocument:
    def test_terms_extracted_at_build(self):
        d = doc(0, "Connected cameras")
        assert d.term_counts == {"connect": 1, "camera": 1}

    def test_snippet_truncates(self):
        d = doc(0, "word " * 50)
        assert len(d.snippet(30)) == 30
        assert d.snippet(30).endswith("...")

    def test_snippet_short_text(self):
        assert doc(0, "short").snippet() == "short"

    def test_snippet_collapses_whitespace(self):
        assert doc(0, "a   b\n\nc").snippet() == "a b c"


class TestInvertedIndex:
    def test_add_and_len(self):
        index = InvertedIndex()
        index.add(doc(0, "alpha"))
        index.add(doc(1, "beta"))
        assert len(index) == 2
        assert 0 in index
        assert 99 not in index

    def test_search_ranks_matching_first(self):
        index = InvertedIndex()
        index.add(doc(0, "sony camera cheap"))
        index.add(doc(1, "red bicycle"))
        index.add(doc(2, "camera camera camera bag"))
        hits = index.search("camera")
        ids = [h.document.doc_id for h in hits]
        assert set(ids) == {0, 2}
        assert all(h.score > 0 for h in hits)

    def test_search_no_match(self):
        index = InvertedIndex()
        index.add(doc(0, "alpha"))
        assert index.search("zzz") == []

    def test_search_empty_index(self):
        assert InvertedIndex().search("alpha") == []

    def test_search_empty_query(self):
        index = InvertedIndex()
        index.add(doc(0, "alpha"))
        assert index.search("   !!!") == []

    def test_query_stemming_matches_documents(self):
        index = InvertedIndex()
        index.add(doc(0, "connected devices"))
        assert index.search("connections")

    def test_multi_term_query_prefers_both(self):
        index = InvertedIndex()
        index.add(doc(0, "sony camera"))
        index.add(doc(1, "sony radio"))
        hits = index.search("sony camera")
        assert hits[0].document.doc_id == 0

    def test_top_k_limit(self):
        index = InvertedIndex()
        for i in range(20):
            index.add(doc(i, f"camera model {i}"))
        assert len(index.search("camera", top_k=5)) == 5

    def test_remove(self):
        index = InvertedIndex()
        index.add(doc(0, "alpha"))
        index.remove(0)
        assert len(index) == 0
        assert index.search("alpha") == []
        index.remove(0)  # idempotent

    def test_re_add_replaces(self):
        index = InvertedIndex()
        index.add(doc(0, "alpha"))
        index.add(doc(0, "beta"))
        assert len(index) == 1
        assert index.search("alpha") == []
        assert index.search("beta")

    def test_scores_bounded(self):
        index = InvertedIndex()
        index.add(doc(0, "camera"))
        hits = index.search("camera")
        assert 0.0 < hits[0].score <= 1.0 + 1e-9

    def test_vocabulary_size(self):
        index = InvertedIndex()
        index.add(doc(0, "alpha beta"))
        assert index.vocabulary_size() == 2

    def test_postings_diagnostics(self):
        index = InvertedIndex()
        index.add(doc(0, "alpha alpha"))
        assert index.postings("alpha") == {0: 2}


@pytest.fixture(scope="module")
def engine():
    eng = DeepWebSearchEngine(ThorConfig(seed=3))
    eng.register(make_site("ecommerce", seed=3))
    eng.register(make_site("library", seed=6))
    return eng


class TestDeepWebSearchEngine:
    def test_registration_summaries(self, engine):
        assert len(engine.sites) == 2
        for site in engine.sites:
            summary = engine.summary(site)
            assert summary.pages_probed == 110
            assert summary.objects_indexed > 0

    def test_unknown_site_raises(self, engine):
        with pytest.raises(ThorError):
            engine.summary("nowhere.example.com")

    def test_content_search_returns_provenance(self, engine):
        hits = engine.search("camera", top_k=5)
        assert hits
        for hit in hits:
            assert hit.document.site in engine.sites
            assert hit.document.page_url

    def test_site_filter(self, engine):
        site = engine.sites[0]
        hits = engine.search("the", top_k=5, site=site)
        assert all(h.document.site == site for h in hits)

    def test_site_level_search(self, engine):
        site_hits = engine.search_sites("camera")
        assert site_hits
        assert site_hits[0].matching_objects >= 1
        scores = [s.score for s in site_hits]
        assert scores == sorted(scores, reverse=True)

    def test_deduplication(self):
        eng = DeepWebSearchEngine(ThorConfig(seed=5), deduplicate=True)
        eng.register(make_site("jobs", seed=5))
        texts = [
            eng.search("the", top_k=50)[i].document.text
            for i in range(min(10, len(eng.search("the", top_k=50))))
        ]
        assert len(texts) == len(set(texts))

    def test_engine_len(self, engine):
        assert len(engine) > 0


class TestRegisterIncrementalCounters:
    """``register`` routes through the incremental refresh path and
    surfaces the drift-tier counters on the site summary."""

    def _config(self, cache_dir=None):
        return ThorConfig(
            seed=7,
            probing=ProbeConfig(dictionary_queries=12, nonsense_queries=2),
            execution=ExecutionConfig(
                cache_dir=str(cache_dir) if cache_dir else None
            ),
        )

    def test_re_registration_replays_from_the_model(self, tmp_path):
        eng = DeepWebSearchEngine(self._config(tmp_path))
        site = lambda: make_site("jobs", seed=7, records=60)  # noqa: E731
        first = eng.register(site())
        # Cold cache: the first registration is a counted full fit.
        assert first.pages_refit == first.pages_probed > 0
        assert first.pages_skipped == 0
        assert first.pages_assigned == 0
        second = eng.register(site())
        # Unchanged site: every page replays from the stored model.
        assert second.pages_skipped == second.pages_probed
        assert second.pages_refit == 0
        assert second.pages_assigned == 0

    def test_without_a_store_every_registration_refits(self):
        eng = DeepWebSearchEngine(self._config())
        site = lambda: make_site("jobs", seed=7, records=60)  # noqa: E731
        for _ in range(2):
            summary = eng.register(site())
            assert summary.pages_refit == summary.pages_probed > 0
            assert summary.pages_skipped == 0


class TestHighlightedSnippet:
    def test_stem_based_highlighting(self):
        d = doc(0, "a compact digital camera bundle")
        assert d.highlighted_snippet("cameras") == (
            "a compact digital **camera** bundle"
        )

    def test_no_match_falls_back_to_plain_snippet(self):
        d = doc(0, "red bicycle")
        assert d.highlighted_snippet("camera") == "red bicycle"

    def test_custom_marker(self):
        d = doc(0, "sony camera")
        assert "<em>camera</em>" in d.highlighted_snippet(
            "camera", marker="<em>"
        ).replace("<em>camera<em>", "<em>camera</em>")

    def test_window_centred_on_first_match(self):
        filler = "word " * 40
        d = doc(0, filler + "camera " + filler)
        snippet = d.highlighted_snippet("camera", limit=50)
        assert "**camera**" in snippet
        assert len(snippet) <= 53

    def test_multiple_matches_marked(self):
        d = doc(0, "camera bag for camera lovers")
        snippet = d.highlighted_snippet("camera", limit=200)
        assert snippet.count("**camera**") == 2

    def test_punctuation_adjacent_match(self):
        d = doc(0, "the camera, priced right")
        assert "**camera,**" in d.highlighted_snippet("camera")
