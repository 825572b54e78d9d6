"""Incremental re-extraction: drift tiers, model reuse, digest parity.

The invariants under test (ISSUE: incremental re-extraction):

- with no template drift, an ``incremental=True`` rerun replays every
  page from the stored model and its result digest is **bitwise
  identical** to the full refit that seeded it — at ``--jobs 1`` and
  ``--jobs 4``, on every one of the seven deep-web genres;
- a content-only delta is assigned to the stored Phase-1 clusters
  without a refit, and the digest matches a from-scratch run over the
  same mutated corpus;
- structural drift past the threshold falls back to a full refit whose
  digest matches a cold run, counted as a drift event;
- the drift gate, fingerprints, and model bundle behave at the edges
  (mode overrides, unsupported configurations, containment math).
"""

from __future__ import annotations

import tempfile

import pytest

from hypothesis import given, settings, strategies as st

from repro.config import (
    ExecutionConfig,
    IncrementalConfig,
    ProbeConfig,
    RunOptions,
    ThorConfig,
)
from repro.core.page import Page
from repro.core.probing import QueryProber
from repro.core.thor import Thor
from repro.deepweb import make_site
from repro.deepweb.domains import DOMAINS
from repro.deepweb.templates import (
    TemplateDriftSource,
    mutate_page_structure,
    mutate_page_text,
)
from repro.incremental import (
    cluster_fingerprint,
    containment,
    fingerprint_drift,
    jaccard_similarity,
    load_model,
    page_content_key,
    page_fingerprint,
    site_identity,
)
from repro.io.export import result_digest

ALL_DOMAINS = sorted(DOMAINS)


def _config(cache_dir: str, jobs: int = 1, **overrides) -> ThorConfig:
    return ThorConfig(
        probing=ProbeConfig(dictionary_queries=12, nonsense_queries=2),
        seed=7,
        execution=ExecutionConfig(cache_dir=cache_dir, n_jobs=jobs),
        **overrides,
    )


def _site(domain: str):
    return make_site(domain=domain, seed=7, records=60)


def _drift_source(domain: str, mutate, n: int = 2):
    """The site with the first ``n`` probe terms' pages mutated —
    exactly the pages the run will fetch for those terms."""
    config = _config(cache_dir="")
    terms = QueryProber(config.probing, seed=config.seed).select_terms()
    return TemplateDriftSource(
        _site(domain), terms=terms[:n], mutate=mutate, seed=7
    )


#: (domain, variant) → (TemporaryDirectory, digest, seeding Thor, result).
#: The seeding Thor is kept alive so tests can re-publish the pristine
#: model after a refresh overwrote the (last-writer-wins) slot.
_SEEDED: dict = {}


def _seeded(domain: str, variant: str):
    key = (domain, variant)
    if key not in _SEEDED:
        tmp = tempfile.TemporaryDirectory()
        thor = Thor(_config(tmp.name))
        result = thor.run(_site(domain))
        _SEEDED[key] = (tmp, result_digest(result), thor, result)
    tmp, digest, thor, result = _SEEDED[key]
    assert thor.persist_model(result)
    return tmp.name, digest


#: (domain, mutator-name) → digest of a cold run over the drifted corpus.
_COLD_DRIFTED: dict = {}


def _cold_drifted_digest(domain: str, mutate) -> str:
    key = (domain, mutate.__name__)
    if key not in _COLD_DRIFTED:
        tmp = tempfile.TemporaryDirectory()
        result = Thor(_config(tmp.name)).run(_drift_source(domain, mutate))
        _COLD_DRIFTED[key] = (tmp, result_digest(result))
    return _COLD_DRIFTED[key][1]


class TestIncrementalInvariants:
    @settings(max_examples=10, deadline=None)
    @given(
        domain=st.sampled_from(ALL_DOMAINS), jobs=st.sampled_from([1, 4])
    )
    def test_no_drift_replay_is_bitwise_identical(self, domain, jobs):
        cache_dir, digest = _seeded(domain, "replay")
        thor = Thor(_config(cache_dir, jobs=jobs))
        result = thor.run(_site(domain), options=RunOptions(incremental=True))
        assert result_digest(result) == digest
        counters = thor.report().incremental
        assert counters.get("skipped", 0) == len(result.pages)
        assert counters.get("assigned", 0) == 0
        assert counters.get("refit", 0) == 0
        assert counters.get("model_misses", 0) == 0

    @settings(max_examples=10, deadline=None)
    @given(
        domain=st.sampled_from(ALL_DOMAINS), jobs=st.sampled_from([1, 4])
    )
    def test_drift_fallback_matches_cold_run(self, domain, jobs):
        cache_dir, _ = _seeded(domain, "drift")
        cold = _cold_drifted_digest(domain, mutate_page_structure)
        thor = Thor(_config(cache_dir, jobs=jobs))
        result = thor.run(
            _drift_source(domain, mutate_page_structure),
            options=RunOptions(incremental=True),
        )
        assert result_digest(result) == cold
        counters = thor.report().incremental
        assert counters.get("drift_events", 0) == 1
        assert counters.get("refit", 0) == len(result.pages)
        assert counters.get("skipped", 0) == 0

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_text_delta_assigns_without_refit(self, jobs):
        domain = "jobs"
        cache_dir, _ = _seeded(domain, f"text-{jobs}")
        cold = _cold_drifted_digest(domain, mutate_page_text)
        thor = Thor(_config(cache_dir, jobs=jobs))
        result = thor.run(
            _drift_source(domain, mutate_page_text),
            options=RunOptions(incremental=True),
        )
        assert result_digest(result) == cold
        counters = thor.report().incremental
        assert counters.get("assigned", 0) == 2
        assert counters.get("refit", 0) == 0
        assert counters.get("skipped", 0) == len(result.pages) - 2

    def test_resumed_incremental_run_matches_uninterrupted_and_cold(self):
        domain = "jobs"
        cache_dir, _ = _seeded(domain, "resumed")
        cold = _cold_drifted_digest(domain, mutate_page_text)
        uninterrupted = Thor(_config(cache_dir)).run(
            _drift_source(domain, mutate_page_text),
            options=RunOptions(run_id="nightly", incremental=True),
        )
        thor = Thor(_config(cache_dir))
        resumed = thor.run(
            _drift_source(domain, mutate_page_text),
            options=RunOptions(run_id="nightly", resume=True, incremental=True),
        )
        assert result_digest(uninterrupted) == cold
        assert result_digest(resumed) == cold
        assert "probe" in thor.report().resume_hits
        assert thor.report().incremental.get("refit", 0) == 0


class TestDriftModes:
    def test_mode_refit_never_touches_the_model(self):
        domain = "music"
        cache_dir, digest = _seeded(domain, "mode-refit")
        config = _config(
            cache_dir, incremental=IncrementalConfig(mode="refit")
        )
        thor = Thor(config)
        result = thor.run(_site(domain), options=RunOptions(incremental=True))
        assert result_digest(result) == digest
        counters = thor.report().incremental
        assert counters.get("refit", 0) == len(result.pages)
        assert counters.get("skipped", 0) == 0

    def test_mode_assign_rides_through_structural_drift(self):
        domain = "music"
        cache_dir, _ = _seeded(domain, "mode-assign")
        config = _config(
            cache_dir, incremental=IncrementalConfig(mode="assign")
        )
        thor = Thor(config)
        thor.run(
            _drift_source(domain, mutate_page_structure),
            options=RunOptions(incremental=True),
        )
        counters = thor.report().incremental
        assert counters.get("assigned", 0) == 2
        assert counters.get("refit", 0) == 0
        assert counters.get("drift_events", 0) == 0

    def test_threshold_zero_makes_any_delta_a_refit(self):
        domain = "music"
        cache_dir, _ = _seeded(domain, "threshold")
        config = _config(
            cache_dir, incremental=IncrementalConfig(drift_threshold=0.0)
        )
        thor = Thor(config)
        result = thor.run(
            _drift_source(domain, mutate_page_structure),
            options=RunOptions(incremental=True),
        )
        counters = thor.report().incremental
        assert counters.get("drift_events", 0) == 1
        assert counters.get("refit", 0) == len(result.pages)

    def test_bad_incremental_config_refuses(self):
        with pytest.raises(ValueError):
            IncrementalConfig(drift_threshold=1.5)
        with pytest.raises(ValueError):
            IncrementalConfig(mode="sometimes")


class TestModelBundle:
    def test_run_persists_a_loadable_model(self, tmp_path):
        config = _config(str(tmp_path))
        thor = Thor(config)
        result = thor.run(_site("library"))
        from repro.resilience import config_fingerprint
        from repro.runtime import artifact_store_for

        store = artifact_store_for(config.execution)
        model = load_model(
            store,
            site_identity([p.url for p in result.pages]),
            config_fingerprint(config),
        )
        assert model is not None
        assert model.page_keys == tuple(
            page_content_key(p.html) for p in result.pages
        )
        assert len(model.labels) == len(result.pages)
        assert model.centroids.shape == (model.k, len(model.vocabulary))
        assert len(model.fingerprints) == model.k
        # Every cluster record replays against keys the model knows.
        known = set(model.page_keys)
        for record in model.clusters:
            assert set(record.page_keys) <= known

    def test_unsupported_configuration_never_persists(self, tmp_path):
        from dataclasses import replace

        base = _config(str(tmp_path))
        config = replace(
            base, clustering=replace(base.clustering, configuration="size")
        )
        thor = Thor(config)
        thor.run(_site("library"))
        rerun = Thor(config)
        result = rerun.run(
            _site("library"), options=RunOptions(incremental=True)
        )
        counters = rerun.report().incremental
        # No model to reuse: the rerun is an honest, counted full refit.
        assert counters.get("model_misses", 0) == 1
        assert counters.get("refit", 0) == len(result.pages)

    def test_quarantined_first_page_keeps_the_slot(self, tmp_path):
        """URLs without a netloc name the site by the first URL's hash,
        so the slot must come from the input pages: the surviving ones
        would name another slot whenever the first page is quarantined."""
        from repro.deepweb import generate_corpus
        from repro.errors import HtmlParseError

        class ExplodingPage(Page):
            def tag_counts(self):
                raise HtmlParseError("injected pathological page")

        sample = generate_corpus(n_sites=1, seed=9, domains=["movies"])[0]

        def pages():
            bad = ExplodingPage(
                "<html><body><p>bad</p></body></html>", url="search?q=bad"
            )
            return [bad] + [
                Page(page.html, url=f"search?q={index}", query=page.query)
                for index, page in enumerate(list(sample.pages)[:24])
            ]

        config = ThorConfig(
            seed=1, execution=ExecutionConfig(cache_dir=str(tmp_path))
        )
        first = Thor(config).refresh(pages())
        thor = Thor(config)
        second = thor.refresh(pages())
        counters = thor.report().incremental
        assert counters.get("model_misses", 0) == 0
        assert counters.get("refit", 0) == 0
        assert counters.get("skipped", 0) == 24
        assert result_digest(second) == result_digest(first)
        # The page pack sits in the same site's slot: every page that
        # survived came from it.
        assert thor.artifact_stats()["puts"] == 1  # the model only


class TestFingerprints:
    def _tree(self, html: str):
        return Page(html).tree

    def test_text_change_keeps_fingerprint(self):
        a = self._tree("<html><body><p>one</p></body></html>")
        b = self._tree("<html><body><p>two words now</p></body></html>")
        assert page_fingerprint(a) == page_fingerprint(b)

    def test_structural_change_moves_fingerprint(self):
        a = self._tree("<html><body><p>one</p></body></html>")
        b = self._tree(
            "<html><body><blockquote><p>one</p></blockquote></body></html>"
        )
        assert page_fingerprint(a) != page_fingerprint(b)

    def test_repeated_positions_collapse(self):
        a = self._tree("<html><body><ul><li>x</li></ul></body></html>")
        b = self._tree(
            "<html><body><ul><li>x</li><li>y</li><li>z</li></ul></body></html>"
        )
        assert page_fingerprint(a) == page_fingerprint(b)

    def test_containment_and_jaccard_edges(self):
        empty = frozenset()
        some = frozenset({1, 2, 3, 4})
        assert containment(empty, some) == 1.0
        assert containment(some, some) == 1.0
        assert containment(some, frozenset({1, 2})) == 0.5
        assert jaccard_similarity(empty, empty) == 1.0
        assert jaccard_similarity(some, some) == 1.0

    def test_small_page_in_big_cluster_does_not_drift(self):
        # The error-stub case: every path known, cluster much larger.
        page = frozenset({1, 2})
        cluster = frozenset(range(100))
        assert fingerprint_drift(page, [cluster]) == 0.0

    def test_no_clusters_is_maximal_drift(self):
        assert fingerprint_drift(frozenset({1}), []) == 1.0

    def test_cluster_fingerprint_is_the_union(self):
        assert cluster_fingerprint(
            [frozenset({1}), frozenset({2, 3})]
        ) == frozenset({1, 2, 3})


class TestMutators:
    def test_text_mutation_is_content_only(self):
        html = _site("jobs").query("engineer").html
        mutated = mutate_page_text(html, seed=1)
        assert mutated != html
        assert page_fingerprint(Page(html).tree) == page_fingerprint(
            Page(mutated).tree
        )
        assert page_content_key(mutated) != page_content_key(html)

    def test_structure_mutation_displaces_paths(self):
        html = _site("jobs").query("engineer").html
        mutated = mutate_page_structure(html, seed=1)
        before = page_fingerprint(Page(html).tree)
        after = page_fingerprint(Page(mutated).tree)
        assert fingerprint_drift(after, [before]) > 0.5

    def test_drift_source_only_touches_selected_terms(self):
        source = _drift_source("jobs", mutate_page_text, n=2)
        config = _config(cache_dir="")
        terms = QueryProber(config.probing, seed=config.seed).select_terms()
        base = _site("jobs")
        assert source.query(terms[0]).html != base.query(terms[0]).html
        assert source.query(terms[5]).html == base.query(terms[5]).html
