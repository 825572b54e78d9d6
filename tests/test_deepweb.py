"""Tests for the deep-web simulation substrate."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.deepweb import (
    LabeledPage,
    Record,
    SearchableDatabase,
    SimulatedDeepWebSite,
    generate_corpus,
    make_site,
)
from repro.deepweb.corpus import class_distribution, probe_site
from repro.deepweb.domains import DOMAINS, get_domain
from repro.deepweb.site import (
    CLASS_MULTI,
    CLASS_NOMATCH,
    CLASS_SINGLE,
    _gold_paths,
)
from repro.errors import SiteGenerationError
from repro.html import parse, resolve_path


class TestRecordsAndDomains:
    def test_all_domains_present(self):
        assert set(DOMAINS) == {
            "ecommerce", "music", "library", "jobs", "realestate",
            "travel", "movies",
        }

    @pytest.mark.parametrize("name", sorted(DOMAINS))
    def test_records_generated_with_fields(self, name):
        spec = get_domain(name)
        records = spec.generate_records(20, seed=1)
        assert len(records) == 20
        for record in records:
            assert record.searchable_text()
            assert record.get("blurb")

    def test_unknown_domain_raises(self):
        with pytest.raises(KeyError):
            get_domain("astrology")

    def test_records_deterministic(self):
        spec = get_domain("music")
        a = spec.generate_records(5, seed=3)
        b = spec.generate_records(5, seed=3)
        assert [r.fields for r in a] == [r.fields for r in b]

    def test_rare_words_unique_per_record(self):
        spec = get_domain("jobs")
        records = spec.generate_records(50, seed=0)
        db = SearchableDatabase(records)
        singles = sum(1 for c in db.selectivity_histogram().items() if c[0] == 1)
        assert singles >= 1

    def test_too_many_records_raises(self):
        spec = get_domain("library")
        with pytest.raises(SiteGenerationError):
            spec.generate_records(100, seed=0, dictionary=["a", "b", "c"])

    def test_negative_count_raises(self):
        with pytest.raises(SiteGenerationError):
            get_domain("music").generate_records(-1)

    def test_record_getitem(self):
        record = Record(0, {"title": "x"})
        assert record["title"] == "x"
        assert record.get("missing", "d") == "d"


class TestSearchableDatabase:
    def records(self):
        return [
            Record(0, {"title": "red camera", "blurb": "portable zoom"}),
            Record(1, {"title": "blue camera", "blurb": "compact"}),
            Record(2, {"title": "green phone", "blurb": "compact"}),
        ]

    def test_query_exact_word(self):
        db = SearchableDatabase(self.records())
        assert [r.record_id for r in db.query("camera")] == [0, 1]

    def test_query_case_insensitive(self):
        db = SearchableDatabase(self.records())
        assert db.match_count("CAMERA") == 2

    def test_query_no_match(self):
        db = SearchableDatabase(self.records())
        assert db.query("zeppelin") == []

    def test_query_multiword_conjunctive(self):
        db = SearchableDatabase(self.records())
        assert [r.record_id for r in db.query("compact camera")] == [1]

    def test_query_empty_string(self):
        db = SearchableDatabase(self.records())
        assert db.query("") == []

    def test_empty_database_raises(self):
        with pytest.raises(SiteGenerationError):
            SearchableDatabase([])

    def test_vocabulary(self):
        db = SearchableDatabase(self.records())
        assert "camera" in db.vocabulary()

    def test_selectivity_histogram(self):
        db = SearchableDatabase(self.records())
        hist = db.selectivity_histogram()
        assert hist[2] >= 2  # camera, compact


class TestSimulatedSite:
    def test_nomatch_for_nonsense(self):
        site = make_site("ecommerce", seed=1)
        page = site.query("zzzqqqxxx")
        assert page.class_label == CLASS_NOMATCH
        assert page.gold_pagelet_path is None
        assert not page.has_pagelet

    def test_single_match_page(self):
        site = make_site("ecommerce", seed=1, error_rate=0.0)
        word = next(
            w for w, c in (
                (w, site.database.match_count(w))
                for w in site.database.vocabulary()
            ) if c == 1
        )
        page = site.query(word)
        assert page.class_label == CLASS_SINGLE
        assert page.gold_pagelet_path
        assert page.gold_object_paths == (page.gold_pagelet_path,)

    def test_multi_match_page(self):
        site = make_site("ecommerce", seed=1, error_rate=0.0)
        word = next(
            w for w in site.database.vocabulary()
            if site.database.match_count(w) >= 3
        )
        page = site.query(word)
        assert page.class_label == CLASS_MULTI
        assert len(page.gold_object_paths) >= 2

    def test_gold_paths_resolve(self):
        site = make_site("music", seed=5, error_rate=0.0)
        word = next(
            w for w in site.database.vocabulary()
            if site.database.match_count(w) >= 2
        )
        page = site.query(word)
        tree = parse(page.html)
        container = resolve_path(tree, page.gold_pagelet_path)
        assert container.get("id") == site.theme.results_id
        for path in page.gold_object_paths:
            node = resolve_path(tree, path)
            assert node.get("class") == "item"

    def test_multi_capped_at_max_results(self):
        site = make_site("library", seed=2, error_rate=0.0)
        common = max(
            site.database.vocabulary(),
            key=lambda w: site.database.match_count(w),
        )
        page = site.query(common)
        assert len(page.gold_object_paths) <= site.theme.max_results

    def test_error_pages_deterministic(self):
        site = make_site("jobs", seed=3, error_rate=0.5)
        a = site.query("camera").class_label
        b = site.query("camera").class_label
        assert a == b

    def test_error_rate_zero_never_errors(self):
        site = make_site("jobs", seed=3, error_rate=0.0)
        for word in ["alpha", "beta", "gamma", "delta"]:
            assert site.query(word).class_label != "error"

    def test_url_contains_query(self):
        site = make_site("ecommerce", seed=1)
        page = site.query("apple")
        assert "q=apple" in page.url

    def test_page_deterministic(self):
        site_a = make_site("ecommerce", seed=1)
        site_b = make_site("ecommerce", seed=1)
        assert site_a.query("apple").html == site_b.query("apple").html

    def test_different_seeds_different_themes(self):
        themes = {make_site("ecommerce", seed=s).theme.result_style for s in range(8)}
        assert len(themes) > 1


class TestCorpus:
    def test_probe_site_yields_labeled_pages(self):
        site = make_site("music", seed=4)
        sample = probe_site(site, seed=4)
        assert len(sample.pages) > 100
        assert all(isinstance(p, LabeledPage) for p in sample.pages)

    def test_class_mix_contains_all_main_classes(self):
        site = make_site("ecommerce", seed=4)
        sample = probe_site(site, seed=4)
        counts = Counter(sample.classes)
        assert counts[CLASS_NOMATCH] > 0
        assert counts[CLASS_SINGLE] > 0
        assert counts[CLASS_MULTI] > 0

    def test_pagelet_pages_filter(self):
        site = make_site("ecommerce", seed=4)
        sample = probe_site(site, seed=4)
        assert all(p.has_pagelet for p in sample.pagelet_pages())

    def test_generate_corpus_shapes(self):
        samples = generate_corpus(n_sites=5, seed=9)
        assert len(samples) == 5
        domains = {s.site.domain.name for s in samples}
        assert len(domains) == 5  # cycles through all five domains

    def test_class_distribution_sums_to_one(self):
        samples = generate_corpus(n_sites=3, seed=9)
        dist = class_distribution(samples)
        assert abs(sum(dist.values()) - 1.0) < 1e-9

    def test_class_distribution_empty(self):
        assert class_distribution([]) == {}


class TestLazyGoldLabels:
    """Answer pages label themselves from their own tree on first
    read, so the simulator no longer parses each one a second time."""

    @staticmethod
    def expected(page, site):
        pagelet, objects = _gold_paths(parse(page.html), site.theme.results_id)
        if page.class_label == CLASS_SINGLE and pagelet is not None:
            objects = (pagelet,)
        return pagelet, objects

    def run(self, domain, tmp_path=None):
        from repro import api
        from repro.config import ProbeConfig

        execution = (
            api.ExecutionConfig(artifact_cache="off")
            if tmp_path is None
            else api.ExecutionConfig(cache_dir=str(tmp_path))
        )
        config = api.ThorConfig(
            seed=4,
            execution=execution,
            probing=ProbeConfig(dictionary_queries=40, nonsense_queries=4),
        )
        site = make_site(domain, seed=4)
        return site, api.run(site, config)

    @pytest.mark.parametrize("domain", sorted(DOMAINS))
    def test_labels_after_a_run_match_a_fresh_parse(self, domain):
        site, result = self.run(domain)
        labelled = 0
        for page in result.pages:
            assert isinstance(page, LabeledPage)
            got = (page.gold_pagelet_path, page.gold_object_paths)
            assert got == self.expected(page, site)
            labelled += got[0] is not None
        assert labelled > 0

    def test_labels_from_a_tree_loaded_from_the_store(self, tmp_path):
        from repro.runtime import clear_artifact_store_registry

        self.run("travel", tmp_path)
        clear_artifact_store_registry()
        site, warm = self.run("travel", tmp_path)
        for page in warm.pages:
            got = (page.gold_pagelet_path, page.gold_object_paths)
            assert got == self.expected(page, site)

    def test_nothing_is_parsed_until_a_label_is_read(self):
        site = make_site("music", seed=5, error_rate=0.0)
        word = next(
            w for w in site.database.vocabulary()
            if site.database.match_count(w) >= 2
        )
        page = site.query(word)
        assert page._tree is None
        assert page.gold_pagelet_path is not None
        assert page._tree is not None
