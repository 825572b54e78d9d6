"""Bitwise-equivalence tests for Phase 2 and the store-backed site run.

Phase 2 runs on node-free candidate records, built in the driving
process at any ``n_jobs`` from the page trees, with the run's stem
memo. The hard invariant under test: a site run through the persistent
artifact store produces *bitwise identical* output to the plain
serial, storeless run — ``n_jobs=2`` == serial and cold == warm ==
storeless, on every deep-web domain; a page pack entry never serves a
changed page; and processes publishing one site into one store
concurrently (fleet workers do) leave it readable and exact. The
records themselves must replay what the live DOM would decide.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile

import pytest

from hypothesis import given, settings, strategies as st

from repro import api
from repro.config import ExecutionConfig, ProbeConfig, SubtreeConfig
from repro.core.identification import PageletIdentifier
from repro.core.page import Page
from repro.core.selection import _has_similar_dom_siblings
from repro.core.single_page import (
    candidate_records_for_cluster,
    candidate_subtrees,
    candidate_subtrees_for_cluster,
)
from repro.core.subtree_ranking import rank_subtree_sets
from repro.core.subtree_sets import (
    find_common_subtree_sets,
    make_candidate,
    make_candidate_from_record,
)
from repro.core.thor import Thor
from repro.deepweb import generate_corpus
from repro.deepweb.domains import DOMAINS
from repro.deepweb.templates import mutate_page_structure, mutate_page_text
from repro.html.paths import TagCodec
from repro.io.export import result_digest as run_digest
from tests.oracles.records import candidate_record
from tests.oracles.selection import has_similar_dom_siblings


ALL_DOMAINS = sorted(DOMAINS)  # all seven deep-web domains


def cluster_pages(domain: str, seed: int = 2, n: int = 10):
    """A fresh cluster of probe-result pages from one simulated site."""
    sample = generate_corpus(n_sites=1, seed=seed, domains=[domain])[0]
    return list(sample.pages)[:n]


def result_digest(pages, result) -> str:
    """A canonical digest of everything Phase 2 decided.

    Floats go through ``repr`` (shortest round-trip form), so two
    results digest equal iff they are bitwise equal.
    """
    index_of = {id(page): i for i, page in enumerate(pages)}
    payload = {
        "pagelets": [
            [
                index_of[id(p.page)],
                p.path,
                p.rank,
                repr(p.score),
                list(p.contained_dynamic_paths),
                list(p.contained_static_paths),
                p.html(),
            ]
            for p in result.pagelets
        ],
        "ranked": [
            [r.subtree_set.support, repr(r.similarity), r.is_static]
            for r in result.ranked_sets
        ],
        "scored": [repr(s.score) for s in result.scored_sets],
    }
    blob = json.dumps(payload, ensure_ascii=False, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.fixture(autouse=True)
def fresh_caches():
    from repro.core.subtree_sets import clear_quad_matrix_memo
    from repro.runtime import clear_artifact_store_registry, clear_space_cache

    def reset():
        clear_space_cache()
        clear_artifact_store_registry()
        clear_quad_matrix_memo()

    reset()
    yield reset
    reset()


def identify(pages, execution=None, stems=None):
    # The prototype-page draw is seeded: an unseeded identifier would
    # make the two runs we compare diverge for reasons unrelated to
    # the record machinery under test.
    return PageletIdentifier(
        SubtreeConfig(), seed=0, execution=execution
    ).identify(pages, stems)


#: A smaller probe sample than the default 110 keeps each site run
#: quick; every stage still runs.
PROBES = ProbeConfig(dictionary_queries=24, nonsense_queries=4)


def site_run(domain, execution, seed=3):
    """``api.run`` of one site: its digest and the store's counters."""
    from repro.runtime import clear_artifact_store_registry

    clear_artifact_store_registry()  # each run reads the disk afresh
    thor = Thor(api.ThorConfig(seed=seed, probing=PROBES, execution=execution))
    result = thor.run(api.make_site(domain, seed=seed))
    return run_digest(result), thor.artifact_stats()


def extract_digest(pages, execution) -> str:
    """Stages 2-3 over fresh copies of ``pages``."""
    thor = Thor(api.ThorConfig(seed=1, execution=execution))
    copies = [Page(p.html, url=p.url, query=p.query) for p in pages]
    return run_digest(thor.partition(thor.extract(copies)))


class TestRecordPipeline:
    def test_records_match_nodes_without_cache(self):
        pages = cluster_pages("music", n=4)
        from_nodes = [
            [candidate_record(n) for n in page_nodes]
            for page_nodes in candidate_subtrees_for_cluster(pages)
        ]
        assert candidate_records_for_cluster(pages) == from_nodes

    @settings(max_examples=2, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=3))
    def test_records_replay_the_live_dom(self, seed):
        for domain in ALL_DOMAINS:
            pages = cluster_pages(domain, seed=seed, n=6)
            # A record-backed candidate equals the node-backed one in
            # shape and code path, with codecs fed in the same order.
            node_codec, record_codec = TagCodec(1), TagCodec(1)
            for page_index, page in enumerate(pages):
                for node in candidate_subtrees(page):
                    live = make_candidate(page_index, node, node_codec)
                    replayed = make_candidate_from_record(
                        page_index, candidate_record(node), record_codec
                    )
                    assert replayed.shape == live.shape
                    assert replayed.code_path == live.code_path
            # The repeating-unit vote replayed from sibling snapshots
            # agrees with the vote over the members' live DOM siblings.
            sets = find_common_subtree_sets(
                candidate_records_for_cluster(pages), seed=0
            )
            ranked = rank_subtree_sets(sets, n_pages=len(pages))
            assert ranked
            for entry in ranked:
                assert _has_similar_dom_siblings(entry, 0.2) == (
                    has_similar_dom_siblings(entry, pages, 0.2)
                )


class TestBitwiseEquivalence:
    @settings(max_examples=7, deadline=None)
    @given(
        domain=st.sampled_from(ALL_DOMAINS),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_storeless_matches_store_on_every_domain(
        self, domain, seed, tmp_path_factory
    ):
        # Phase 2 with a stem memo the run's quarantine scan filled
        # equals Phase 2 with none: a memo never changes a result.
        pages = cluster_pages(domain, seed=seed, n=8)
        baseline = result_digest(pages, identify(pages))
        stems: dict[str, str] = {}
        scanned = cluster_pages(domain, seed=seed, n=8)
        for page in scanned:
            page.term_counts(stems)
        assert stems
        assert result_digest(scanned, identify(scanned, stems=stems)) == baseline
        # Stages 2-3 storeless, cold into a store, and warm from it.
        storeless = extract_digest(pages, ExecutionConfig(artifact_cache="off"))
        root = tmp_path_factory.mktemp(f"store-{domain}-{seed}")
        execution = ExecutionConfig(cache_dir=str(root))
        assert extract_digest(pages, execution) == storeless
        assert extract_digest(pages, execution) == storeless

    @pytest.mark.parametrize("domain", ALL_DOMAINS)
    def test_parallel_matches_serial(self, domain):
        pages = cluster_pages(domain, n=8)
        baseline = result_digest(pages, identify(pages))
        parallel = result_digest(
            pages, identify(pages, ExecutionConfig(n_jobs=2))
        )
        assert parallel == baseline

    def test_warm_equals_cold_with_hits(self, tmp_path):
        for domain in ALL_DOMAINS:
            execution = ExecutionConfig(cache_dir=str(tmp_path / domain))
            storeless, _ = site_run(domain, ExecutionConfig(artifact_cache="off"))
            cold, cold_stats = site_run(domain, execution)
            warm, warm_stats = site_run(domain, execution)
            assert cold == warm == storeless, domain
            # Cold: the pack misses, then the model and the pack
            # publish. Warm: the pack hits and only the model publishes.
            assert (cold_stats["hits"], cold_stats["puts"]) == (0, 2), domain
            assert (warm_stats["hits"], warm_stats["misses"]) == (1, 0), domain
            assert warm_stats["puts"] == 1, domain

    def test_warm_parallel_matches_too(self, tmp_path):
        storeless, _ = site_run("jobs", ExecutionConfig(artifact_cache="off"))
        cold, _ = site_run("jobs", ExecutionConfig(cache_dir=str(tmp_path)))
        warm, stats = site_run(
            "jobs", ExecutionConfig(n_jobs=2, cache_dir=str(tmp_path))
        )
        assert cold == warm == storeless
        assert stats["hits"] == 1 and stats["misses"] == 0


#: domain → (TemporaryDirectory holding a cold run's store, its pages).
_PREVIOUS_RUNS: dict = {}


def _previous_run(domain: str):
    """A store a cold run over the site's first 24 pages filled."""
    if domain not in _PREVIOUS_RUNS:
        pages = cluster_pages(domain, seed=5, n=24)
        tmp = tempfile.TemporaryDirectory()
        extract_digest(pages, ExecutionConfig(cache_dir=tmp.name))
        _PREVIOUS_RUNS[domain] = (tmp, pages)
    tmp, pages = _PREVIOUS_RUNS[domain]
    return tmp.name, pages


class TestPagePackNeverServesAChangedPage:
    @settings(max_examples=10, deadline=None)
    @given(
        domain=st.sampled_from(ALL_DOMAINS),
        drift=st.dictionaries(
            st.integers(min_value=0, max_value=23),
            st.sampled_from([mutate_page_text, mutate_page_structure]),
            min_size=1,
            max_size=8,
        ),
    )
    def test_drifted_pages_recompute(self, domain, drift, tmp_path_factory):
        previous, pages = _previous_run(domain)
        drifted = [
            Page(drift[i](p.html, seed=i), url=p.url, query=p.query)
            if i in drift
            else p
            for i, p in enumerate(pages)
        ]
        store = str(tmp_path_factory.mktemp(f"warm-{domain}") / "store")
        shutil.copytree(previous, store)
        warm = extract_digest(drifted, ExecutionConfig(cache_dir=store))
        assert warm == extract_digest(
            drifted, ExecutionConfig(artifact_cache="off")
        )


def _racing_site_run(cache_root, domains):
    """Process-pool worker: a cold ``api.run`` of each site into the
    store at ``cache_root``, publishing its model and page pack."""
    digest, _ = site_run(domains[0], ExecutionConfig(cache_dir=cache_root))
    return [(os.getpid(), digest)]


class TestConcurrentWriters:
    def test_two_workers_race_on_the_same_keys(self, tmp_path):
        """Two processes publishing one site's slots concurrently.

        Both workers run the same site cold into one store, so both
        miss the page pack and race to publish it and the model.
        Last-writer-wins atomic publishes leave a readable pack, and a
        warm read-back from it is exact.
        """
        from repro.runtime import run_chunked

        storeless, _ = site_run("library", ExecutionConfig(artifact_cache="off"))
        raced = run_chunked(
            _racing_site_run, str(tmp_path), ["library", "library"], 2
        )
        assert len({pid for pid, _ in raced}) == 2  # two processes ran
        assert [digest for _, digest in raced] == [storeless, storeless]
        (pack,) = (tmp_path / "pages").rglob("*.json")
        assert isinstance(json.loads(pack.read_text(encoding="utf-8")), dict)
        warm, stats = site_run(
            "library", ExecutionConfig(cache_dir=str(tmp_path))
        )
        assert warm == storeless
        assert stats["hits"] == 1 and stats["misses"] == 0
        assert stats["puts"] == 1  # every page came from the pack
