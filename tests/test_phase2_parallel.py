"""Bitwise-equivalence tests for the cache-backed Phase 2.

Phase 2 runs on node-free candidate records, built in the driving
process at any ``n_jobs``. The hard invariant under test: records
round-tripped through the persistent artifact store produce *bitwise
identical* extraction output to the plain serial, storeless run —
``n_jobs=2`` == serial, store == storeless and warm == cold, on every
deep-web domain — and processes publishing into one store concurrently
(fleet workers do) leave it exact. The records themselves must replay
what the live DOM would decide.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from hypothesis import given, settings, strategies as st

from repro.config import ExecutionConfig, SubtreeConfig
from repro.core.identification import PageletIdentifier
from repro.core.page import Page
from repro.core.selection import _has_similar_dom_siblings
from repro.core.single_page import (
    candidate_records_for_cluster,
    candidate_subtrees,
    candidate_subtrees_for_cluster,
    payload_to_record,
    record_to_payload,
)
from repro.core.subtree_ranking import rank_subtree_sets
from repro.core.subtree_sets import (
    find_common_subtree_sets,
    make_candidate,
    make_candidate_from_record,
)
from repro.deepweb import generate_corpus
from repro.deepweb.domains import DOMAINS
from repro.html.paths import TagCodec
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


def identify(pages, execution=None):
    # The prototype-page draw is seeded: an unseeded identifier would
    # make the two runs we compare diverge for reasons unrelated to
    # the record/cache machinery under test.
    return PageletIdentifier(
        SubtreeConfig(), seed=0, execution=execution
    ).identify(pages)


class TestRecordPipeline:
    def test_record_round_trips_through_json(self):
        pages = cluster_pages("ecommerce", n=3)
        nodes = candidate_subtrees_for_cluster(pages)
        for node in nodes[0]:
            record = candidate_record(node)
            assert payload_to_record(record_to_payload(record)) == record

    def test_records_match_nodes_without_cache(self):
        pages = cluster_pages("music", n=4)
        from_nodes = [
            [candidate_record(n) for n in page_nodes]
            for page_nodes in candidate_subtrees_for_cluster(pages)
        ]
        assert candidate_records_for_cluster(pages) == from_nodes

    def test_malformed_payload_decodes_to_none(self):
        assert payload_to_record({"path": "html"}) is None
        assert payload_to_record("nonsense") is None

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
        # Records built in place (no execution config) vs records
        # published to and served through a cache dir, serial both times.
        pages = cluster_pages(domain, seed=seed, n=8)
        baseline = result_digest(pages, identify(pages))
        root = tmp_path_factory.mktemp(f"store-{domain}-{seed}")
        execution = ExecutionConfig(cache_dir=str(root))
        recorded = result_digest(pages, identify(pages, execution))
        assert recorded == baseline

    @pytest.mark.parametrize("domain", ALL_DOMAINS)
    def test_parallel_matches_serial(self, domain):
        pages = cluster_pages(domain, n=8)
        baseline = result_digest(pages, identify(pages))
        parallel = result_digest(
            pages, identify(pages, ExecutionConfig(n_jobs=2))
        )
        assert parallel == baseline

    def test_warm_equals_cold_with_hits(self, tmp_path, fresh_caches):
        from repro.runtime import artifact_store_for

        execution = ExecutionConfig(cache_dir=str(tmp_path))
        pages = cluster_pages("travel", n=8)
        baseline = result_digest(pages, identify(pages))

        cold = result_digest(pages, identify(pages, execution))
        cold_stats = artifact_store_for(execution).stats()
        assert cold_stats["puts"] > 0
        assert cold_stats["hits"] == 0

        fresh_caches()  # drop every in-memory cache; disk survives
        warm_pages = cluster_pages("travel", n=8)  # unparsed pages
        warm = result_digest(warm_pages, identify(warm_pages, execution))
        warm_stats = artifact_store_for(execution).stats()
        assert warm_stats["hits"] > 0
        assert warm_stats["puts"] == 0

        assert cold == baseline
        assert warm == baseline

    def test_warm_parallel_matches_too(self, tmp_path, fresh_caches):
        pages = cluster_pages("jobs", n=8)
        baseline = result_digest(pages, identify(pages))
        execution = ExecutionConfig(n_jobs=2, cache_dir=str(tmp_path))
        cold = result_digest(pages, identify(pages, execution))
        fresh_caches()
        warm_pages = cluster_pages("jobs", n=8)
        warm = result_digest(warm_pages, identify(warm_pages, execution))
        assert cold == baseline
        assert warm == baseline


def _publishing_records_worker(cache_root, htmls):
    """Process-pool worker: records for a chunk of pages through the
    store at ``cache_root``, publishing every miss."""
    from repro.runtime import artifact_store_for

    execution = ExecutionConfig(cache_dir=cache_root)
    records = candidate_records_for_cluster(
        [Page(html) for html in htmls], execution=execution
    )
    artifact_store_for(execution).flush_stats()
    return records


class TestConcurrentWriters:
    def test_two_workers_race_on_the_same_keys(self, tmp_path):
        """Two processes publishing the same artifacts concurrently.

        Every page appears in both workers' chunks, so both processes
        race to publish every key. Last-writer-wins atomic publishes
        mean the store stays readable and the records stay exact.
        """
        from repro.runtime import run_chunked

        pages = cluster_pages("library", n=6)
        htmls = [p.html for p in pages]
        expected = candidate_records_for_cluster(pages)
        # Duplicate the whole page list: chunking over 2 workers gives
        # each worker one full copy, racing on every key.
        doubled = run_chunked(
            _publishing_records_worker,
            str(tmp_path),
            htmls + htmls,
            2,
        )
        assert doubled[: len(htmls)] == expected
        assert doubled[len(htmls) :] == expected
        # And a warm read-back from the racing writers' store is exact.
        warm = candidate_records_for_cluster(
            cluster_pages("library", n=6),
            execution=ExecutionConfig(cache_dir=str(tmp_path)),
        )
        assert warm == expected
