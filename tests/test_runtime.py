"""Tests for the execution layer: a site run starts no process pool,
and the keyed vector-space cache."""

from __future__ import annotations

import concurrent.futures

import numpy as np
import pytest

from repro import runtime
from repro.config import ExecutionConfig
from repro.runtime import (
    cached_weighted_space,
    clear_space_cache,
    space_cache_stats,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_space_cache()
    yield
    clear_space_cache()


MAPS = [{"a": 2, "b": 1}, {"b": 3}, {"a": 1, "c": 4}]


class TestSpaceCache:
    def test_hit_on_identical_content(self):
        first = cached_weighted_space(MAPS)
        # A *different* list object with equal content still hits: the
        # key is the collection content, not identity.
        second = cached_weighted_space([dict(m) for m in MAPS])
        assert second is first
        stats = space_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_miss_on_different_weighting(self):
        tfidf = cached_weighted_space(MAPS, "tfidf")
        raw = cached_weighted_space(MAPS, "raw")
        assert raw is not tfidf
        assert space_cache_stats()["misses"] == 2

    def test_key_is_iteration_order_sensitive(self):
        # Vocabulary columns follow first-seen term order, so two
        # collections with equal *sorted* content but a different
        # insertion order build column-permuted spaces: they must not
        # share an LRU slot.
        first = cached_weighted_space([{"x": 1, "y": 2}])
        second = cached_weighted_space([{"y": 2, "x": 1}])
        assert second is not first
        assert (first.features, second.features) == (["x", "y"], ["y", "x"])
        assert space_cache_stats()["misses"] == 2

    def test_miss_on_different_content(self):
        first = cached_weighted_space(MAPS)
        other = cached_weighted_space(MAPS + [{"d": 1}])
        assert other is not first

    def test_cached_space_matches_fresh_build(self):
        from repro.vsm.matrix import weighted_space

        cached = cached_weighted_space(MAPS)
        fresh = weighted_space(MAPS)
        assert np.array_equal(cached.matrix, fresh.matrix)
        assert cached.vocabulary == fresh.vocabulary

    def test_lru_eviction_bounds_size(self):
        for i in range(runtime._SPACE_CACHE_LIMIT + 5):
            cached_weighted_space([{f"f{i}": 1}])
        assert space_cache_stats()["size"] == runtime._SPACE_CACHE_LIMIT

    def test_registry_reuses_space_across_k_sweep(self):
        from repro.deepweb import make_site
        from repro.signatures.registry import get_configuration

        site = make_site(domain="ecommerce", seed=3, records=20)
        pages = [site.query(w) for w in ("alpha", "beta", "gamma", "delta")]
        config = get_configuration("ttag")
        for k in (2, 3, 4):
            config(pages, k, restarts=1, seed=0)
        stats = space_cache_stats()
        # One interning for the collection, hits for every further k.
        assert stats["misses"] == 1
        assert stats["hits"] == 2


# ---------------------------------------------------------------------------
# No single-site path starts a process
# ---------------------------------------------------------------------------


class _NoPool:
    """Stands in for ProcessPoolExecutor: building one fails the test."""

    def __init__(self, *args, **kwargs):
        pytest.fail("a process pool was started")


class TestSiteRunStartsNoPool:
    def test_cold_jobs2_run_is_in_process_and_digest_equal(
        self, tmp_path, monkeypatch
    ):
        # Restarts and Phase-2 page analysis both run in the driving
        # process, so a cold run at n_jobs=2 into a fresh store builds
        # no process pool on any host.
        from repro.config import ThorConfig
        from repro.core.thor import Thor
        from repro.deepweb import make_site
        from repro.io.export import result_digest

        serial = Thor(ThorConfig(seed=5)).run(
            make_site(domain="jobs", seed=5, records=40)
        )
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
        config = ThorConfig(
            seed=5,
            execution=ExecutionConfig(n_jobs=2, cache_dir=str(tmp_path)),
        )
        try:
            cold = Thor(config).run(make_site(domain="jobs", seed=5, records=40))
        finally:
            runtime.clear_artifact_store_registry()
        assert result_digest(cold) == result_digest(serial)
