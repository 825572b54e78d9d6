"""Tests for the execution layer: which work fans out over a process
pool, and the keyed vector-space cache."""

from __future__ import annotations

import concurrent.futures

import numpy as np
import pytest

from repro import runtime
from repro.config import ExecutionConfig
from repro.errors import ChunkFailedError
from repro.resilience import RunReportBuilder, activate_report
from repro.runtime import (
    cached_weighted_space,
    clear_space_cache,
    fan_out_pays,
    run_restarts,
    select_best,
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
# Which work fans out
# ---------------------------------------------------------------------------


def _scored_restarts(payload, seeds):
    """Restart worker: (score, seed) per seed, with ties by design.

    It burns a little CPU so that a restart's measured thread time is
    never zero.
    """
    sum(range(20_000))
    return [(int(seed[1:]) % payload, seed) for seed in seeds]


def _fragile_restarts(payload, seeds):
    """Restart worker that fails on any chunk holding ``payload``."""
    if payload in seeds:
        raise ValueError(f"restart {payload} failed")
    return list(seeds)


class _NoPool:
    """Stands in for ProcessPoolExecutor: building one fails the test."""

    def __init__(self, *args, **kwargs):
        pytest.fail("a process pool was started")


SEEDS = [f"r{index}" for index in range(7)]


def _best(results):
    return select_best(results, lambda a, b: a[0] > b[0])


class TestRestartFanOutRule:
    def test_decision_is_a_pure_function_of_its_inputs(self, monkeypatch):
        # 9 restarts × 0.4 ms × (1 − 1/2) = 1.8 ms: below a pool start.
        assert not fan_out_pays(9, 0.0004, 2)
        # 63 restarts × 23 ms × (1 − 1/2) ≈ 0.72 s: far above it.
        assert fan_out_pays(63, 0.023, 2)
        # The saving is compared strictly against the constant.
        monkeypatch.setattr(runtime, "POOL_START_S", 0.5)
        assert not fan_out_pays(2, 0.5, 2)
        assert fan_out_pays(2, 0.5001, 2)
        # One worker per restart at most: one restart never fans out,
        # and a surplus of workers does not inflate the saving.
        assert not fan_out_pays(1, 100.0, 8)
        assert fan_out_pays(2, 0.5001, 8) == fan_out_pays(2, 0.5001, 2)
        # n_jobs=1 has nothing to spread.
        assert not fan_out_pays(9, 100.0, 1)

    def test_cheap_restarts_stay_inline(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
        monkeypatch.setattr(runtime, "POOL_START_S", float("inf"))
        report = RunReportBuilder()
        with activate_report(report):
            results = run_restarts(
                _scored_restarts, 3, SEEDS, n_jobs=2, label="t",
                execution=ExecutionConfig(n_jobs=2),
            )
        serial = _scored_restarts(3, SEEDS)
        assert results == serial
        assert _best(results) == _best(serial) == (2, "r2")  # r5 ties
        assert report.build().transport == {}

    def test_heavy_restarts_fan_out(self, monkeypatch):
        monkeypatch.setattr(runtime, "POOL_START_S", 0.0)
        report = RunReportBuilder()
        with activate_report(report):
            results = run_restarts(
                _scored_restarts, 3, SEEDS, n_jobs=2, label="t",
                execution=ExecutionConfig(n_jobs=2),
            )
        serial = _scored_restarts(3, SEEDS)
        assert results == serial
        assert _best(results) == _best(serial) == (2, "r2")  # r5 ties
        # One restart ran inline; the other six went to two workers.
        assert report.build().transport["t"]["chunks"] == 2

    def test_failed_fan_out_chunk_names_restart_indices(self, monkeypatch):
        monkeypatch.setattr(runtime, "POOL_START_S", 0.0)
        with pytest.raises(ChunkFailedError) as excinfo:
            run_restarts(
                _fragile_restarts, "r4", SEEDS, n_jobs=2, label="t",
                execution=ExecutionConfig(n_jobs=2, recovery="off"),
            )
        # The timed restart runs inline and is the last one, so the
        # fanned-out chunks hold restarts 0-2 and 3-5.
        assert excinfo.value.indices == (3, 4, 5)
        assert [SEEDS[i] for i in excinfo.value.indices] == ["r3", "r4", "r5"]
        assert isinstance(excinfo.value.__cause__, ValueError)


class TestSiteRunStartsNoPool:
    def test_cold_jobs2_run_is_in_process_and_digest_equal(
        self, tmp_path, monkeypatch
    ):
        # Phase-2 page analysis never fans out, so once the restart
        # rule keeps K-Means inline (an unaffordable pool start pins
        # that down on any host), a cold run at n_jobs=2 into a fresh
        # store builds no process pool.
        from repro.config import ThorConfig
        from repro.core.thor import Thor
        from repro.deepweb import make_site
        from repro.io.export import result_digest

        serial = Thor(ThorConfig(seed=5)).run(
            make_site(domain="jobs", seed=5, records=40)
        )
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
        monkeypatch.setattr(runtime, "POOL_START_S", float("inf"))
        config = ThorConfig(
            seed=5,
            execution=ExecutionConfig(n_jobs=2, cache_dir=str(tmp_path)),
        )
        try:
            cold = Thor(config).run(make_site(domain="jobs", seed=5, records=40))
        finally:
            runtime.clear_artifact_store_registry()
        assert result_digest(cold) == result_digest(serial)
