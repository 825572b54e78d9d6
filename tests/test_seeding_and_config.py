"""Tests for seeding discipline and the configuration surface."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import (
    DEFAULT_CONFIG,
    WATCHDOG_STAGES,
    ClusteringConfig,
    CrawlConfig,
    ExecutionConfig,
    FleetConfig,
    ProbeConfig,
    RunOptions,
    StageTimeouts,
    SubtreeConfig,
    ThorConfig,
    resolve_n_jobs,
    resolve_stage_timeout,
)
from repro.errors import ConfigError
from repro.seeding import namespaced_rng


class TestNamespacedRng:
    def test_same_namespace_same_stream(self):
        a = namespaced_rng("x", 1)
        b = namespaced_rng("x", 1)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_namespaces_differ(self):
        a = namespaced_rng("x", 1).random()
        b = namespaced_rng("y", 1).random()
        assert a != b

    def test_different_seeds_differ(self):
        a = namespaced_rng("x", 1).random()
        b = namespaced_rng("x", 2).random()
        assert a != b

    def test_none_seed_gives_entropy(self):
        # Two unseeded generators almost surely differ.
        a = namespaced_rng("x", None).random()
        b = namespaced_rng("x", None).random()
        assert a != b

    def test_decorrelates_sample_and_shuffle(self):
        # The original bug: a prober sampling and a generator shuffling
        # the same list from the same integer seed produce pathological
        # anti-correlation. Namespacing must break the coupling.
        words = [f"w{i}" for i in range(200)]
        pool = list(words)
        namespaced_rng("records:test", 7).shuffle(pool)
        chosen_by_generator = set(pool[:50])
        sampled_by_prober = set(namespaced_rng("prober", 7).sample(words, 50))
        overlap = len(chosen_by_generator & sampled_by_prober)
        # Expected overlap ~12.5; systematic avoidance gave ~0.
        assert overlap >= 3


class TestConfigDataclasses:
    def test_all_frozen(self):
        for config in (
            ThorConfig(),
            ClusteringConfig(),
            SubtreeConfig(),
            ProbeConfig(),
        ):
            field = dataclasses.fields(config)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, field, None)

    def test_default_config_is_paper_faithful(self):
        assert DEFAULT_CONFIG.probing.dictionary_queries == 100
        assert DEFAULT_CONFIG.probing.nonsense_queries == 10
        assert DEFAULT_CONFIG.clustering.configuration == "ttag"
        assert DEFAULT_CONFIG.clustering.restarts == 10
        assert DEFAULT_CONFIG.clustering.top_m == 2
        assert DEFAULT_CONFIG.subtrees.static_similarity_threshold == 0.5
        assert sum(DEFAULT_CONFIG.subtrees.distance_weights) == 1.0

    def test_replace_composes(self):
        config = dataclasses.replace(
            ThorConfig(),
            clustering=dataclasses.replace(ClusteringConfig(), k=3),
        )
        assert config.clustering.k == 3
        assert config.subtrees == SubtreeConfig()

    def test_ranking_weights_sum_to_one(self):
        assert abs(sum(ClusteringConfig().ranking_weights) - 1.0) < 1e-9

    def test_seed_defaults_to_none(self):
        assert ThorConfig().seed is None

    @pytest.mark.parametrize("name", ["k", "restarts", "top_m"])
    def test_clustering_counts_below_one_rejected(self, name):
        # In the clusterers' wording, at construction: unchecked,
        # top_m=0 ran to 0 pagelets and k=0 failed only after the probe.
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got 0$"):
            ClusteringConfig(**{name: 0})
        assert getattr(ClusteringConfig(**{name: 1}), name) == 1


class TestCrawlConfig:
    def test_exclude_list_is_the_tuple_crawl(self):
        from repro.frontier.checkpoint import crawl_fingerprint

        patterns = ["/search", "portal-2.example"]
        as_list = CrawlConfig(exclude=patterns)
        as_tuple = CrawlConfig(exclude=tuple(patterns))
        assert as_list.exclude == tuple(patterns)
        assert as_list == as_tuple
        seeds = ("http://x.org/",)
        assert crawl_fingerprint(seeds, as_list, seed=1) == crawl_fingerprint(
            seeds, as_tuple, seed=1
        )
        assert hash(as_list) == hash(as_tuple)
        assert hash(ThorConfig(crawl=as_list)) == hash(ThorConfig(crawl=as_tuple))


class TestExecutionConfig:
    def test_defaults_are_serial_cached(self):
        execution = ExecutionConfig()
        assert execution.n_jobs == 1
        assert execution.artifact_cache == "on"

    def test_rejects_negative_n_jobs(self):
        with pytest.raises(ValueError):
            ExecutionConfig(n_jobs=-1)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecutionConfig().n_jobs = 4

    def test_thor_config_carries_execution(self):
        config = ThorConfig(execution=ExecutionConfig(n_jobs=2))
        assert config.execution.n_jobs == 2


class TestResolveNJobs:
    def test_explicit_wins_over_execution(self):
        assert resolve_n_jobs(ExecutionConfig(n_jobs=4), n_jobs=2) == 2

    def test_execution_supplies_n_jobs(self):
        assert resolve_n_jobs(ExecutionConfig(n_jobs=4)) == 4

    def test_default_is_serial(self):
        assert resolve_n_jobs() == 1

    def test_zero_means_all_cores(self):
        assert resolve_n_jobs(n_jobs=0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_n_jobs(n_jobs=-2)


class TestRemovedBackendField:
    """numpy is the only compute path: no config object, CLI flag or
    environment variable selects a backend, and the in-process space
    cache has no off switch. Passing a removed field fails at
    construction."""

    def test_clustering_backend_raises(self):
        with pytest.raises(TypeError, match="backend"):
            ClusteringConfig(backend="python")

    def test_subtree_backend_raises(self):
        with pytest.raises(TypeError, match="backend"):
            SubtreeConfig(backend="python")

    def test_execution_backend_and_cache_raise(self):
        from repro.cli import build_parser

        with pytest.raises(TypeError, match="backend"):
            ExecutionConfig(backend="numpy")
        with pytest.raises(TypeError, match="cache"):
            ExecutionConfig(cache="off")
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "--backend", "numpy"])
        assert excinfo.value.code == 2

    def test_config_error_is_thor_error(self):
        from repro.errors import ThorError

        assert issubclass(ConfigError, ThorError)


class TestStageTimeouts:
    def test_per_stage_override_wins(self):
        execution = ExecutionConfig(stage_timeouts=StageTimeouts(cluster=5.0))
        assert resolve_stage_timeout(execution, "cluster") == 5.0
        assert resolve_stage_timeout(execution, "probe") is None

    def test_none_execution_means_no_deadline(self):
        for stage in WATCHDOG_STAGES:
            assert resolve_stage_timeout(None, stage) is None

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown watchdog stage"):
            resolve_stage_timeout(ExecutionConfig(), "upload")

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ValueError):
            StageTimeouts(probe=0.0)
        with pytest.raises(ValueError):
            StageTimeouts(identify=-1.0)


class TestRunOptionsAndFleetConfig:
    def test_run_options_defaults(self):
        options = RunOptions()
        assert options.run_id is None
        assert options.resume is False
        assert options.incremental is False
        assert options.fault_plan is None

    def test_run_options_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunOptions().resume = True

    def test_on_stage_excluded_from_equality(self):
        assert RunOptions(on_stage=print) == RunOptions()

    def test_fleet_config_defaults_on_thor_config(self):
        assert ThorConfig().fleet == FleetConfig()
        assert FleetConfig().site_jobs == 1

    def test_fleet_config_validates(self):
        with pytest.raises(ValueError):
            FleetConfig(site_jobs=-1)
        with pytest.raises(ValueError):
            FleetConfig(max_sites_per_run=0)
