"""Smoke tests for the stable ``repro.api`` facade."""

from __future__ import annotations

import pytest

from repro import api


#: The facade's stability promise, verbatim. A diff here is an API
#: change and belongs in CHANGES.md — the test failing is the point.
EXPECTED_ALL = [
    "ArtifactStore",
    "ChunkFailedError",
    "ClusteringConfig",
    "ConfigError",
    "CrawlConfig",
    "CrawlReport",
    "DEFAULT_CONFIG",
    "DeepWebSource",
    "ExecutionConfig",
    "FaultInjectingSource",
    "FaultPlan",
    "FaultSpec",
    "FleetConfig",
    "FleetReport",
    "FleetSpec",
    "GcReport",
    "HttpFetcher",
    "IncrementalConfig",
    "Page",
    "ProbeConfig",
    "ProbeResult",
    "ProbeTelemetry",
    "QuarantineRecord",
    "ResilienceError",
    "ResumeError",
    "RunOptions",
    "RunReport",
    "SiteOutcome",
    "SiteSpec",
    "StageTimeoutError",
    "StageTimeouts",
    "SubtreeConfig",
    "Thor",
    "ThorConfig",
    "ThorError",
    "ThorResult",
    "TransportConfig",
    "collect_artifacts",
    "crawl",
    "extract",
    "format_artifact_report",
    "format_crawl_report",
    "format_fleet_report",
    "format_probe_report",
    "format_run_report",
    "make_site",
    "probe",
    "refresh_corpus",
    "resolve_cache_dir",
    "run",
    "run_fleet",
]


class TestFacadeSurface:
    def test_exports(self):
        for name in api.__all__:
            assert hasattr(api, name), name

    def test_exact_surface(self):
        assert api.__all__ == EXPECTED_ALL

    def test_surface_is_sorted(self):
        assert api.__all__ == sorted(api.__all__)

    def test_reexports_are_canonical(self):
        from repro.config import ExecutionConfig, ThorConfig
        from repro.core.thor import Thor, ThorResult

        assert api.ThorConfig is ThorConfig
        assert api.ExecutionConfig is ExecutionConfig
        assert api.Thor is Thor
        assert api.ThorResult is ThorResult

    def test_package_root_exports_execution_config(self):
        import repro

        assert repro.ExecutionConfig is api.ExecutionConfig


class TestFacadeVerbs:
    @pytest.fixture(scope="class")
    def site(self):
        return api.make_site(domain="ecommerce", seed=7, records=40)

    def test_probe(self, site):
        sample = api.probe(site, api.ThorConfig(seed=7))
        assert len(sample.pages) > 0

    def test_probe_defaults_config(self, site):
        assert len(api.probe(site).pages) > 0

    def test_extract(self, site):
        sample = api.probe(site, api.ThorConfig(seed=7))
        result = api.extract(list(sample.pages), api.ThorConfig(seed=7))
        assert isinstance(result, api.ThorResult)
        assert result.pagelets

    def test_run_end_to_end(self, site):
        result = api.run(site, api.ThorConfig(seed=7))
        assert result.pagelets
        assert result.partitioned

    def test_legacy_kwargs_removed(self, site):
        # The one-release deprecation window for the bare
        # run_id/resume/streaming kwargs (PR 7) is over: they are now
        # plain TypeErrors, not warnings.
        with pytest.raises(TypeError):
            api.run(site, run_id="legacy")
        with pytest.raises(TypeError):
            api.run(site, streaming=True)

    def test_crawl_verb(self):
        from repro.discovery.web import SimulatedWeb

        report = api.crawl(
            SimulatedWeb(n_pages=15, n_portals=2, seed=1),
            config=api.ThorConfig(seed=1, crawl=api.CrawlConfig(max_pages=10)),
        )
        assert isinstance(report, api.CrawlReport)
        assert report.pages_fetched == 10
        assert "corpus-digest:" in api.format_crawl_report(report)

    def test_run_with_jobs(self, site):
        # n_jobs > 1 must not change seeded results (restart fan-out is
        # bitwise identical to the serial loop).
        serial = api.run(site, api.ThorConfig(seed=7))
        parallel = api.run(
            site, api.ThorConfig(seed=7, execution=api.ExecutionConfig(n_jobs=2))
        )
        assert [p.path for p in parallel.pagelets] == [
            p.path for p in serial.pagelets
        ]
        assert (
            parallel.clustering.clustering.labels
            == serial.clustering.clustering.labels
        )
