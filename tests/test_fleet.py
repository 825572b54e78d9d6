"""Tests for fleet orchestration (``repro.fleet``).

The invariant every test here circles: however a fleet is sharded,
quota-scheduled, chaos-injected, interrupted, or resumed, every
``done`` site's result digest is bitwise-identical to a sequential
``api.run`` of that site — and the aggregate fleet digest follows.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import api
from repro.artifacts.store import ArtifactStore
from repro.config import (
    ExecutionConfig,
    FleetConfig,
    ProbeConfig,
    RunOptions,
    ThorConfig,
)
from repro.errors import ConfigError, ResumeError
from repro.fleet import (
    STATE_DONE,
    STATE_QUARANTINED,
    STATE_QUEUED,
    FleetLedger,
    FleetSpec,
    SiteSpec,
    aggregate_digest,
    default_fleet_id,
    format_fleet_report,
    run_fleet,
)
from repro.fleet.driver import SiteOutcome
from repro.io.export import result_digest
from repro.resilience.faults import FaultPlan

DOMAINS = ("ecommerce", "music", "jobs", "travel", "library")


def small_config(cache_dir, **fleet_kwargs) -> ThorConfig:
    return ThorConfig(
        seed=7,
        probing=ProbeConfig(dictionary_queries=10, nonsense_queries=2),
        execution=ExecutionConfig(cache_dir=str(cache_dir)),
        fleet=FleetConfig(**fleet_kwargs),
    )


def spec_for(pairs, **kwargs) -> FleetSpec:
    return FleetSpec(
        sites=tuple(
            SiteSpec(
                site_id=f"{domain}-{seed}",
                domain=domain,
                seed=seed,
                records=30,
            )
            for domain, seed in pairs
        ),
        **kwargs,
    )


def sequential_digests(spec: FleetSpec, config: ThorConfig) -> dict:
    """What N independent ``api.run`` calls produce, site by site."""
    return {
        site.site_id: result_digest(api.run(site.build_source(), config))
        for site in spec.sites
    }


class TestFleetSpec:
    def test_rejects_duplicate_site_ids(self):
        with pytest.raises(ConfigError, match="duplicate"):
            spec_for([("music", 1), ("music", 1)])

    def test_rejects_empty_fleet(self):
        with pytest.raises(ConfigError):
            FleetSpec(sites=())

    def test_rejects_bad_quota(self):
        with pytest.raises(ConfigError):
            spec_for([("music", 1)], quotas=(("acme", 0),))

    def test_fingerprint_tracks_the_job(self):
        a = spec_for([("music", 1), ("jobs", 2)])
        b = spec_for([("music", 1), ("jobs", 2)])
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != spec_for([("music", 1)]).fingerprint()
        assert (
            a.fingerprint()
            != spec_for([("music", 1), ("jobs", 2)], default_quota=1).fingerprint()
        )

    def test_waves_respect_priority_then_submission_order(self):
        spec = FleetSpec(
            sites=(
                SiteSpec(site_id="low", priority=0),
                SiteSpec(site_id="high", priority=5),
                SiteSpec(site_id="mid", priority=2),
            )
        )
        (wave,) = spec.waves()
        assert [s.site_id for s in wave] == ["high", "mid", "low"]

    def test_waves_enforce_tenant_quota(self):
        spec = FleetSpec(
            sites=(
                SiteSpec(site_id="a1", tenant="acme"),
                SiteSpec(site_id="a2", tenant="acme"),
                SiteSpec(site_id="a3", tenant="acme"),
                SiteSpec(site_id="z1", tenant="zeta"),
            ),
            quotas=(("acme", 2),),
        )
        waves = spec.waves()
        assert [[s.site_id for s in wave] for wave in waves] == [
            ["a1", "a2", "z1"],
            ["a3"],
        ]

    def test_default_quota_applies_to_unlisted_tenants(self):
        spec = FleetSpec(
            sites=(
                SiteSpec(site_id="z1", tenant="zeta"),
                SiteSpec(site_id="z2", tenant="zeta"),
            ),
            default_quota=1,
        )
        assert len(spec.waves()) == 2


class TestFleetLedger:
    def test_state_round_trip(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        ledger = FleetLedger.open(store, "f1", "fp", resume=False)
        assert ledger.site_state("s1") == {"state": STATE_QUEUED}
        ledger.set_state("s1", STATE_DONE, digest="abc")
        assert ledger.site_state("s1") == {"state": STATE_DONE, "digest": "abc"}
        assert ledger.completed_digest("s1") == "abc"
        ledger.reset_site("s1")
        assert ledger.completed_digest("s1") is None

    def test_unknown_state_rejected(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        ledger = FleetLedger.open(store, "f1", "fp", resume=False)
        with pytest.raises(ValueError, match="unknown site state"):
            ledger.set_state("s1", "uploading")

    def test_resume_refuses_fingerprint_mismatch(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        FleetLedger.open(store, "f1", "fp-a", resume=False)
        with pytest.raises(ResumeError, match="different FleetSpec"):
            FleetLedger.open(store, "f1", "fp-b", resume=True)

    def test_fresh_open_discards_previous_ledger(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        FleetLedger.open(store, "f1", "fp-a", resume=False)
        FleetLedger.open(store, "f1", "fp-b", resume=False)
        ledger = FleetLedger.open(store, "f1", "fp-b", resume=True)
        assert ledger.fleet_id == "f1"

    def test_resume_with_no_prior_ledger_starts_fresh(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        ledger = FleetLedger.open(store, "new", "fp", resume=True)
        assert ledger.site_state("s1") == {"state": STATE_QUEUED}


class TestAggregateDigest:
    def test_order_and_waves_do_not_matter(self):
        a = SiteOutcome(site_id="a", tenant="t", state=STATE_DONE, digest="1")
        b = SiteOutcome(site_id="b", tenant="t", state=STATE_DONE, digest="2")
        assert aggregate_digest([a, b]) == aggregate_digest([b, a])

    def test_quarantined_sites_are_excluded(self):
        a = SiteOutcome(site_id="a", tenant="t", state=STATE_DONE, digest="1")
        q = SiteOutcome(
            site_id="q", tenant="t", state=STATE_QUARANTINED, error="boom"
        )
        assert aggregate_digest([a, q]) == aggregate_digest([a])

    def test_digest_change_changes_aggregate(self):
        a = SiteOutcome(site_id="a", tenant="t", state=STATE_DONE, digest="1")
        a2 = SiteOutcome(site_id="a", tenant="t", state=STATE_DONE, digest="2")
        assert aggregate_digest([a]) != aggregate_digest([a2])


class TestRunFleet:
    def test_requires_persistent_store(self):
        spec = spec_for([("music", 1)])
        with pytest.raises(ConfigError, match="artifact store"):
            run_fleet(
                spec,
                ThorConfig(execution=ExecutionConfig(artifact_cache="off")),
            )

    def test_matches_sequential_runs(self, tmp_path):
        spec = spec_for([("ecommerce", 7), ("music", 5)])
        config = small_config(tmp_path)
        report = run_fleet(spec, config)
        expected = sequential_digests(spec, config)
        assert {o.site_id: o.digest for o in report.done} == expected
        assert report.aggregate_digest == aggregate_digest(report.outcomes)
        assert not report.quarantined and not report.deferred

    def test_resume_skips_done_sites(self, tmp_path):
        spec = spec_for([("ecommerce", 7), ("music", 5)])
        config = small_config(tmp_path)
        first = run_fleet(spec, config)
        resumed = run_fleet(spec, config, RunOptions(resume=True))
        assert resumed.aggregate_digest == first.aggregate_digest
        assert resumed.sites_resumed == len(spec.sites)
        assert all(o.skipped for o in resumed.outcomes)
        assert resumed.resume_hits == {"site": len(spec.sites)}

    def test_sharded_matches_serial(self, tmp_path):
        spec = spec_for([("ecommerce", 7), ("music", 5), ("jobs", 3)])
        serial = run_fleet(spec, small_config(tmp_path / "serial"))
        sharded = run_fleet(
            spec, small_config(tmp_path / "sharded", site_jobs=2)
        )
        assert sharded.aggregate_digest == serial.aggregate_digest

    def test_drain_defers_then_resume_finishes(self, tmp_path):
        spec = spec_for([("ecommerce", 7), ("music", 5), ("jobs", 3)])
        config = small_config(tmp_path, max_sites_per_run=2)
        drained = run_fleet(spec, config)
        assert len(drained.done) == 2 and len(drained.deferred) == 1
        finished = run_fleet(spec, config, RunOptions(resume=True))
        assert not finished.deferred
        assert finished.resume_hits.get("site") == 2
        reference = run_fleet(
            spec, small_config(tmp_path / "uninterrupted")
        )
        assert finished.aggregate_digest == reference.aggregate_digest

    def test_resume_different_spec_refuses(self, tmp_path):
        config = small_config(tmp_path)
        run_fleet(
            spec_for([("music", 5)]), config, RunOptions(run_id="fixed")
        )
        with pytest.raises(ResumeError, match="different FleetSpec"):
            run_fleet(
                spec_for([("jobs", 3)]),
                config,
                RunOptions(run_id="fixed", resume=True),
            )

    def test_default_fleet_id_is_spec_keyed(self, tmp_path):
        spec = spec_for([("music", 5)])
        report = run_fleet(spec, small_config(tmp_path))
        assert report.fleet_id == default_fleet_id(spec)
        assert report.fleet_id.startswith("fleet-")

    def test_quarantined_site_does_not_sink_the_fleet(self, tmp_path):
        # page_failure_rate=1.0 quarantines every page, so extraction
        # aborts below min_surviving_fraction and the site lands in
        # ``quarantined`` — recorded, not raised.
        spec = spec_for([("music", 5)])
        report = run_fleet(
            spec,
            small_config(tmp_path),
            RunOptions(fault_plan=FaultPlan(seed=1, page_failure_rate=1.0)),
        )
        (outcome,) = report.outcomes
        assert outcome.state == STATE_QUARANTINED
        assert outcome.error and outcome.digest is None
        assert report.aggregate_digest == aggregate_digest([])

    def test_chaos_does_not_change_digests(self, tmp_path):
        spec = spec_for([("ecommerce", 7), ("music", 5)])
        clean = run_fleet(spec, small_config(tmp_path / "clean"))
        chaotic = run_fleet(
            spec,
            small_config(tmp_path / "chaos", site_jobs=2),
            RunOptions(
                fault_plan=FaultPlan(
                    seed=2, worker_crash_rate=0.4, chunk_error_rate=0.3
                )
            ),
        )
        assert chaotic.aggregate_digest == clean.aggregate_digest
        # The faults really fired in the site fan-out, and recovery
        # absorbed them: retried chunks, then one serial fallback.
        scheduler = chaotic.scheduler
        assert scheduler.faults_injected == {"chunk_error": 3, "worker_crash": 2}
        assert scheduler.chunk_retries == 4
        assert scheduler.serial_fallbacks == 1

    def test_format_fleet_report_carries_the_grep_lines(self, tmp_path):
        spec = spec_for([("music", 5)])
        config = small_config(tmp_path)
        run_fleet(spec, config)
        resumed = run_fleet(spec, config, RunOptions(resume=True))
        text = format_fleet_report(resumed)
        assert f"fleet-digest: {resumed.aggregate_digest}" in text
        assert "sites-resumed: 1" in text
        assert "[skipped: already done]" in text


class TestFleetApiFacade:
    def test_api_run_fleet_is_the_driver(self, tmp_path):
        spec = api.FleetSpec(
            sites=(api.SiteSpec(site_id="music-5", domain="music", seed=5,
                                records=30),)
        )
        config = small_config(tmp_path)
        report = api.run_fleet(spec, config)
        assert isinstance(report, api.FleetReport)
        assert report.digest_for("music-5") == sequential_digests(
            spec, config
        )["music-5"]


#: Distinct (domain, seed) pairs — site ids stay unique.
site_pairs = st.lists(
    st.tuples(st.sampled_from(DOMAINS), st.integers(0, 6)),
    min_size=2,
    max_size=3,
    unique=True,
)


class TestFleetProperties:
    """The headline invariant, property-based: fleet == N sequential
    runs, bitwise, under chaos and through a mid-fleet drain+resume."""

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        pairs=site_pairs,
        chaos=st.booleans(),
        site_jobs=st.sampled_from([1, 2]),
    )
    def test_fleet_matches_sequential(
        self, tmp_path_factory, pairs, chaos, site_jobs
    ):
        tmp_path = tmp_path_factory.mktemp("fleet")
        spec = spec_for(pairs)
        config = small_config(tmp_path, site_jobs=site_jobs)
        plan = (
            FaultPlan(seed=3, worker_crash_rate=0.3, chunk_error_rate=0.2)
            if chaos
            else None
        )
        report = run_fleet(spec, config, RunOptions(fault_plan=plan))
        expected = sequential_digests(
            spec, small_config(tmp_path / "seq")
        )
        assert {o.site_id: o.digest for o in report.done} == expected

    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(pairs=site_pairs, drain_at=st.integers(1, 2))
    def test_drained_and_resumed_fleet_matches_uninterrupted(
        self, tmp_path_factory, pairs, drain_at
    ):
        tmp_path = tmp_path_factory.mktemp("fleet")
        spec = spec_for(pairs)
        drained = run_fleet(
            spec, small_config(tmp_path, max_sites_per_run=drain_at)
        )
        finished = run_fleet(
            spec, small_config(tmp_path), RunOptions(resume=True)
        )
        uninterrupted = run_fleet(
            spec, small_config(tmp_path / "uninterrupted")
        )
        assert finished.aggregate_digest == uninterrupted.aggregate_digest
        if len(spec.sites) > drain_at:
            assert drained.deferred
            assert finished.sites_resumed >= drain_at
