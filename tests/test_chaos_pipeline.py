"""End-to-end chaos tests: the pipeline under injected faults.

The invariants under test (ISSUE: fault-tolerant pipeline runtime):

- quarantining up to k injected-bad pages never changes the QA-Pagelet
  selected for the surviving pages, on any of the seven deep-web
  genres — degradation is *local*;
- exceeding ``min_surviving_fraction`` aborts with
  :class:`~repro.errors.ExtractionError` instead of extracting a
  template from junk;
- under *recoverable* faults a seeded run's result digest is bitwise
  identical to the fault-free serial run, and the run report accounts
  for every injected event (a site run starts no worker, so only torn
  artifact writes land here; ``tests/test_fleet.py`` injects worker
  crashes and chunk errors into the fleet's site fan-out);
- a resumed run reproduces the identical digest and accounts its
  resume hits.
"""

from __future__ import annotations

import pytest

from hypothesis import given, settings, strategies as st

from repro.config import ExecutionConfig, ProbeConfig, RunOptions, ThorConfig
from repro.core.page import Page
from repro.core.thor import Thor
from repro.deepweb import generate_corpus, make_site
from repro.deepweb.domains import DOMAINS
from repro.deepweb.templates import mutate_page_text
from repro.errors import ExtractionError, HtmlParseError, ResumeError
from repro.io.export import result_digest
from repro.resilience import FaultPlan
from repro.resilience.quarantine import INJECTED, PARSE_ERROR

ALL_DOMAINS = sorted(DOMAINS)  # all seven deep-web genres


class ExplodingPage(Page):
    """A page whose signature analysis always blows up."""

    def tag_counts(self):
        raise HtmlParseError("injected pathological page")


def _bad_page(index: int) -> ExplodingPage:
    return ExplodingPage(
        "<html><body><p>bad</p></body></html>", url=f"http://bad/{index}"
    )


def _site_pages(domain: str, n: int = 24) -> list[Page]:
    sample = generate_corpus(n_sites=1, seed=9, domains=[domain])[0]
    return list(sample.pages)[:n]


_BASELINES: dict[str, tuple] = {}


def _baseline(domain: str) -> tuple:
    """Memoized fault-free extraction over the genre's clean pages."""
    if domain not in _BASELINES:
        pages = _site_pages(domain)
        result = Thor(ThorConfig(seed=1)).extract(pages)
        _BASELINES[domain] = (
            pages,
            result_digest(result),
            [(p.page.url, p.path) for p in result.pagelets],
        )
    return _BASELINES[domain]


class TestQuarantineDegradation:
    @settings(max_examples=10, deadline=None)
    @given(
        domain=st.sampled_from(ALL_DOMAINS),
        positions=st.lists(
            st.integers(min_value=0, max_value=24), min_size=1, max_size=3,
            unique=True,
        ),
    )
    def test_bad_pages_never_change_survivor_pagelets(self, domain, positions):
        pages, clean_digest, clean_pagelets = _baseline(domain)
        injected = list(pages)
        for offset, position in enumerate(sorted(positions)):
            injected.insert(position + offset, _bad_page(position))
        thor = Thor(ThorConfig(seed=1))
        result = thor.extract(injected)
        # The bad pages are quarantined; the survivors — exactly the
        # clean sample — produce bitwise-identical extraction output.
        assert [p.html for p in result.pages] == [p.html for p in pages]
        assert result_digest(result) == clean_digest
        assert [(p.page.url, p.path) for p in result.pagelets] == clean_pagelets
        report = result.report
        assert len(report.quarantined) == len(positions)
        assert all(r.kind == PARSE_ERROR for r in report.quarantined)
        assert report.pages_total == len(injected)
        assert report.pages_surviving == len(pages)

    @pytest.mark.parametrize("domain", ALL_DOMAINS)
    def test_every_genre_survives_one_bad_page(self, domain):
        pages, clean_digest, _ = _baseline(domain)
        result = Thor(ThorConfig(seed=1)).extract([_bad_page(0)] + list(pages))
        assert result_digest(result) == clean_digest

    def test_exceeding_min_surviving_fraction_raises(self):
        pages = _site_pages("ecommerce", n=4)
        junk = [_bad_page(i) for i in range(6)]
        with pytest.raises(ExtractionError, match="survived"):
            Thor(ThorConfig(seed=1)).extract(pages + junk)

    def test_all_pages_bad_raises(self):
        with pytest.raises(ExtractionError):
            Thor(ThorConfig(seed=1)).extract([_bad_page(i) for i in range(3)])

    def test_threshold_is_configurable(self):
        pages = _site_pages("ecommerce", n=4)
        junk = [_bad_page(i) for i in range(6)]
        lenient = ThorConfig(
            seed=1, execution=ExecutionConfig(min_surviving_fraction=0.25)
        )
        result = Thor(lenient).extract(pages + junk)
        assert len(result.pages) == 4


class TestChaosDigestInvariant:
    @pytest.mark.parametrize("domain", ["jobs", "movies"])
    def test_recoverable_faults_keep_digest_identical(self, domain, tmp_path):
        # Fault-free serial reference.
        reference = Thor(ThorConfig(seed=5)).run(
            make_site(domain, seed=5, records=60)
        )
        # A site run publishes two files (its model and its page
        # pack), so every publish is torn: a lower rate could spare
        # both and test nothing.
        plan = FaultPlan(
            seed=5,
            worker_crash_rate=0.4,
            chunk_error_rate=0.3,
            artifact_corrupt_rate=1.0,
        )
        config = ThorConfig(
            seed=5,
            execution=ExecutionConfig(n_jobs=2, cache_dir=str(tmp_path)),
        )
        thor = Thor(config, fault_plan=plan)
        result = thor.run(make_site(domain, seed=5, records=60))
        assert result_digest(result) == result_digest(reference)
        report = thor.report()
        # A site run starts no process pool, so worker crashes and
        # chunk errors have nowhere to land (the fleet tests inject
        # those into site fan-out): only torn writes land, and they
        # are absorbed.
        assert report.transport == {}
        assert set(report.faults_injected) == {"artifact_corrupt"}
        assert report.faults_injected["artifact_corrupt"] > 0
        assert report.chunk_retries == report.serial_fallbacks == 0
        assert not report.quarantined

    def test_injected_page_faults_degrade_to_survivor_run(self):
        pages = _site_pages("library")
        plan = FaultPlan(seed=3, page_failure_rate=0.2)
        thor = Thor(ThorConfig(seed=1), fault_plan=plan)
        result = thor.extract(pages)
        report = result.report
        assert len(report.quarantined) == plan.injected["page_fault"] > 0
        assert all(r.kind == INJECTED for r in report.quarantined)
        # Dropping the same pages up front, fault-free, is equivalent.
        quarantined_units = {r.unit for r in report.quarantined}
        survivors = [p for p in pages if p.url not in quarantined_units]
        clean = Thor(ThorConfig(seed=1)).extract(survivors)
        assert result_digest(result) == result_digest(clean)


class TestResumableRuns:
    def test_resume_reproduces_digest_and_skips_probe(self, tmp_path):
        config = ThorConfig(
            seed=4, execution=ExecutionConfig(cache_dir=str(tmp_path))
        )
        site = lambda: make_site("travel", seed=4, records=60)  # noqa: E731
        first = Thor(config).run(site(), RunOptions(run_id="r1"))
        resumed_thor = Thor(config)
        second = resumed_thor.run(site(), RunOptions(run_id="r1", resume=True))
        assert result_digest(first) == result_digest(second)
        # The resumed run restores both checkpoints: the probe sample
        # and the Phase-1 cluster fit.
        assert resumed_thor.report().resume_hits == ("probe", "cluster")

    def test_resume_under_different_config_refuses(self, tmp_path):
        execution = ExecutionConfig(cache_dir=str(tmp_path))
        site = make_site("travel", seed=4, records=60)
        Thor(ThorConfig(seed=4, execution=execution)).run(
            site, RunOptions(run_id="r1")
        )
        with pytest.raises(ResumeError, match="configuration"):
            Thor(ThorConfig(seed=5, execution=execution)).run(
                make_site("travel", seed=5, records=60),
                RunOptions(run_id="r1", resume=True),
            )

    def test_run_id_without_store_refuses(self):
        config = ThorConfig(
            seed=4, execution=ExecutionConfig(artifact_cache="off")
        )
        with pytest.raises(ResumeError, match="cache"):
            Thor(config).run(
                make_site("travel", seed=4, records=60), RunOptions(run_id="r1")
            )

    def test_resume_with_no_prior_checkpoint_just_runs(self, tmp_path):
        config = ThorConfig(
            seed=4, execution=ExecutionConfig(cache_dir=str(tmp_path))
        )
        thor = Thor(config)
        result = thor.run(
            make_site("travel", seed=4, records=60),
            RunOptions(run_id="new", resume=True),
        )
        assert result.pagelets
        assert thor.report().resume_hits == ()

    @pytest.mark.parametrize("entry", ["run", "extract", "refresh"])
    @pytest.mark.parametrize(
        "options, artifact_cache",
        [
            (RunOptions(resume=True), "on"),
            (RunOptions(run_id="r1"), "off"),
        ],
        ids=["resume-without-run-id", "run-id-without-store"],
    )
    def test_every_entry_point_applies_one_checkpoint_rule(
        self, tmp_path, entry, options, artifact_cache
    ):
        config = ThorConfig(
            probing=ProbeConfig(dictionary_queries=12, nonsense_queries=2),
            seed=4,
            execution=ExecutionConfig(
                cache_dir=str(tmp_path), artifact_cache=artifact_cache
            ),
        )
        site = make_site("travel", seed=4, records=60)
        subject = site if entry == "run" else Thor(config).probe(site).pages
        with pytest.raises(ResumeError):
            getattr(Thor(config), entry)(subject, options=options)


class TestCliChaosSmoke:
    def test_run_resume_report_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "result.json")
        base = [
            "run", "--domain", "music", "--seed", "2", "--records", "40",
            "--cache-dir", str(tmp_path / "cache"), "--run-id", "smoke",
            "--out", out, "--report",
            # A site run starts no worker, so the crash rate has nowhere
            # to land; the page-failure rate injects on both legs.
            "--chaos-worker-crash-rate", "0.3",
            "--chaos-page-failure-rate", "0.05", "--jobs", "2",
        ]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert main(base + ["--resume"]) == 0
        second = capsys.readouterr().out

        def digest_line(text):
            return next(
                line for line in text.splitlines()
                if line.startswith("result-digest:")
            )

        assert digest_line(first) == digest_line(second)
        assert "run report:" in first and "run report:" in second
        assert "resume-hits=2" in second  # probe + cluster checkpoints
        for leg in (first, second):
            assert "chaos faults injected: page_fault=3" in leg
            assert "quarantined: 3" in leg

    def test_resume_without_run_id_is_an_error(self, capsys):
        from repro.cli import main

        assert main(["run", "--resume"]) == 2
        assert "requires --run-id" in capsys.readouterr().err


class _FailFirstIdentifier:
    """Raises on the first cluster, delegates afterwards — so exactly
    one cluster is quarantined at fit time."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0

    def identify(self, pages, stems=None):
        self.calls += 1
        if self.calls == 1:
            raise ExtractionError("injected: cluster analysis failed")
        return self._inner.identify(pages, stems)


class _CountingIdentifier:
    def __init__(self, inner):
        self._inner = inner
        self.calls = 0

    def identify(self, pages, stems=None):
        self.calls += 1
        return self._inner.identify(pages, stems)


class TestIncrementalChaos:
    """Drift edge cases (ISSUE: incremental re-extraction): an empty
    delta must do zero Phase-2 work, stored quarantines must replay
    without re-running the failing analysis, and a torn model bundle is
    a counted miss that falls back to a full refit — never an
    exception."""

    def _config(self, cache_dir: str) -> ThorConfig:
        return ThorConfig(
            seed=1, execution=ExecutionConfig(cache_dir=str(cache_dir))
        )

    def _seed(self, thor: Thor, pages):
        """Full fit over ``pages`` with the model published — what a
        first ``run()`` leaves behind for the next crawl."""
        result = thor.partition(thor.extract(pages))
        assert thor.persist_model(result)
        return result

    def test_empty_delta_is_pure_replay_with_zero_phase2_work(self, tmp_path):
        pages = _site_pages("jobs")
        config = self._config(tmp_path)
        seeded = self._seed(Thor(config), pages)
        replay = Thor(config)
        spy = _CountingIdentifier(replay._identifier)
        replay._identifier = spy
        result = replay.refresh(pages)
        assert spy.calls == 0
        assert result_digest(result) == result_digest(seeded)
        counters = replay.report().incremental
        assert counters.get("skipped", 0) == len(result.pages)
        assert counters.get("assigned", 0) == 0
        assert counters.get("refit", 0) == 0

    def test_quarantined_cluster_replays_without_rerunning(self, tmp_path):
        pages = _site_pages("movies")
        config = self._config(tmp_path)
        seeder = Thor(config)
        seeder._identifier = _FailFirstIdentifier(seeder._identifier)
        seeded = self._seed(seeder, pages)
        seed_quarantine = [
            (r.kind, r.unit) for r in seeded.report.quarantined
        ]
        assert seed_quarantine  # the injected failure really landed
        replay = Thor(config)
        spy = _CountingIdentifier(replay._identifier)
        replay._identifier = spy
        result = replay.refresh(pages)
        # The stored quarantine replays verbatim; the failing analysis
        # (and every healthy one) is not re-run.
        assert spy.calls == 0
        assert result_digest(result) == result_digest(seeded)
        assert [
            (r.kind, r.unit) for r in result.report.quarantined
        ] == seed_quarantine

    def test_torn_model_bundle_is_a_counted_miss_not_an_error(self, tmp_path):
        pages = _site_pages("library")
        config = self._config(tmp_path)
        seeded = self._seed(Thor(config), pages)
        bundles = [
            path
            for path in (tmp_path / "models").rglob("*")
            if path.is_file()
        ]
        assert bundles
        for path in bundles:
            payload = path.read_bytes()
            path.write_bytes(payload[: len(payload) // 2])
        thor = Thor(config)
        result = thor.refresh(pages)
        counters = thor.report().incremental
        assert counters.get("model_misses", 0) == 1
        assert counters.get("refit", 0) == len(result.pages)
        assert counters.get("skipped", 0) == 0
        assert result_digest(result) == result_digest(seeded)

    def test_chaos_refresh_keeps_digest_identical(self, tmp_path):
        pages = _site_pages("travel")
        config = ThorConfig(
            seed=1,
            execution=ExecutionConfig(
                n_jobs=2, cache_dir=str(tmp_path / "warm")
            ),
        )
        self._seed(Thor(config), pages)
        mutated = [
            Page(mutate_page_text(p.html, seed=i), url=p.url, query=p.query)
            if i < 3
            else p
            for i, p in enumerate(pages)
        ]
        # Fault-free cold reference over the mutated corpus.
        cold = Thor(ThorConfig(seed=1))
        reference = cold.partition(cold.extract(mutated))
        plan = FaultPlan(
            seed=7,
            worker_crash_rate=0.4,
            chunk_error_rate=0.3,
            artifact_corrupt_rate=0.3,
        )
        thor = Thor(config, fault_plan=plan)
        result = thor.refresh(mutated)
        assert result_digest(result) == result_digest(reference)
        # The drifted pages are assigned to the stored clusters, so the
        # refresh refits nothing and starts no pool: only torn writes
        # can land, and they are absorbed.
        report = thor.report()
        assert report.incremental.get("assigned", 0) == 3
        assert report.transport == {}
        assert report.faults_injected.get("artifact_corrupt", 0) > 0
