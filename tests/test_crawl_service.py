"""End-to-end invariants of the crawl-frontier service.

The ISSUE-8 acceptance criteria live here: an interrupted-then-resumed
crawl produces a byte-identical corpus digest to an uninterrupted
crawl, at any ``--jobs`` level, including under a seeded ``FaultPlan``;
and per-site politeness budgets are never exceeded (asserted via the
lane telemetry counters).
"""

from __future__ import annotations

import pytest

from repro import api
from repro.config import CrawlConfig, ExecutionConfig, RunOptions, ThorConfig
from repro.discovery.web import SimulatedWeb
from repro.errors import ConfigError
from repro.frontier.service import CrawlService, run_crawl
from repro.probe.faults import FaultSpec
from repro.resilience import FaultPlan


def web(**kwargs):
    defaults = dict(n_pages=20, n_portals=3, seed=5, records_per_site=30)
    defaults.update(kwargs)
    return SimulatedWeb(**defaults)


def config(cache_dir=None, jobs=1, **crawl_kwargs):
    return ThorConfig(
        seed=5,
        crawl=CrawlConfig(**crawl_kwargs),
        execution=ExecutionConfig(cache_dir=cache_dir, n_jobs=jobs),
    )


class TestDeterminism:
    def test_repeat_runs_identical(self):
        first = run_crawl(web(), config=config(max_pages=15))
        second = run_crawl(web(), config=config(max_pages=15))
        assert first.corpus_digest == second.corpus_digest
        assert first.pages == second.pages

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_jobs_invariant(self, jobs):
        baseline = run_crawl(web(), config=config(max_pages=15))
        parallel = run_crawl(web(), config=config(max_pages=15, jobs=jobs))
        assert parallel.corpus_digest == baseline.corpus_digest

    def test_batch_size_invariant(self):
        # batch_size is fingerprinted (it can't change mid-crawl), but
        # two fresh crawls that differ only in batching must still walk
        # the same frontier order.
        small = run_crawl(web(), config=config(max_pages=15, batch_size=2))
        large = run_crawl(web(), config=config(max_pages=15, batch_size=12))
        assert small.corpus_digest == large.corpus_digest

    def test_corpus_is_fetch_ordered_bfs(self):
        report = run_crawl(web(), config=config(max_pages=15))
        depths = [page.depth for page in report.pages]
        assert depths == sorted(depths)

    def test_exhaustive_crawl_finishes(self):
        report = run_crawl(web(n_pages=8), config=config(max_pages=500))
        assert report.exhausted and report.finished
        assert report.frontier_pending == 0
        assert report.dedup_hits > 0  # pages cross-link


class TestResume:
    def _drained_then_resumed(self, tmp_path, jobs=1, fault_plan=None):
        cache = str(tmp_path / "cache")
        uninterrupted = run_crawl(
            web(),
            config=config(max_pages=18, jobs=jobs),
            options=RunOptions(fault_plan=fault_plan),
        )
        options = RunOptions(run_id="crawl-a", fault_plan=fault_plan)
        drained = run_crawl(
            web(),
            config=config(
                cache_dir=cache, max_pages=18, max_pages_per_run=7, jobs=jobs
            ),
            options=options,
        )
        assert not drained.finished
        assert drained.frontier_pending > 0
        resumed = run_crawl(
            web(),
            config=config(cache_dir=cache, max_pages=18, jobs=jobs),
            options=RunOptions(
                run_id="crawl-a", resume=True, fault_plan=fault_plan
            ),
        )
        return uninterrupted, drained, resumed

    def test_drain_resume_digest_identical(self, tmp_path):
        uninterrupted, drained, resumed = self._drained_then_resumed(tmp_path)
        assert resumed.resume_hits >= 1
        assert resumed.resume_hits == drained.pages_fetched
        assert resumed.finished
        assert resumed.corpus_digest == uninterrupted.corpus_digest

    def test_drain_resume_digest_identical_parallel(self, tmp_path):
        uninterrupted, _, resumed = self._drained_then_resumed(
            tmp_path, jobs=4
        )
        assert resumed.corpus_digest == uninterrupted.corpus_digest

    def test_drain_resume_under_fault_plan(self, tmp_path):
        # Recoverable chaos: retryable source faults plus torn
        # checkpoint writes. The digest contract must hold through both.
        plan = FaultPlan(
            seed=11,
            source=FaultSpec(throttle_rate=0.1, error_rate=0.05),
            artifact_corrupt_rate=0.05,
        )
        uninterrupted, _, resumed = self._drained_then_resumed(
            tmp_path, fault_plan=plan
        )
        assert resumed.corpus_digest == uninterrupted.corpus_digest

    def test_fault_plan_does_not_change_corpus(self):
        plan = FaultPlan(seed=11, source=FaultSpec(throttle_rate=0.15))
        clean = run_crawl(web(), config=config(max_pages=15))
        chaotic = run_crawl(
            web(),
            config=config(max_pages=15),
            options=RunOptions(fault_plan=plan),
        )
        assert chaotic.corpus_digest == clean.corpus_digest

    def test_resume_of_finished_crawl_is_noop(self, tmp_path):
        cache = str(tmp_path / "cache")
        cfg = config(cache_dir=cache, max_pages=12)
        options = RunOptions(run_id="crawl-b")
        first = run_crawl(web(), config=cfg, options=options)
        again = run_crawl(
            web(),
            config=cfg,
            options=RunOptions(run_id="crawl-b", resume=True),
        )
        assert again.resume_hits == first.pages_fetched
        assert again.rounds == first.rounds  # no new executor work
        assert again.corpus_digest == first.corpus_digest

    def test_resume_without_store_is_config_error(self):
        with pytest.raises(ConfigError, match="persistent artifact store"):
            run_crawl(
                web(),
                config=config(max_pages=5),
                options=RunOptions(run_id="x", resume=True),
            )

    def test_resume_without_checkpoint_starts_fresh(self, tmp_path):
        report = run_crawl(
            web(),
            config=config(cache_dir=str(tmp_path / "cache"), max_pages=10),
            options=RunOptions(run_id="never-ran", resume=True),
        )
        assert report.resume_hits == 0
        assert report.pages_fetched == 10


class TestPoliteness:
    def test_lanes_never_exceed_budget(self):
        # The acceptance criterion: with a tight per-site rate, the
        # spliced grant series of every lane satisfies the token-bucket
        # invariant across the *whole* crawl, and the waits counters
        # prove the budget actually throttled.
        service = CrawlService(
            web(n_pages=10),
            config=config(max_pages=10, batch_size=3, rate=60.0, burst=1),
        )
        report = service.crawl()
        assert report.pages_fetched == 10
        assert service.lanes
        for lane in service.lanes.values():
            assert lane.within_budget(), lane.site
        assert report.politeness_waits > 0
        assert report.budget_granted == report.attempted

    def test_no_rate_means_no_waits(self):
        report = run_crawl(web(n_pages=10), config=config(max_pages=10))
        assert report.politeness_waits == 0
        assert report.budget_granted == 0

    def test_lane_totals_survive_resume(self, tmp_path):
        cache = str(tmp_path / "cache")
        drained = run_crawl(
            web(n_pages=10),
            config=config(
                cache_dir=cache, max_pages=10, max_pages_per_run=4,
                rate=200.0, burst=1,
            ),
            options=RunOptions(run_id="crawl-p"),
        )
        resumed = run_crawl(
            web(n_pages=10),
            config=config(cache_dir=cache, max_pages=10, rate=200.0, burst=1),
            options=RunOptions(run_id="crawl-p", resume=True),
        )
        # Carried counters accumulate: the finished crawl's audit covers
        # both invocations' grants.
        assert resumed.budget_granted == resumed.attempted
        assert resumed.budget_granted > drained.budget_granted


class TestDiscoveryBridge:
    def test_forms_bridged_with_provenance(self):
        source = web(n_portals=3)
        report = run_crawl(source, config=config(max_pages=100))
        assert len(report.forms) == 3  # one unique form per portal
        for discovered in report.forms:
            assert discovered.form.action
            assert discovered.found_on.startswith("http://")
            assert discovered.depth >= 0

    def test_matches_reachable_set(self):
        # Under an ample budget the crawl fetches exactly the URLs
        # reachable from the seed and finds every unique form on them.
        from repro.discovery.crawler import _extract_links
        from repro.html.forms import find_search_forms
        from repro.html.parser import parse

        source = web(n_pages=12)
        reachable = {source.seed_url}
        actions = set()
        pending = [source.seed_url]
        while pending:
            url = pending.pop()
            tree = parse(source.fetch(url), url=url)
            actions.update(f.action for f in find_search_forms(tree) if f.action)
            for link in _extract_links(tree.root, base_url=url):
                if link not in reachable:
                    reachable.add(link)
                    pending.append(link)
        report = run_crawl(source, config=config(max_pages=500))
        assert report.exhausted
        assert {p.url for p in report.pages} == reachable
        assert sorted(d.form.action for d in report.forms) == sorted(actions)

    def test_exclusions_keep_urls_out(self):
        everything = run_crawl(web(), config=config(max_pages=100))
        excluded_prefix = "/page/1"
        filtered = run_crawl(
            web(), config=config(max_pages=100, exclude=(excluded_prefix,))
        )
        assert filtered.excluded > 0
        for page in filtered.pages:
            assert not page.url.split(".org", 1)[1].startswith(
                excluded_prefix
            )
        assert filtered.pages_fetched < everything.pages_fetched

    def test_max_depth_caps_expansion(self):
        shallow = run_crawl(web(), config=config(max_pages=100, max_depth=0))
        assert shallow.pages_fetched >= 1
        assert shallow.frontier_depth == 0
        assert shallow.exhausted  # nothing past the seeds was enqueued

    def test_dead_links_fail_without_aborting(self):
        source = web(n_pages=6)

        def flaky_fetch(url):
            if url.endswith("/page/2"):
                raise KeyError(url)
            return source.fetch(url)

        report = run_crawl(
            flaky_fetch,
            seeds=[source.seed_url],
            config=config(max_pages=50),
        )
        assert report.pages_failed == 1
        assert report.pages_fetched > 0


class TestApiAndService:
    def test_api_crawl_accepts_callable_with_seeds(self):
        source = web(n_pages=8)
        report = api.crawl(
            source.fetch, seeds=[source.seed_url], config=config(max_pages=8)
        )
        via_object = api.crawl(source, config=config(max_pages=8))
        assert report.pages_fetched > 0
        assert report.corpus_digest == via_object.corpus_digest

    def test_fetch_object_without_fetch_method_rejected(self):
        with pytest.raises(ConfigError, match="fetch"):
            run_crawl(object(), seeds=["http://x.org/"])

    def test_seeds_required_for_bare_callable(self):
        with pytest.raises(ConfigError, match="seed"):
            run_crawl(lambda url: "<html></html>")

    def test_default_crawl_id_is_fingerprint_derived(self):
        service = CrawlService(web(), config=config(max_pages=5))
        assert service.crawl_id == f"crawl-{service.fingerprint[:12]}"

    def test_report_format_lines(self):
        from repro.frontier.service import format_crawl_report

        report = run_crawl(web(), config=config(max_pages=10))
        text = format_crawl_report(report)
        assert "crawl report:" in text
        assert "politeness: lanes=" in text
        assert text.strip().endswith(f"sha256:{report.corpus_digest}")
        assert "deferred" not in text  # finished crawl: no resume hint
