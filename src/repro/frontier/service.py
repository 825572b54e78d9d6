"""The crawl service: frontier-driven acquisition on the probe executor.

:class:`CrawlService` turns the one-shot probe loop into a long-running
acquisition job. Each *scheduling round* pops one batch from the
:class:`~repro.frontier.frontier.Frontier`, groups the URLs by site,
and submits one :class:`~repro.probe.executor.SiteJob` per site through
:func:`~repro.probe.executor.probe_sites` — so worker pooling, retries,
timeouts, fault injection, and telemetry are the probe subsystem's,
unchanged. Fetched pages are parsed with the existing HTML stack;
discovered links re-enter the frontier and discovered search forms
(:class:`~repro.discovery.crawler.DiscoveredForm`) accumulate as the
crawl's query-interface catalog, bridging acquisition to Stage 1.

Politeness is the one piece the executor cannot own alone: its budgets
live for one ``probe_sites`` call (one event loop), while a site's
rate limit must span the whole crawl. :class:`PolitenessLane` carries
each site's token-bucket level across rounds, seeding a fresh
:class:`~repro.probe.budget.ProbeBudget` per batch and harvesting its
state back — the spliced grant series still satisfies the bucket
invariant (:func:`~repro.probe.budget.bucket_respected`), which tests
assert over entire crawls.

Determinism contract, same shape as the rest of the pipeline: for a
fixed seed the corpus — URLs, depths, HTML, in fetch order — is
identical at every ``--jobs`` level, across ``--max-pages-per-run``
drain boundaries, and under a seeded recoverable ``FaultPlan``; stated
and tested as :func:`corpus_digest` equality.

Over real HTTP (a :class:`repro.transport.HttpFetcher` as ``fetch``,
or ``fetch=None`` to build one from ``config.transport``), the service
additionally checkpoints per-site circuit-breaker state, reports
tripped sites as ``quarantined_sites`` (graceful degradation — never
fatal), and can spill the corpus into immutable JSONL shards
(``CrawlConfig.corpus_shard_pages``) so checkpoint writes stop scaling
with corpus size. See DESIGN.md §16.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

from repro.artifacts.corpus import load_corpus_shards, publish_corpus_shards
from repro.artifacts.keys import sha256_hex
from repro.config import ProbeConfig, RunOptions, ThorConfig
from repro.discovery.crawler import DiscoveredForm, _extract_links
from repro.errors import ConfigError
from repro.frontier.checkpoint import (
    crawl_fingerprint,
    load_crawl_state,
    save_crawl_state,
)
from repro.frontier.frontier import CrawlItem, Frontier
from repro.frontier.robots import ExclusionRules
from repro.html.forms import FormField, SearchForm, find_search_forms
from repro.html.parser import parse
from repro.probe.budget import ProbeBudget, bucket_respected
from repro.probe.executor import SiteJob, probe_sites
from repro.probe.faults import FaultInjectingSource
from repro.resilience.faults import activate_fault_plan
from repro.runtime import artifact_store_for


@dataclass
class FetchedPage:
    """What the fetch source hands the executor for one URL.

    Mutable on purpose: the executor's assembly step stamps ``query``
    (the probe term — here the URL itself) onto pages that arrive
    without one, exactly as it does for probe pages.
    """

    url: str
    html: str = field(repr=False)
    query: str = ""


class _FetchSource:
    """Adapter: a ``fetch(url) -> html`` callable as a probe source.

    Sync-only by design — the executor bridges it onto its thread pool,
    and a :class:`~repro.probe.faults.FaultInjectingSource` wrapper (for
    chaos drills) layers latency/faults above it untouched.
    """

    label = "crawl"

    def __init__(self, fetch: Callable[[str], str]) -> None:
        self._fetch = fetch

    def query(self, url: str) -> FetchedPage:
        return FetchedPage(url=url, html=self._fetch(url))


class PolitenessLane:
    """One site's rate budget, persistent across executor batches.

    A :class:`~repro.probe.budget.ProbeBudget` binds to the event loop
    that first acquires it, and every ``probe_sites`` call is its own
    loop — so the lane owns the durable state (token level, last refill
    stamp, grant history) and mints a freshly-seeded budget per batch.
    """

    def __init__(self, site: str, rate: Optional[float], burst: int) -> None:
        self.site = site
        self.rate = rate
        self.burst = burst
        self._tokens: Optional[float] = None  # None = full bucket
        self._last_refill: Optional[float] = None
        #: Grant stamps spliced across every batch of the invocation.
        self.grant_times: list[float] = []
        self.waits = 0

    def make_budget(self) -> Optional[ProbeBudget]:
        if self.rate is None:
            return None
        return ProbeBudget(
            self.rate,
            self.burst,
            initial_tokens=self._tokens,
            last_refill=self._last_refill,
        )

    def harvest(self, budget: Optional[ProbeBudget]) -> None:
        if budget is None:
            return
        self.grant_times.extend(budget.grant_times)
        self.waits += budget.waits
        self._tokens = budget.tokens
        self._last_refill = budget.last_refill

    @property
    def granted(self) -> int:
        return len(self.grant_times)

    def within_budget(self, slack: float = 1e-3) -> bool:
        """The bucket invariant over the lane's *entire* grant series —
        the cross-batch politeness guarantee tests assert."""
        if self.rate is None:
            return True
        return bucket_respected(self.grant_times, self.rate, self.burst, slack)


@dataclass(frozen=True)
class CorpusPage:
    """One fetched page of the crawl corpus."""

    url: str
    depth: int
    html: str = field(repr=False)


@dataclass(frozen=True)
class CrawlReport:
    """The outcome of one :class:`CrawlService` invocation."""

    crawl_id: str
    fingerprint: str
    pages_fetched: int
    pages_failed: int
    #: URLs attempted (fetched + permanently failed), all invocations.
    attempted: int
    rounds: int
    #: URLs still pending in the frontier (> 0 means drained, not done).
    frontier_pending: int
    #: Deepest link depth actually fetched.
    frontier_depth: int
    enqueued: int
    dedup_hits: int
    excluded: int
    invalid: int
    politeness_waits: int
    budget_granted: int
    #: Checkpointed pages adopted instead of refetched this invocation.
    resume_hits: int
    forms: tuple[DiscoveredForm, ...]
    sites: tuple[str, ...]
    #: Per-site ``{"granted": n, "waits": n}`` politeness audit.
    lane_stats: Mapping[str, Mapping[str, int]] = field(hash=False)
    corpus_digest: str = ""
    #: Frontier emptied under budget — the crawl found everything it
    #: was allowed to reach.
    exhausted: bool = False
    #: No work left for a resume: exhausted, or ``max_pages`` spent.
    finished: bool = False
    pages: tuple[CorpusPage, ...] = field(default=(), repr=False)
    #: Sites whose circuit breaker has tripped (cumulative across
    #: invocations) — quarantined, not fatal: the crawl of every other
    #: site proceeds and resumes normally.
    quarantined_sites: tuple[str, ...] = ()
    #: Total breaker trips / open-breaker rejections, cumulative.
    breaker_trips: int = 0
    breaker_rejections: int = 0
    #: URLs refused by real ``robots.txt`` rules (this invocation).
    robots_denied: int = 0
    #: Complete JSONL corpus shards on disk (0 = corpus fully inline).
    corpus_shards: int = 0
    #: Transport counter snapshot (this invocation), empty for
    #: simulated-web crawls. See ``repro.transport.http.FetcherStats``.
    transport: Mapping[str, int] = field(default_factory=dict, hash=False)


def corpus_digest(corpus: Sequence[tuple[str, int, str]]) -> str:
    """SHA-256 over the canonical JSON of the corpus in fetch order.

    The crawl's equality fingerprint, the analogue of
    :func:`repro.io.export.result_digest`: every determinism invariant
    (any ``--jobs``, drained + resumed, seeded chaos) is stated as
    equality of this digest.
    """
    payload = json.dumps(
        [[url, depth, html] for url, depth, html in corpus],
        ensure_ascii=False,
        sort_keys=True,
        separators=(",", ":"),
    )
    return sha256_hex(payload)


def _form_to_json(discovered: DiscoveredForm) -> dict:
    form = discovered.form
    return {
        "action": form.action,
        "method": form.method,
        "fields": [[f.name, f.input_type, f.value] for f in form.fields],
        "found_on": discovered.found_on,
        "depth": discovered.depth,
    }


def _form_from_json(obj: dict) -> DiscoveredForm:
    return DiscoveredForm(
        form=SearchForm(
            action=obj["action"],
            method=obj["method"],
            fields=tuple(
                FormField(name, input_type, value)
                for name, input_type, value in obj["fields"]
            ),
        ),
        found_on=obj["found_on"],
        depth=int(obj["depth"]),
    )


class CrawlService:
    """Drive one crawl (optionally across several invocations).

    ``fetch`` is either a ``fetch(url) -> html`` callable or an object
    exposing ``.fetch`` (e.g. :class:`repro.discovery.web.SimulatedWeb`,
    whose ``seed_url`` then also serves as the default seed, or a
    :class:`repro.transport.HttpFetcher` for the real web). ``None``
    builds an :class:`~repro.transport.http.HttpFetcher` from
    ``config.transport`` — the ``repro crawl --url`` path. When the
    fetch object carries a breaker registry (``.breakers``), the
    service checkpoints its state and reports tripped sites as
    quarantined. Invocation behavior — crawl id, resume, chaos — rides
    on :class:`~repro.config.RunOptions`, exactly like ``api.run``.
    """

    def __init__(
        self,
        fetch: Union[Callable[[str], str], object, None],
        seeds: Optional[Sequence[str]] = None,
        config: Optional[ThorConfig] = None,
        options: Optional[RunOptions] = None,
    ) -> None:
        self.config = config or ThorConfig()
        self.options = options or RunOptions()
        if fetch is None:
            # Deferred import: repro.transport imports frontier modules.
            from repro.transport.http import HttpFetcher

            fetch = HttpFetcher(self.config.transport, seed=self.config.seed)
        owner = fetch
        bound = getattr(fetch, "fetch", None)
        if not callable(fetch) and callable(bound):
            if seeds is None:
                seed_url = getattr(fetch, "seed_url", None)
                seeds = (seed_url,) if seed_url else None
            fetch = bound
        if not callable(fetch):
            raise ConfigError(
                "crawl needs fetch(url) -> html (a callable or an object "
                f"with a .fetch method), got {type(fetch).__name__}"
            )
        # Transport-aware fetch objects expose breaker state (for
        # checkpointing + quarantine reporting) and transfer stats;
        # duck-typed so simulated webs stay oblivious.
        breakers = getattr(owner, "breakers", None)
        self.breakers = (
            breakers
            if breakers is not None
            and callable(getattr(breakers, "to_state", None))
            and callable(getattr(breakers, "tripped_sites", None))
            else None
        )
        stats = getattr(owner, "stats", None)
        self.transport_stats = (
            stats if callable(getattr(stats, "snapshot", None)) else None
        )
        if not seeds:
            raise ConfigError("crawl needs at least one seed URL")
        self.fetch = fetch
        self.seeds = tuple(seeds)
        crawl_config = self.config.crawl
        self.fingerprint = crawl_fingerprint(
            self.seeds, crawl_config, self.config.seed
        )
        self.crawl_id = self.options.run_id or f"crawl-{self.fingerprint[:12]}"
        self.store = artifact_store_for(self.config.execution)
        if self.options.resume and self.store is None:
            raise ConfigError(
                "crawl resume needs a persistent artifact store: set "
                "ExecutionConfig.cache_dir (CLI --cache-dir) or "
                "REPRO_CACHE_DIR"
            )
        self.exclusions = ExclusionRules(crawl_config.exclude)
        #: Per-site politeness lanes of the current invocation.
        self.lanes: dict[str, PolitenessLane] = {}

    # -- one executor round ----------------------------------------------

    def _run_batch(
        self, batch: Sequence[CrawlItem], source
    ) -> tuple[dict[str, str], dict[str, str]]:
        """Fetch one frontier batch; ``(url -> html, url -> error)``."""
        crawl_config = self.config.crawl
        by_site: dict[str, list[CrawlItem]] = {}
        for item in batch:
            by_site.setdefault(item.site, []).append(item)
        jobs = []
        harvest: list[tuple[PolitenessLane, Optional[ProbeBudget]]] = []
        for site, items in by_site.items():
            lane = self.lanes.get(site)
            if lane is None:
                lane = self.lanes[site] = PolitenessLane(
                    site, crawl_config.rate, crawl_config.burst
                )
            budget = lane.make_budget()
            harvest.append((lane, budget))
            jobs.append(
                SiteJob(
                    source=source,
                    terms=tuple(item.url for item in items),
                    seed=self.config.seed,
                    label=site,
                    budget=budget,
                    require_success=False,
                )
            )
        probe_config = ProbeConfig(
            dictionary_queries=0,
            nonsense_queries=0,
            timeout_s=crawl_config.timeout_s,
            max_retries=crawl_config.max_retries,
        )
        results = probe_sites(
            jobs,
            config=probe_config,
            execution=self.config.execution,
        )
        for lane, budget in harvest:
            lane.harvest(budget)
        pages: dict[str, str] = {}
        errors: dict[str, str] = {}
        for result in results:
            for page in result.pages:
                pages[page.url] = page.html
            for url, message in result.failures:
                errors[url] = message
        return pages, errors

    # -- checkpointing ----------------------------------------------------

    def _lane_stats(self, carried: Mapping[str, Mapping[str, int]]) -> dict:
        """Carried-over per-site counters merged with this invocation's."""
        stats = {site: dict(entry) for site, entry in carried.items()}
        for site, lane in self.lanes.items():
            entry = stats.setdefault(site, {"granted": 0, "waits": 0})
            entry["granted"] = entry.get("granted", 0) + lane.granted
            entry["waits"] = entry.get("waits", 0) + lane.waits
        return stats

    def _save(
        self,
        frontier: Frontier,
        corpus: list,
        failed: list,
        forms: list,
        seen_actions: set,
        attempted: int,
        rounds: int,
        lane_stats: dict,
        done: bool,
    ) -> None:
        state = {
            "fingerprint": self.fingerprint,
            "corpus": [[url, depth, html] for url, depth, html in corpus],
            "failed": [[url, message] for url, message in failed],
            "frontier": frontier.to_state(),
            "forms": [_form_to_json(form) for form in forms],
            "seen_actions": sorted(seen_actions),
            "attempted": attempted,
            "rounds": rounds,
            "lane_totals": lane_stats,
            "done": done,
        }
        shard_pages = self.config.crawl.corpus_shard_pages
        if shard_pages is not None:
            # Move the sharded prefix out of the inline record: full
            # shards publish once (immutable, skip-if-exists), only the
            # tail stays inline — checkpoint writes stop scaling with
            # corpus size.
            meta = publish_corpus_shards(
                self.store, self.crawl_id, corpus, shard_pages
            )
            state["corpus"] = [
                [url, depth, html]
                for url, depth, html in corpus[meta["pages"] :]
            ]
            state["corpus_shards"] = meta
        if self.breakers is not None:
            state["breakers"] = self.breakers.to_state()
        save_crawl_state(self.store, self.crawl_id, state)

    # -- the crawl loop ---------------------------------------------------

    def crawl(self) -> CrawlReport:
        crawl_config = self.config.crawl
        plan = self.options.fault_plan
        with activate_fault_plan(plan):
            state = None
            if self.options.resume and self.store is not None:
                state = load_crawl_state(
                    self.store, self.crawl_id, self.fingerprint
                )
            if state is not None and "corpus_shards" in state:
                sharded = load_corpus_shards(
                    self.store, self.crawl_id, state["corpus_shards"]
                )
                if sharded is None:
                    # A torn/missing shard poisons the whole checkpoint:
                    # restart fresh, deterministically (same contract as
                    # a torn state record).
                    state = None
                else:
                    state["corpus"] = [
                        list(entry) for entry in sharded
                    ] + list(state["corpus"])
            if state is not None:
                frontier = Frontier.from_state(
                    state["frontier"], exclusions=self.exclusions
                )
                corpus = [tuple(entry) for entry in state["corpus"]]
                failed = [tuple(entry) for entry in state["failed"]]
                forms = [_form_from_json(obj) for obj in state["forms"]]
                seen_actions = set(state["seen_actions"])
                attempted = int(state["attempted"])
                rounds = int(state["rounds"])
                carried_lanes = {
                    site: dict(entry)
                    for site, entry in state.get("lane_totals", {}).items()
                }
                resume_hits = len(corpus)
                finished = bool(state.get("done", False))
                if self.breakers is not None:
                    # Continue the quarantine (and the cumulative trip
                    # count) instead of re-hammering tripped sites.
                    self.breakers.restore(state.get("breakers", {}))
            else:
                frontier = Frontier(exclusions=self.exclusions)
                for seed_url in self.seeds:
                    frontier.add(seed_url, depth=0)
                corpus, failed, forms = [], [], []
                seen_actions: set[str] = set()
                attempted = 0
                rounds = 0
                carried_lanes = {}
                resume_hits = 0
                finished = False

            source = _FetchSource(self.fetch)
            if plan is not None and plan.source is not None:
                source = FaultInjectingSource(
                    source, plan.source, seed=plan.seed, label="crawl"
                )

            attempted_this_run = 0
            since_checkpoint = 0
            while not finished and frontier:
                room = crawl_config.max_pages - attempted
                if crawl_config.max_pages_per_run is not None:
                    room = min(
                        room,
                        crawl_config.max_pages_per_run - attempted_this_run,
                    )
                if room <= 0:
                    break
                batch = frontier.pop_batch(min(crawl_config.batch_size, room))
                if not batch:
                    break
                pages, errors = self._run_batch(batch, source)
                for item in batch:
                    attempted += 1
                    attempted_this_run += 1
                    html = pages.get(item.url)
                    if html is None:
                        failed.append(
                            (item.url, errors.get(item.url, "error"))
                        )
                        continue
                    corpus.append((item.url, item.depth, html))
                    try:
                        tree = parse(html, url=item.url)
                    except Exception:  # noqa: BLE001 - untrusted HTML
                        continue
                    for form in find_search_forms(tree):
                        if form.action and form.action not in seen_actions:
                            seen_actions.add(form.action)
                            forms.append(
                                DiscoveredForm(
                                    form=form,
                                    found_on=item.url,
                                    depth=item.depth,
                                )
                            )
                    if (
                        crawl_config.max_depth is None
                        or item.depth < crawl_config.max_depth
                    ):
                        for link in _extract_links(
                            tree.root, base_url=item.url
                        ):
                            frontier.add(link, depth=item.depth + 1)
                rounds += 1
                since_checkpoint += 1
                if (
                    self.store is not None
                    and since_checkpoint >= crawl_config.checkpoint_every
                ):
                    self._save(
                        frontier,
                        corpus,
                        failed,
                        forms,
                        seen_actions,
                        attempted,
                        rounds,
                        self._lane_stats(carried_lanes),
                        done=False,
                    )
                    since_checkpoint = 0

            exhausted = not frontier
            finished = finished or exhausted or attempted >= crawl_config.max_pages
            lane_stats = self._lane_stats(carried_lanes)
            if self.store is not None:
                self._save(
                    frontier,
                    corpus,
                    failed,
                    forms,
                    seen_actions,
                    attempted,
                    rounds,
                    lane_stats,
                    done=finished,
                )
                self.store.flush_stats()

        shard_pages = crawl_config.corpus_shard_pages
        shard_count = (
            len(corpus) // shard_pages
            if shard_pages is not None and self.store is not None
            else 0
        )
        transport_stats = (
            self.transport_stats.snapshot()
            if self.transport_stats is not None
            else {}
        )
        return CrawlReport(
            crawl_id=self.crawl_id,
            fingerprint=self.fingerprint,
            pages_fetched=len(corpus),
            pages_failed=len(failed),
            attempted=attempted,
            rounds=rounds,
            frontier_pending=len(frontier),
            frontier_depth=max((depth for _, depth, _ in corpus), default=0),
            enqueued=frontier.enqueued,
            dedup_hits=frontier.dedup_hits,
            excluded=frontier.excluded,
            invalid=frontier.invalid,
            politeness_waits=sum(
                entry.get("waits", 0) for entry in lane_stats.values()
            ),
            budget_granted=sum(
                entry.get("granted", 0) for entry in lane_stats.values()
            ),
            resume_hits=resume_hits,
            forms=tuple(forms),
            sites=tuple(sorted(lane_stats)),
            lane_stats=lane_stats,
            corpus_digest=corpus_digest(corpus),
            exhausted=exhausted,
            finished=finished,
            pages=tuple(
                CorpusPage(url=url, depth=depth, html=html)
                for url, depth, html in corpus
            ),
            quarantined_sites=(
                self.breakers.tripped_sites()
                if self.breakers is not None
                else ()
            ),
            breaker_trips=(
                self.breakers.total_trips if self.breakers is not None else 0
            ),
            breaker_rejections=(
                self.breakers.total_rejections
                if self.breakers is not None
                else 0
            ),
            robots_denied=transport_stats.get("robots_denied", 0),
            corpus_shards=shard_count,
            transport=transport_stats,
        )


def run_crawl(
    fetch: Union[Callable[[str], str], object],
    seeds: Optional[Sequence[str]] = None,
    config: Optional[ThorConfig] = None,
    options: Optional[RunOptions] = None,
) -> CrawlReport:
    """Run (or resume) one crawl — the engine behind ``api.crawl``."""
    return CrawlService(fetch, seeds, config=config, options=options).crawl()


def refresh_corpus(
    report: CrawlReport,
    config: Optional[ThorConfig] = None,
    options: Optional[RunOptions] = None,
):
    """Feed a (re)crawled corpus through incremental re-extraction.

    The bridge from Stage 0 to the incremental pipeline: the crawl
    report's pages become :class:`~repro.core.page.Page` objects (the
    URL doubles as the probe term, as in the crawl executor) and run
    through :meth:`Thor.refresh <repro.core.thor.Thor.refresh>` — on a
    recrawl of a stable site, unchanged pages replay from the stored
    model and only the delta is re-extracted; the first crawl (a model
    miss) refits in full and publishes the model for the next one.
    Returns the :class:`~repro.core.thor.ThorResult`.
    """
    from repro.core.page import Page
    from repro.core.thor import Thor

    options = options or RunOptions()
    pages = [
        Page(page.html, url=page.url, query=page.url)
        for page in report.pages
    ]
    thor = Thor(config or ThorConfig(), fault_plan=options.fault_plan)
    return thor.refresh(pages, options)


def format_crawl_report(report: CrawlReport) -> str:
    """Human-readable crawl summary (ends with the corpus digest)."""
    lines = [
        f"crawl report: {report.crawl_id}",
        (
            f"  pages: fetched={report.pages_fetched} "
            f"failed={report.pages_failed} attempted={report.attempted} "
            f"(rounds={report.rounds})"
        ),
        (
            f"  frontier: pending={report.frontier_pending} "
            f"depth={report.frontier_depth} enqueued={report.enqueued} "
            f"dedup-hits={report.dedup_hits} excluded={report.excluded} "
            f"invalid={report.invalid}"
        ),
        (
            f"  politeness: lanes={len(report.sites)} "
            f"granted={report.budget_granted} waits={report.politeness_waits}"
        ),
        f"  forms: {len(report.forms)} unique search interfaces",
        f"  resume-hits: {report.resume_hits}",
    ]
    if report.breaker_trips or report.quarantined_sites:
        quarantined = ",".join(report.quarantined_sites) or "-"
        lines.append(
            f"  breakers: tripped={report.breaker_trips} "
            f"rejected={report.breaker_rejections} "
            f"quarantined={quarantined}"
        )
    if report.robots_denied:
        lines.append(f"  robots: denied={report.robots_denied}")
    if report.corpus_shards:
        lines.append(f"  corpus-shards: {report.corpus_shards}")
    if report.frontier_pending > 0 and not report.finished:
        lines.append(
            "  deferred (resume to finish): "
            f"pending={report.frontier_pending} urls"
        )
    lines.append(f"corpus-digest: sha256:{report.corpus_digest}")
    return "\n".join(lines)


__all__ = [
    "CorpusPage",
    "CrawlReport",
    "CrawlService",
    "FetchedPage",
    "PolitenessLane",
    "corpus_digest",
    "format_crawl_report",
    "refresh_corpus",
    "run_crawl",
]
