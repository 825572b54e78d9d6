"""The three workloads and the finite input pools they draw from.

Every op's input comes from a fixed pool whose reference digests are
pinned in ``references.json`` (written by ``pin.py``), so every op of
every seed is checked against an output computed another way: a cold
op against the serial run of its site, a refresh op against a cold run
over the same mutated pages, a crawl op against a one-connection crawl
of its web. No op repeats a pool entry within a run.

A run takes its inputs in whole cycles, one entry from each of the
pool's groups, and cycle ``c`` holds the same entries whatever the
seed; the workload seed orders the ops within each cycle. Site costs
within one genre range up to 6x, so a seed that drew its own sample of
sites would move a run's median op time by about 10% (estimated from
every site's measured cost). Runs that end on the same cycle do the
same work.

A workload splits each op in three: ``prepare`` (untimed: build the
site, copy the store), ``run`` (timed: the one library call) and
``inspect`` (untimed: digest, counters, cleanup).
"""

from __future__ import annotations

import functools
import os
import random
import shutil
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro import api
from repro.cluster.editdist import cached_normalized_levenshtein
from repro.config import CrawlConfig, ProbeConfig
from repro.core.probing import QueryProber
from repro.core.subtree_sets import clear_quad_matrix_memo
from repro.deepweb.domains import DOMAINS
from repro.deepweb.templates import TemplateDriftSource
from repro.discovery.web import SimulatedWeb
from repro.frontier.service import corpus_digest
from repro.io.export import result_digest
from repro.runtime import clear_artifact_store_registry, clear_space_cache
from repro.vsm.matrix import clear_levenshtein_memo

from loopback import LoopbackWeb

GENRES = tuple(sorted(DOMAINS))

#: Probes per site: half the paper's mix of 100 dictionary and 10
#: nonsense words, so that 40 ops of every workload fit in the time the
#: benchmark may take. An op still runs every stage of the pipeline.
DICTIONARY_QUERIES = 50
NONSENSE_QUERIES = 5
#: Cold sites: every genre at site seeds COLD_SEED_BASE + 0..COLD_SITES-1.
COLD_SEED_BASE = 1000
COLD_SITES = 48
#: Refresh: one fitted site per genre (REFRESH_SEED_BASE + genre index),
#: re-run under REFRESH_VARIANTS different mutated subsets.
REFRESH_SEED_BASE = 100
REFRESH_VARIANTS = 64
#: Share of a refresh op's probe answers that are text-mutated.
DRIFT_SHARE = 0.10
#: How the mutated answers are drawn (part of the pinned pool shape).
DRIFT_DRAW = "per-answer-class"
#: Crawl webs: SimulatedWeb seeds WEB_SEED_BASE + 0..WEBS-1.
WEB_SEED_BASE = 7000
WEBS = 192
WEB_PAGES = 200
WEB_PORTALS = 8
#: Webs per crawl cycle; the seed orders the crawls within a cycle.
WEB_LANES = 8

#: Set-up repetitions per run; setup_s reports their median.
SETUP_REPETITIONS = 3
#: The first input of this group is the warm-up op of every set-up
#: repetition and never runs as a measured op, so set-up does the same
#: work whatever the seed.
WARMUP_GROUP = "realestate"

#: The pool shape the pinned references were computed for.
POOLS = {
    "cold": [COLD_SEED_BASE, COLD_SITES, DICTIONARY_QUERIES, NONSENSE_QUERIES],
    "refresh": [
        REFRESH_SEED_BASE,
        REFRESH_VARIANTS,
        DICTIONARY_QUERIES,
        NONSENSE_QUERIES,
        DRIFT_SHARE,
        DRIFT_DRAW,
    ],
    "crawl": [WEB_SEED_BASE, WEBS, WEB_PAGES, WEB_PORTALS],
}


@dataclass
class Outcome:
    """What an op produced, read outside the timed region."""

    pages: int
    digest: str
    #: Program-side counters for the traced run's per-layer metrics.
    counters: dict
    #: Why the op failed although its digest may match, if it did.
    problem: str = ""


def reset_memos() -> None:
    """Drop the program's process-wide memos and store registry.

    Called before every op and every set-up repetition, outside the
    timing, so each starts as cold as a fresh process would: no op
    reuses distances, spaces or matrices that set-up or an earlier op
    of the same genre computed, and op time does not depend on the
    order the seed drew.
    """
    clear_space_cache()
    clear_quad_matrix_memo()
    clear_levenshtein_memo()
    cached_normalized_levenshtein.cache_clear()
    clear_artifact_store_registry()


# -- inputs (shared with pin.py) -------------------------------------------


def site_config(site_seed: int, n_jobs: int = 1, cache_dir: Optional[str] = None):
    """Default THOR settings but the probe count; the artifact store
    only when ``cache_dir``."""
    if cache_dir is None:
        execution = api.ExecutionConfig(n_jobs=n_jobs, artifact_cache="off")
    else:
        execution = api.ExecutionConfig(n_jobs=n_jobs, cache_dir=cache_dir)
    probing = ProbeConfig(
        dictionary_queries=DICTIONARY_QUERIES, nonsense_queries=NONSENSE_QUERIES
    )
    return api.ThorConfig(seed=site_seed, execution=execution, probing=probing)


def refresh_site_seed(genre: str) -> int:
    return REFRESH_SEED_BASE + GENRES.index(genre)


@functools.lru_cache(maxsize=None)
def _answer_classes(genre: str) -> dict:
    """The fitted site's probe terms by the class of page they answer
    (multi-match, single-match, no-match, error)."""
    site_seed = refresh_site_seed(genre)
    site = api.make_site(genre, seed=site_seed)
    terms = QueryProber(site_config(site_seed).probing, seed=site_seed).select_terms()
    classes: dict = {}
    for term in terms:
        classes.setdefault(site.query(term).class_label, []).append(term)
    return {label: classes[label] for label in sorted(classes)}


def drift_terms(genre: str, variant: int) -> list[str]:
    """DRIFT_SHARE of the probe terms, the same share of each answer class.

    Spreading the changed pages over the classes the way a site-wide
    content update would keeps every variant of a site touching the
    same page clusters. A uniform draw sometimes misses a QA-Pagelet
    cluster entirely, which makes the op up to 3x cheaper and the
    median op time jump between runs.
    """
    classes = _answer_classes(genre)
    shares = {label: DRIFT_SHARE * len(terms) for label, terms in classes.items()}
    quotas = {label: int(share) for label, share in shares.items()}
    total = round(DRIFT_SHARE * sum(len(terms) for terms in classes.values()))
    by_remainder = sorted(shares, key=lambda label: quotas[label] - shares[label])
    for label in by_remainder[: total - sum(quotas.values())]:
        quotas[label] += 1
    rng = random.Random(f"perfbench-drift:{genre}:{variant}")
    return [
        term for label, terms in classes.items() for term in rng.sample(terms, quotas[label])
    ]


def drifted_site(genre: str, variant: int) -> TemplateDriftSource:
    """The fitted site of ``genre`` with one variant's answers mutated."""
    return TemplateDriftSource(
        api.make_site(genre, seed=refresh_site_seed(genre)),
        terms=drift_terms(genre, variant),
        seed=variant,
    )


def make_web(web_seed: int) -> SimulatedWeb:
    return SimulatedWeb(n_pages=WEB_PAGES, n_portals=WEB_PORTALS, seed=web_seed)


def crawl_config(web_seed: int, connections: int):
    """A crawl with no politeness rate, no robots and no store."""
    return api.ThorConfig(
        seed=web_seed,
        crawl=CrawlConfig(max_pages=4 * WEB_PAGES),
        transport=api.TransportConfig(obey_robots=False),
        execution=api.ExecutionConfig(n_jobs=connections, artifact_cache="off"),
    )


def crawl_digest(loopback: LoopbackWeb, web, report) -> str:
    return corpus_digest(loopback.canonical_corpus(web, report.pages))


def _cycle(rng: random.Random, groups: dict) -> Iterator:
    """The next key of every group per cycle, in pool order, the groups
    in a seeded order within each cycle, until a group runs out."""
    lanes = [iter(keys) for keys in groups.values()]
    while True:
        rng.shuffle(lanes)
        for lane in lanes:
            key = next(lane, None)
            if key is None:
                return
            yield key


def reference_key(key) -> str:
    """How ``references.json`` names a pool entry: ``genre:seed``,
    ``genre:variant`` or a web seed."""
    return ":".join(map(str, key)) if isinstance(key, tuple) else str(key)


def _report_counters(report) -> dict:
    sent = received = 0
    for entry in report.transport.values():
        sent += entry.get("bytes_sent", 0)
        received += entry.get("bytes_received", 0)
    return {
        "chunk_retries": report.chunk_retries,
        "bytes_sent": sent,
        "bytes_received": received,
        "replayed_pages": report.incremental.get("skipped", 0),
    }


# -- workloads ---------------------------------------------------------------


class Workload:
    """A seeded key stream plus set-up, op and teardown hooks."""

    name = ""
    #: The section of ``references.json`` that pins this workload's outputs.
    references_section = ""
    warmup_group = WARMUP_GROUP
    #: A run measures at least this many ops: enough that op_s.tail (the
    #: highest percentile with 10 ops beyond it) is at least p75, and, for
    #: short ops, more than a 20 s run usually holds on a 2-vCPU host, so
    #: that how fast the host ran seldom changes which inputs a run ends on.
    min_ops = 40

    def __init__(self, workdir: str, seed: int, references: dict) -> None:
        self.workdir = workdir
        section = references[self.references_section]
        if section["pool"] != POOLS[self.references_section]:
            raise SystemExit(
                f"perfbench: references.json pins another {self.references_section} "
                "pool; rerun perfbench/pin.py"
            )
        self.references = section["digests"]
        groups = self.pool()
        self.warmup = groups[self.warmup_group].pop(0)
        #: Measured runs end on a whole cycle, one op per group, so every
        #: run has the same mix of groups.
        self.cycle = len(groups)
        self.keys = _cycle(random.Random(f"perfbench:{self.name}:{seed}"), groups)

    def pool(self) -> dict:
        """Every input the workload may run, by group."""
        raise NotImplementedError

    def expected(self, key) -> str:
        return self.references.get(reference_key(key), "")

    def setup(self, repetition: int) -> None:
        """One repetition of the per-workload set-up, timed into setup_s."""

    def teardown(self) -> None:
        """Undo :meth:`setup` (untimed)."""

    def prepare(self, key, index: int) -> Any:
        raise NotImplementedError

    def run(self, prepared) -> Any:
        raise NotImplementedError

    def inspect(self, prepared, result) -> Outcome:
        raise NotImplementedError

    def discard(self, prepared) -> None:
        """Release what :meth:`prepare` made (untimed)."""

    def _fresh_dir(self, label: str) -> str:
        path = os.path.join(self.workdir, label)
        os.makedirs(path)
        return path


class ColdJobs2(Workload):
    """First extraction of an unseen site at two worker processes, into
    an empty artifact store."""

    name = "cold_jobs2"
    references_section = "cold"

    def pool(self) -> dict:
        seeds = range(COLD_SEED_BASE, COLD_SEED_BASE + COLD_SITES)
        return {g: [(g, s) for s in seeds] for g in GENRES}

    def prepare(self, key, index: int):
        genre, site_seed = key
        config = site_config(
            site_seed, n_jobs=2, cache_dir=self._fresh_dir(f"store-{index}")
        )
        return api.make_site(genre, seed=site_seed), config

    def run(self, prepared):
        site, config = prepared
        return api.run(site, config)

    def inspect(self, prepared, result) -> Outcome:
        self.discard(prepared)
        return Outcome(
            len(result.pages), result_digest(result), _report_counters(result.report)
        )

    def discard(self, prepared) -> None:
        shutil.rmtree(prepared[1].execution.cache_dir)


class Refresh(Workload):
    """Re-run a fitted site incrementally after 10% of its answers changed.

    Each op runs on its own copy of the store as set-up left it, so no
    op sees a model that an earlier op re-published. The copy hard-links
    the files: the store never writes into a file, it replaces it
    (``ArtifactStore._publish``), so an op cannot change the fitted
    original, and a copy costs no data writes that could slow the ops
    after it.
    """

    name = "refresh"
    references_section = "refresh"
    min_ops = 63
    discard = ColdJobs2.discard

    def pool(self) -> dict:
        variants = range(REFRESH_VARIANTS)
        return {g: [(g, v) for v in variants] for g in GENRES}

    def setup(self, repetition: int) -> None:
        """Fit and persist one site per genre, each into its own store."""
        self.fitted = {}
        for genre in GENRES:
            site_seed = refresh_site_seed(genre)
            store = self._fresh_dir(f"fit-{repetition}-{genre}")
            config = site_config(site_seed, cache_dir=store)
            api.run(api.make_site(genre, seed=site_seed), config)
            self.fitted[genre] = store
        clear_artifact_store_registry()

    def teardown(self) -> None:
        for store in getattr(self, "fitted", {}).values():
            shutil.rmtree(store)
        self.fitted = {}

    def prepare(self, key, index: int):
        genre, variant = key
        store = os.path.join(self.workdir, f"op-{index}")
        shutil.copytree(self.fitted[genre], store, copy_function=os.link)
        return drifted_site(genre, variant), site_config(
            refresh_site_seed(genre), cache_dir=store
        )

    def run(self, prepared):
        source, config = prepared
        return api.run(source, config, api.RunOptions(incremental=True))

    def inspect(self, prepared, result) -> Outcome:
        """A refit matches the cold reference by construction, so an op
        that fell back to one fails here, not on its digest."""
        outcome = ColdJobs2.inspect(self, prepared, result)
        tiers = result.report.incremental
        replayed = tiers.get("skipped", 0)
        if tiers.get("refit", 0) or tiers.get("model_misses", 0) or not replayed:
            outcome.problem = f"took no incremental path: {dict(tiers)}"
        return outcome


class CrawlHttp(Workload):
    """Crawl an unseen simulated web over loopback HTTP, 2 connections."""

    name = "crawl_http"
    references_section = "crawl"
    min_ops = 64
    warmup_group = 0
    connections = 2

    def pool(self) -> dict:
        """The webs dealt round-robin into WEB_LANES groups."""
        webs = range(WEB_SEED_BASE, WEB_SEED_BASE + WEBS)
        return {lane: list(webs[lane::WEB_LANES]) for lane in range(WEB_LANES)}

    def setup(self, repetition: int) -> None:
        self.loopback = LoopbackWeb()

    def teardown(self) -> None:
        if getattr(self, "loopback", None) is not None:
            self.loopback.close()
            self.loopback = None

    def prepare(self, key, index: int):
        web = make_web(key)
        seed_url = self.loopback.serve(web)
        config = crawl_config(key, self.connections)
        return web, seed_url, api.HttpFetcher(config.transport, seed=key), config

    def run(self, prepared):
        _web, seed_url, fetcher, config = prepared
        return api.crawl(fetcher, seeds=[seed_url], config=config)

    def inspect(self, prepared, report) -> Outcome:
        web, _seed_url, fetcher, _config = prepared
        stats = fetcher.stats.snapshot()
        self.discard(prepared)
        counters = {
            "requests": stats.get("requests", 0),
            "connections_reused": stats.get("connections_reused", 0),
            "bytes_read": stats.get("bytes_read", 0),
            "fetch_errors": report.pages_failed,
        }
        return Outcome(
            report.pages_fetched, crawl_digest(self.loopback, web, report), counters
        )

    def discard(self, prepared) -> None:
        prepared[2].close()


WORKLOADS = {
    workload.name: workload
    for workload in (ColdJobs2, Refresh, CrawlHttp)
}
