"""The stable entry point: ``repro.api``.

One import gives the whole pipeline behind five verbs::

    from repro import api

    site = api.make_site(domain="ecommerce", seed=7)
    result = api.run(site, api.ThorConfig(seed=7))
    for pagelet in result.pagelets:
        print(pagelet.path, pagelet.score)

- :func:`crawl` — Stage 0: acquire pages and discover query
  interfaces with the checkpointed crawl frontier
  (:mod:`repro.frontier`).
- :func:`probe` — Stage 1: sample a deep-web source with probe
  queries, returning the page sample.
- :func:`extract` — Stage 2: two-phase QA-Pagelet extraction over an
  existing page collection (how the evaluation isolates Phase 2).
- :func:`run` — all three stages (probe → extract → partition).
- :func:`run_fleet` — N sites as one resumable job
  (:mod:`repro.fleet`): a declarative :class:`FleetSpec` in, one
  aggregated :class:`FleetReport` out.

Each takes an optional :class:`ThorConfig` for *what to compute*
(execution concerns — in-flight fetches, the persistent artifact
cache — ride on ``ThorConfig.execution``), and an
optional :class:`RunOptions` for *how this invocation behaves* —
naming (``run_id``), resumption (``resume``), reuse of the stored site
model (``incremental``), and seeded chaos (``fault_plan``). (The
pre-1.0 bare keyword arguments are gone: every per-invocation option
rides on ``RunOptions``.)

Exactly the names in ``__all__`` are covered by the facade's stability
promise; deeper module paths (``repro.core.*``, ``repro.cluster.*``)
remain importable but may reorganize between versions.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

from repro.artifacts import ArtifactStore, GcReport
from repro.artifacts import collect as collect_artifacts
from repro.artifacts import format_artifact_report
from repro.config import (
    DEFAULT_CONFIG,
    ClusteringConfig,
    CrawlConfig,
    ExecutionConfig,
    FleetConfig,
    IncrementalConfig,
    ProbeConfig,
    RunOptions,
    StageTimeouts,
    SubtreeConfig,
    ThorConfig,
    TransportConfig,
)
from repro.config import resolve_cache_dir
from repro.core.page import Page
from repro.core.probing import DeepWebSource, ProbeResult
from repro.core.thor import Thor, ThorResult
from repro.deepweb import make_site
from repro.errors import (
    ChunkFailedError,
    ConfigError,
    ResilienceError,
    ResumeError,
    StageTimeoutError,
    ThorError,
)
from repro.fleet import (
    FleetReport,
    FleetSpec,
    SiteOutcome,
    SiteSpec,
    format_fleet_report,
)
from repro.fleet import run_fleet as _run_fleet
from repro.frontier.service import (
    CrawlReport,
    format_crawl_report,
    refresh_corpus,
    run_crawl as _run_crawl,
)
from repro.probe import (
    FaultInjectingSource,
    FaultSpec,
    ProbeTelemetry,
    format_probe_report,
)
from repro.resilience import (
    FaultPlan,
    QuarantineRecord,
    RunReport,
    format_run_report,
)
from repro.transport.http import HttpFetcher

def crawl(
    fetch: Union[Callable[[str], str], object],
    seeds: Optional[Sequence[str]] = None,
    config: Optional[ThorConfig] = None,
    options: Optional[RunOptions] = None,
) -> CrawlReport:
    """Stage 0: crawl from ``seeds``, collecting pages and search forms.

    ``fetch`` is a ``fetch(url) -> html`` callable or an object with a
    ``.fetch`` method (e.g. :class:`repro.discovery.web.SimulatedWeb`,
    whose ``seed_url`` is then the default seed). ``config.crawl``
    shapes the crawl (page budget, batch size, depth cap, exclusions,
    per-site politeness rate); ``options.run_id`` names it for
    checkpointing and ``options.resume`` continues an interrupted crawl
    — the finished corpus digest is identical to an uninterrupted
    crawl's, at any ``--jobs`` level, including under a seeded
    ``options.fault_plan``.

    >>> from repro.discovery.web import SimulatedWeb
    >>> report = crawl(SimulatedWeb(n_pages=12, n_portals=2, seed=1))
    >>> report.pages_fetched > 0 and len(report.forms) > 0
    True
    """
    return _run_crawl(fetch, seeds, config=config, options=options)


def probe(source: DeepWebSource, config: Optional[ThorConfig] = None) -> ProbeResult:
    """Stage 1: sample ``source`` with dictionary and nonsense probes.

    Runs the concurrent probing subsystem (:mod:`repro.probe`):
    ``config.probing`` sets the worker bound, rate budget, timeout and
    retries, and the returned result carries a
    :class:`~repro.probe.telemetry.ProbeTelemetry` on ``.telemetry``.
    Seeded page/term contents are identical at every concurrency.

    >>> sample = probe(make_site(domain="ecommerce", seed=7))
    >>> len(sample.pages) > 0
    True
    >>> sample.telemetry.ok_count == len(sample.pages)
    True
    """
    return Thor(config or DEFAULT_CONFIG).probe(source)


def extract(
    pages: Sequence[Page],
    config: Optional[ThorConfig] = None,
    options: Optional[RunOptions] = None,
) -> ThorResult:
    """Stage 2: two-phase QA-Pagelet extraction over sampled pages.

    Pages whose analysis raises a :class:`ThorError` are quarantined
    and extraction degrades to the survivors (see
    ``ExecutionConfig.min_surviving_fraction``); the accounting rides
    on ``result.report``. A :class:`RunOptions` with a ``run_id``
    checkpoints the Phase-1 fit, and ``options.resume`` restores it —
    skipping the K-Means restarts with a bitwise-identical result;
    ``options.resume`` without a ``run_id`` raises :class:`ResumeError`,
    as it does for :func:`run`.
    """
    options = options if options is not None else RunOptions()
    return Thor(config or DEFAULT_CONFIG, fault_plan=options.fault_plan).extract(
        pages, options
    )


def run(
    source: DeepWebSource,
    config: Optional[ThorConfig] = None,
    options: Optional[RunOptions] = None,
) -> ThorResult:
    """The full pipeline: probe, extract, and partition ``source``.

    With ``options.run_id`` (and a persistent artifact cache
    configured), each completed stage is checkpointed;
    ``options.resume`` then skips checkpointed stages after a crash —
    the probe *and* the Phase-1 cluster fit — and reproduces the
    identical result digest. ``options.incremental`` re-extracts
    against the site's stored model (unchanged clusters replay, the
    delta is assigned to the stored clusters) with the digest of a
    cold run; ``options.fault_plan`` injects seeded chaos.
    """
    options = options if options is not None else RunOptions()
    return Thor(config or DEFAULT_CONFIG, fault_plan=options.fault_plan).run(
        source, options=options
    )


def run_fleet(
    spec: FleetSpec,
    config: Optional[ThorConfig] = None,
    options: Optional[RunOptions] = None,
) -> FleetReport:
    """Run (or resume) N sites as one job (:mod:`repro.fleet`).

    ``spec`` declares the sites (with tenants, priorities, and wave
    quotas); ``config`` applies to every site, with ``config.fleet``
    adding the scheduling knobs (``site_jobs`` worker processes across
    sites, ``max_sites_per_run`` as the graceful-drain budget);
    ``options.run_id`` names the fleet (default: derived from the spec
    fingerprint) and ``options.resume`` finishes an interrupted fleet —
    skipping ``done`` sites wholesale and resuming the rest from their
    probe/cluster checkpoints. Requires a persistent artifact store
    (``ExecutionConfig.cache_dir`` or ``REPRO_CACHE_DIR``).

    Per-site result digests are bitwise-identical to N sequential
    :func:`run` calls, however the fleet was sharded, interrupted, or
    resumed.
    """
    return _run_fleet(spec, config, options)


__all__ = [
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
