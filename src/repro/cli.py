"""Command-line interface for the THOR reproduction.

Subcommands::

    python -m repro.cli probe    --domain music --seed 3 --out pages.jsonl \
                                 --jobs 4 --rate 50 --probe-report
    python -m repro.cli extract  --pages pages.jsonl --out result.json
    python -m repro.cli run      --domain movies --jobs 4 --cache-dir .thor-cache \
                                 --run-id nightly --resume --report
    python -m repro.cli fleet    --sites ecommerce:7,jobs:3:acme,music:5 \
                                 --jobs 2 --cache-dir .thor-cache --resume
    python -m repro.cli crawl    --web-pages 60 --web-portals 6 --seed 1 \
                                 --max-pages 40 --rate 100 --jobs 4 \
                                 --cache-dir .thor-cache --crawl-id nightly
    python -m repro.cli demo     --domain ecommerce --seed 7
    python -m repro.cli search   --domains ecommerce,music --query camera
    python -m repro.cli artifacts-gc --cache-dir .thor-cache --max-bytes 100000000

``probe`` samples a simulated deep-web site and caches the pages;
``extract`` runs the two-phase extraction over a cached sample;
``run`` does probe + extract + partition in one shot and prints a
deterministic result digest (plus artifact-cache counters, for warm ==
cold verification); with ``--incremental`` a rerun diffs the corpus
against the stored site model and re-extracts only the delta, printing
skipped/assigned/refit counters; ``fleet`` submits many sites as one
resumable job
(per-site state in the fleet ledger, one aggregated report and fleet
digest); ``crawl`` drives the
checkpointed crawl frontier over a simulated web graph (politeness
lanes, dedup, ``--resume``) and prints a deterministic corpus digest;
``demo`` prints a human-readable summary; ``search`` spins up
the deep-web search engine over several simulated sources;
``artifacts-gc`` bounds and reports the persistent artifact cache.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from collections import Counter
from dataclasses import replace
from typing import Optional, Sequence

from repro.config import (
    INCREMENTAL_MODES,
    WATCHDOG_STAGES,
    ExecutionConfig,
    FleetConfig,
    IncrementalConfig,
    RunOptions,
    StageTimeouts,
    ThorConfig,
)
from repro.core.thor import Thor
from repro.deepweb.corpus import make_site
from repro.engine.engine import DeepWebSearchEngine
from repro.io.cache import load_pages, save_pages
from repro.io.export import export_result


def _thor_config(args: argparse.Namespace) -> ThorConfig:
    config = ThorConfig(seed=args.seed)
    if getattr(args, "k", None):
        config = replace(
            config, clustering=replace(config.clustering, k=args.k)
        )
    if getattr(args, "top_m", None):
        config = replace(
            config, clustering=replace(config.clustering, top_m=args.top_m)
        )
    jobs = getattr(args, "jobs", None)
    cache_dir = getattr(args, "cache_dir", None)
    no_artifact_cache = getattr(args, "no_artifact_cache", False)
    no_recovery = getattr(args, "no_recovery", False)
    chunk_retries = getattr(args, "chunk_retries", None)
    stage_timeout_entries = getattr(args, "stage_timeout", None)
    stage_timeouts = (
        StageTimeouts(
            **dict(pair for entry in stage_timeout_entries for pair in entry)
        )
        if stage_timeout_entries
        else None
    )
    min_surviving = getattr(args, "min_surviving_fraction", None)
    distance_memo = getattr(args, "distance_memo_entries", None)
    if (
        jobs is not None
        or cache_dir is not None
        or no_artifact_cache
        or no_recovery
        or chunk_retries is not None
        or stage_timeouts is not None
        or min_surviving is not None
        or distance_memo is not None
    ):
        defaults = ExecutionConfig()
        config = replace(
            config,
            execution=ExecutionConfig(
                n_jobs=1 if jobs is None else jobs,
                cache_dir=cache_dir,
                artifact_cache="off" if no_artifact_cache else "on",
                recovery="off" if no_recovery else "on",
                chunk_retries=defaults.chunk_retries
                if chunk_retries is None
                else chunk_retries,
                stage_timeouts=stage_timeouts,
                min_surviving_fraction=defaults.min_surviving_fraction
                if min_surviving is None
                else min_surviving,
                distance_memo_entries=defaults.distance_memo_entries
                if distance_memo is None
                else distance_memo,
            ),
        )
    if getattr(args, "rate", None):
        config = replace(
            config, probing=replace(config.probing, rate=args.rate)
        )
    drift_threshold = getattr(args, "drift_threshold", None)
    incremental_mode = getattr(args, "incremental_mode", None)
    if drift_threshold is not None or incremental_mode is not None:
        defaults = IncrementalConfig()
        config = replace(
            config,
            incremental=IncrementalConfig(
                drift_threshold=defaults.drift_threshold
                if drift_threshold is None
                else drift_threshold,
                mode=defaults.mode
                if incremental_mode is None
                else incremental_mode,
            ),
        )
    return config


def _fault_plan(args: argparse.Namespace):
    """A seeded chaos :class:`~repro.resilience.faults.FaultPlan` from
    the ``--chaos-*`` flags, or ``None`` when none are set."""
    rates = (
        getattr(args, "chaos_worker_crash_rate", 0.0),
        getattr(args, "chaos_chunk_error_rate", 0.0),
        getattr(args, "chaos_artifact_corrupt_rate", 0.0),
        getattr(args, "chaos_page_failure_rate", 0.0),
    )
    if not any(rates):
        return None
    from repro.resilience import FaultPlan

    chaos_seed = getattr(args, "chaos_seed", None)
    return FaultPlan(
        seed=args.seed if chaos_seed is None else chaos_seed,
        worker_crash_rate=rates[0],
        chunk_error_rate=rates[1],
        artifact_corrupt_rate=rates[2],
        page_failure_rate=rates[3],
    )


def _print_run_report(thor: Thor, args: argparse.Namespace) -> None:
    if getattr(args, "report", False):
        from repro.resilience import format_run_report

        print(format_run_report(thor.report()))


def _fault_wrap(site, args: argparse.Namespace):
    """Wrap ``site`` in a FaultInjectingSource when fault flags ask."""
    if not (args.fault_latency_ms or args.fault_error_rate
            or args.fault_throttle_rate):
        return site
    from repro.probe import FaultInjectingSource, FaultSpec

    return FaultInjectingSource(
        site,
        FaultSpec(
            latency_s=args.fault_latency_ms / 1000.0,
            error_rate=args.fault_error_rate,
            throttle_rate=args.fault_throttle_rate,
        ),
        seed=args.seed,
    )


def cmd_probe(args: argparse.Namespace) -> int:
    site = make_site(args.domain, seed=args.seed, records=args.records)
    source = _fault_wrap(site, args)
    thor = Thor(_thor_config(args))
    result = thor.probe(source)
    count = save_pages(list(result.pages), args.out)
    classes = Counter(
        getattr(p, "class_label", "?") for p in result.pages
    )
    print(f"Probed {site.theme.host}: {count} pages -> {args.out}")
    print(f"Class mix: {dict(classes)}")
    if args.probe_report and result.telemetry is not None:
        from repro.probe import format_probe_report

        print(format_probe_report(result.telemetry))
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    pages = load_pages(args.pages)
    if pages.skipped:
        print(
            f"warning: quarantined {pages.skipped} malformed line(s) in "
            f"{args.pages}",
            file=sys.stderr,
        )
    if not pages:
        print("no pages in cache", file=sys.stderr)
        return 1
    thor = Thor(_thor_config(args), fault_plan=_fault_plan(args))
    thor.record_quarantine(pages.quarantined)
    result = thor.partition(thor.extract(pages))
    export_result(result, args.out, include_html=args.html)
    print(
        f"Extracted {len(result.pagelets)} QA-Pagelets / "
        f"{sum(len(p.objects) for p in result.partitioned)} QA-Objects "
        f"from {len(result.pages)} pages -> {args.out}"
    )
    _print_artifact_stats(thor)
    _print_run_report(thor, args)
    return 0


def _print_artifact_stats(thor: Thor) -> None:
    stats = thor.artifact_stats()
    if stats is not None:
        print(
            "artifact-cache: hits={hits} misses={misses} puts={puts} "
            "bytes_written={bytes_written}".format(**stats)
        )


def cmd_run(args: argparse.Namespace) -> int:
    """Probe + extract + partition, with a deterministic result digest.

    The digest is the SHA-256 of the exported JSON, so two runs over
    the same site/seed — whatever the worker count, cache state, or
    recoverable-fault history — must print the same line; CI uses this
    to verify the warm == cold, parallel == serial, and resumed ==
    uninterrupted invariants end to end.
    """
    if args.resume and not args.run_id:
        print("--resume requires --run-id", file=sys.stderr)
        return 2
    config = _thor_config(args)
    site = make_site(args.domain, seed=args.seed, records=args.records)
    source = site
    if getattr(args, "drift_pages", 0):
        # Template-drift drill: mutate the pages the first N probe
        # terms will fetch, so an --incremental rerun sees a known
        # delta (CI asserts the skipped/assigned/refit counters).
        from repro.core.probing import QueryProber
        from repro.deepweb.templates import (
            TemplateDriftSource,
            mutate_page_structure,
            mutate_page_text,
        )

        terms = QueryProber(config.probing, seed=config.seed).select_terms()
        source = TemplateDriftSource(
            site,
            terms=terms[: args.drift_pages],
            mutate=mutate_page_structure
            if getattr(args, "drift_structure", False)
            else mutate_page_text,
            seed=args.seed,
        )
    thor = Thor(config, fault_plan=_fault_plan(args))
    result = thor.run(
        source,
        options=RunOptions(
            run_id=args.run_id,
            resume=args.resume,
            incremental=getattr(args, "incremental", False),
        ),
    )
    export_result(result, args.out, include_html=args.html)
    with open(args.out, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    print(
        f"Ran {site.theme.host}: {len(result.pages)} pages, "
        f"{len(result.pagelets)} QA-Pagelets, "
        f"{sum(len(p.objects) for p in result.partitioned)} QA-Objects "
        f"-> {args.out}"
    )
    print(f"result-digest: {digest}")
    if getattr(args, "incremental", False):
        from repro.resilience import format_incremental_counters

        print("incremental: " + format_incremental_counters(thor.report()))
    _print_artifact_stats(thor)
    _print_run_report(thor, args)
    return 0


def _parse_fleet_sites(text: str, records: int) -> list:
    """Parse ``--sites`` into :class:`~repro.fleet.SiteSpec` entries.

    Each comma-separated entry is ``domain[:seed[:tenant[:priority]]]``
    — e.g. ``ecommerce:7``, ``jobs:3:acme:2`` — and gets a stable
    ``site_id`` of ``{domain}-{seed}``.
    """
    from repro.fleet import SiteSpec

    sites = []
    for entry in (piece.strip() for piece in text.split(",")):
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) > 4:
            raise ValueError(
                f"bad --sites entry {entry!r}: expected "
                "domain[:seed[:tenant[:priority]]]"
            )
        domain = parts[0]
        try:
            seed = int(parts[1]) if len(parts) > 1 and parts[1] else 0
            priority = int(parts[3]) if len(parts) > 3 and parts[3] else 0
        except ValueError:
            raise ValueError(
                f"bad --sites entry {entry!r}: seed and priority must be "
                "integers"
            ) from None
        tenant = parts[2] if len(parts) > 2 and parts[2] else "default"
        sites.append(
            SiteSpec(
                site_id=f"{domain}-{seed}",
                domain=domain,
                seed=seed,
                records=records,
                tenant=tenant,
                priority=priority,
            )
        )
    if not sites:
        raise ValueError("--sites named no sites")
    return sites


def cmd_fleet(args: argparse.Namespace) -> int:
    """Submit (or resume) N sites as one job and print the fleet report.

    The printed report ends with a deterministic ``fleet-digest:`` line
    — the aggregate over per-site result digests, each bitwise-equal to
    what a sequential ``repro run`` of that site would produce — which
    CI uses to verify the fleet == sequential and resumed ==
    uninterrupted invariants. Exit status: 0 when every admitted site
    finished, 3 when some were quarantined, 2 on bad arguments.
    """
    from repro import api
    from repro.errors import ConfigError, ResumeError
    from repro.fleet import FleetSpec, format_fleet_report

    try:
        sites = _parse_fleet_sites(args.sites, args.records)
        quotas = tuple(
            (tenant, limit) for tenant, limit in (args.quota or [])
        )
        spec = FleetSpec(
            sites=tuple(sites),
            quotas=quotas,
            default_quota=args.default_quota,
        )
    except (ValueError, ConfigError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    config = _thor_config(args)
    # For a fleet, --jobs means sites in flight (FleetConfig.site_jobs);
    # each site keeps one fetch in flight.
    site_jobs = 1 if args.jobs is None else args.jobs
    config = replace(
        config,
        execution=replace(config.execution, n_jobs=1),
        fleet=FleetConfig(
            site_jobs=site_jobs, max_sites_per_run=args.max_sites
        ),
    )
    options = RunOptions(
        run_id=args.fleet_id,
        resume=args.resume,
        fault_plan=_fault_plan(args),
    )
    try:
        report = api.run_fleet(spec, config, options)
    except (ConfigError, ResumeError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(format_fleet_report(report))
    if getattr(args, "report", False) and report.scheduler is not None:
        from repro.resilience import format_run_report

        print(format_run_report(report.scheduler))
    return 3 if report.quarantined else 0


def _transport_config(args: argparse.Namespace):
    """A :class:`TransportConfig` with the CLI's overrides applied."""
    from repro.config import TransportConfig

    overrides: dict = {}
    if args.transport_connect_timeout is not None:
        overrides["connect_timeout_s"] = args.transport_connect_timeout
    if args.transport_read_timeout is not None:
        overrides["read_timeout_s"] = args.transport_read_timeout
    if args.transport_max_redirects is not None:
        overrides["max_redirects"] = args.transport_max_redirects
    if args.transport_max_bytes is not None:
        overrides["max_response_bytes"] = args.transport_max_bytes
    if args.no_robots:
        overrides["obey_robots"] = False
    if args.breaker_failures is not None:
        overrides["breaker_failures"] = args.breaker_failures
    if args.breaker_cooldown is not None:
        overrides["breaker_cooldown"] = args.breaker_cooldown
    return TransportConfig(**overrides)


def cmd_crawl(args: argparse.Namespace) -> int:
    """Run (or resume) a checkpointed crawl.

    Three fetch modes: the default simulated web, real HTTP from
    ``--url`` seeds through the hardened transport, or ``--hostile-ports``
    which stands up the in-process hostile HTTP harness on fixed ports
    and crawls it (the CI transport-smoke path). Prints the crawl
    report, ending with a deterministic ``corpus-digest:`` line —
    identical at any ``--jobs`` level and across ``--max-pages-per-run``
    + ``--resume`` boundaries — which CI uses to verify the interrupted
    == uninterrupted invariant. Exit status: 0 on success, 2 on bad
    arguments.
    """
    from repro import api
    from repro.config import CrawlConfig
    from repro.errors import ConfigError, ResumeError, ThorError
    from repro.frontier.service import format_crawl_report

    config = _thor_config(args)
    harness = None
    fetcher = None
    try:
        defaults = CrawlConfig()
        crawl_config = CrawlConfig(
            max_pages=args.max_pages,
            batch_size=args.batch_size,
            max_depth=args.max_depth,
            exclude=tuple(args.exclude or ()),
            rate=args.rate,
            burst=defaults.burst if args.burst is None else args.burst,
            max_pages_per_run=args.max_pages_per_run,
            corpus_shard_pages=args.shard_pages,
        )
        if args.hostile_ports or args.urls:
            from repro.transport.http import HttpFetcher

            transport_config = _transport_config(args)
            config = replace(
                config, crawl=crawl_config, transport=transport_config
            )
            if args.hostile_ports:
                from repro.transport.testserver import HostilePair

                try:
                    healthy_port, doomed_port = (
                        int(part) for part in args.hostile_ports.split(",")
                    )
                except ValueError:
                    raise ValueError(
                        "--hostile-ports takes two comma-separated ports, "
                        f"e.g. 8765,8766 (got {args.hostile_ports!r})"
                    )
                harness = HostilePair(
                    seed=args.seed,
                    healthy_port=healthy_port,
                    doomed_port=doomed_port,
                ).start()
                seeds = harness.seeds
            else:
                seeds = tuple(args.urls)
            fetcher = HttpFetcher(transport_config, seed=args.seed)
            fetch_source: object = fetcher
        else:
            from repro.discovery.web import SimulatedWeb

            config = replace(config, crawl=crawl_config)
            seeds = None
            fetch_source = SimulatedWeb(
                n_pages=args.web_pages,
                n_portals=args.web_portals,
                seed=args.seed,
                records_per_site=args.records,
            )
    except (ValueError, ThorError, OSError) as exc:
        if harness is not None:
            harness.stop()
        print(str(exc), file=sys.stderr)
        return 2
    options = RunOptions(
        run_id=args.crawl_id,
        resume=args.resume,
        fault_plan=_fault_plan(args),
    )
    try:
        report = api.crawl(fetch_source, seeds=seeds, config=config,
                           options=options)
    except (ConfigError, ResumeError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        if fetcher is not None:
            fetcher.close()
        if harness is not None:
            harness.stop()
    print(format_crawl_report(report))
    if args.out:
        import json

        with open(args.out, "w", encoding="utf-8") as handle:
            for page in report.pages:
                handle.write(
                    json.dumps(
                        {
                            "url": page.url,
                            "depth": page.depth,
                            "html": page.html,
                        },
                        ensure_ascii=False,
                    )
                    + "\n"
                )
        print(f"corpus: {len(report.pages)} pages -> {args.out}")
    return 0


def cmd_artifacts_gc(args: argparse.Namespace) -> int:
    """Bound the artifact cache and print a usage/counter report."""
    from repro.artifacts import artifact_report, collect, format_artifact_report

    root = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    if not root:
        print(
            "no cache directory: pass --cache-dir or set REPRO_CACHE_DIR",
            file=sys.stderr,
        )
        return 1
    if not os.path.isdir(root):
        print(f"no artifact store at {root}", file=sys.stderr)
        return 1
    max_age_s = None if args.max_age_days is None else args.max_age_days * 86400.0
    report = collect(root, max_bytes=args.max_bytes, max_age_s=max_age_s)
    print(
        f"gc: removed {report.removed_entries} of {report.scanned_entries} "
        f"entries ({report.removed_bytes} of {report.scanned_bytes} bytes)"
    )
    print(format_artifact_report(artifact_report(root)))
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    site = make_site(args.domain, seed=args.seed, records=args.records)
    thor = Thor(_thor_config(args))
    result = thor.run(site)
    print(f"Site: {site.theme.host} ({args.domain}, {len(site.database)} records)")
    print(f"Pages: {len(result.pages)}; pagelets: {len(result.pagelets)}")
    for part in result.partitioned[: args.show]:
        print(f"\nquery={part.pagelet.page.query!r} "
              f"pagelet={part.pagelet.path}")
        for obj in part.objects[:3]:
            text = " ".join(obj.text().split())
            print(f"  - {text[:76]}")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    engine = DeepWebSearchEngine(_thor_config(args))
    domains = [d.strip() for d in args.domains.split(",") if d.strip()]
    for index, domain in enumerate(domains):
        summary = engine.register(
            make_site(domain, seed=args.seed + index, records=args.records)
        )
        print(
            f"registered {summary.site}: {summary.objects_indexed} objects"
        )
    hits = engine.search(args.query, top_k=args.top_k)
    if not hits:
        print(f"\nno matches for {args.query!r}")
        return 0
    print(f"\nTop results for {args.query!r}:")
    for hit in hits:
        print(f"  {hit.score:.3f} [{hit.document.site}] "
              f"{hit.document.highlighted_snippet(args.query, 64)}")
    print("\nSources ranked:")
    for site_hit in engine.search_sites(args.query):
        print(
            f"  {site_hit.site}: {site_hit.matching_objects} matching "
            f"objects (score {site_hit.score:.2f})"
        )
    return 0


def _stage_timeout_entry(text: str):
    """Argparse type for ``--stage-timeout [STAGE=]SECONDS``: the
    ``(stage, seconds)`` pairs it sets — every stage when none is
    named."""
    stage, sep, value = text.rpartition("=")
    if not sep:
        stage = "every stage"
    elif stage not in WATCHDOG_STAGES:
        raise argparse.ArgumentTypeError(
            f"unknown stage {stage!r}; valid: {', '.join(WATCHDOG_STAGES)}"
        )
    try:
        seconds = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad deadline {value!r} for stage {stage!r}: not a number"
        ) from None
    if seconds <= 0:
        raise argparse.ArgumentTypeError(
            f"bad deadline {value!r} for stage {stage!r}: must be > 0"
        )
    return [
        (name, seconds)
        for name in WATCHDOG_STAGES
        if not sep or name == stage
    ]


def _quota_entry(text: str):
    """Argparse type for ``--quota TENANT=N``."""
    tenant, sep, value = text.partition("=")
    if not sep or not tenant:
        raise argparse.ArgumentTypeError(f"expected TENANT=N, got {text!r}")
    try:
        limit = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad quota {value!r} for tenant {tenant!r}: not an integer"
        ) from None
    return (tenant, limit)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="THOR deep-web QA-Pagelet extraction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--records", type=int, default=150)
        p.add_argument("--k", type=int, default=None, help="page clusters")
        p.add_argument("--top-m", type=int, default=None, dest="top_m",
                       help="clusters forwarded to phase 2")

    # Execution flags shared by every subcommand that computes
    # (extract/demo/search); they land on ThorConfig.execution.
    execution = argparse.ArgumentParser(add_help=False)
    execution.add_argument(
        "--jobs", type=int, default=None,
        help="a site's in-flight probe and crawl fetches (fleet: sites "
             "in flight, one worker process each; nothing else starts a "
             "process; default 1 = serial, 0 = one per core)",
    )
    execution.add_argument(
        "--cache-dir", default=None, dest="cache_dir",
        help="persistent artifact-cache directory (also honoured from "
             "the REPRO_CACHE_DIR environment variable)",
    )
    execution.add_argument(
        "--no-artifact-cache", action="store_true", dest="no_artifact_cache",
        help="disable the persistent artifact cache, even if "
             "REPRO_CACHE_DIR is set",
    )
    execution.add_argument(
        "--no-recovery", action="store_true", dest="no_recovery",
        help="fail fast on worker crashes instead of retrying and "
             "falling back to serial execution",
    )
    execution.add_argument(
        "--chunk-retries", type=int, default=None, dest="chunk_retries",
        help="parallel-chunk retry rounds before the serial fallback "
             "(default 2)",
    )
    execution.add_argument(
        "--stage-timeout", action="append", type=_stage_timeout_entry,
        default=None, dest="stage_timeout", metavar="[STAGE=]SECONDS",
        help="wall-clock watchdog deadline, repeatable: STAGE=SECONDS "
             "sets one stage ("
             + ", ".join(WATCHDOG_STAGES)
             + "), a bare SECONDS every stage; later entries win "
               "(default: no deadline)",
    )
    execution.add_argument(
        "--min-surviving-fraction", type=float, default=None,
        dest="min_surviving_fraction",
        help="abort extraction when fewer than this fraction of pages "
             "survives the quarantine scan (default 0.5)",
    )
    execution.add_argument(
        "--distance-memo-entries", type=int, default=None,
        dest="distance_memo_entries",
        help="LRU cap on memoized Phase-2 distance matrices "
             "(default 256; 0 disables the memo)",
    )
    execution.add_argument(
        "--report", action="store_true",
        help="print the run report (quarantined units, retries, "
             "fallbacks, timeouts, resume hits, injected faults)",
    )
    # Seeded chaos injection (repro.resilience.faults): deterministic
    # crash/corruption drills for the recovery machinery.
    execution.add_argument(
        "--chaos-seed", type=int, default=None, dest="chaos_seed",
        help="seed for the chaos fault plan (default: --seed)",
    )
    execution.add_argument(
        "--chaos-worker-crash-rate", type=float, default=0.0,
        dest="chaos_worker_crash_rate",
        help="injected worker-pool crash probability per chunk attempt",
    )
    execution.add_argument(
        "--chaos-chunk-error-rate", type=float, default=0.0,
        dest="chaos_chunk_error_rate",
        help="injected in-worker exception probability per chunk attempt",
    )
    execution.add_argument(
        "--chaos-artifact-corrupt-rate", type=float, default=0.0,
        dest="chaos_artifact_corrupt_rate",
        help="injected torn-write probability per artifact publish",
    )
    execution.add_argument(
        "--chaos-page-failure-rate", type=float, default=0.0,
        dest="chaos_page_failure_rate",
        help="injected page-analysis failure probability per page "
             "(quarantine drill)",
    )

    probe = sub.add_parser(
        "probe", help="probe a site, cache the pages", parents=[execution]
    )
    common(probe)
    probe.add_argument("--domain", default="ecommerce")
    probe.add_argument("--out", default="pages.jsonl")
    probe.add_argument(
        "--rate", type=float, default=None,
        help="per-site probe rate budget in probes/s (default unlimited)",
    )
    probe.add_argument(
        "--probe-report", action="store_true", dest="probe_report",
        help="print per-run probe telemetry (outcomes, retries, throughput)",
    )
    # Fault injection (repro.probe.faults): exercise retries and the
    # rate budget against a simulated misbehaving site.
    probe.add_argument("--fault-latency-ms", type=float, default=0.0,
                       dest="fault_latency_ms",
                       help="injected per-probe latency in milliseconds")
    probe.add_argument("--fault-error-rate", type=float, default=0.0,
                       dest="fault_error_rate",
                       help="injected transient server-error probability")
    probe.add_argument("--fault-throttle-rate", type=float, default=0.0,
                       dest="fault_throttle_rate",
                       help="injected throttling probability")
    probe.set_defaults(func=cmd_probe)

    extract = sub.add_parser(
        "extract", help="extract from cached pages", parents=[execution]
    )
    common(extract)
    extract.add_argument("--pages", required=True)
    extract.add_argument("--out", default="result.json")
    extract.add_argument("--html", action="store_true",
                         help="include pagelet HTML in the export")
    extract.set_defaults(func=cmd_extract)

    run = sub.add_parser(
        "run",
        help="probe + extract + partition, print a result digest",
        parents=[execution],
    )
    common(run)
    run.add_argument("--domain", default="ecommerce")
    run.add_argument("--out", default="result.json")
    run.add_argument("--html", action="store_true",
                     help="include pagelet HTML in the export")
    run.add_argument(
        "--run-id", default=None, dest="run_id",
        help="name this run and checkpoint completed stages in the "
             "artifact store (requires --cache-dir or REPRO_CACHE_DIR)",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="skip stages already checkpointed under --run-id "
             "(crash recovery; the result digest matches an "
             "uninterrupted run)",
    )
    run.add_argument(
        "--incremental", action="store_true",
        help="re-extract O(delta) against the stored site model: "
             "unchanged pages replay from cache, changed pages are "
             "assigned to stored clusters, and only drift past the "
             "threshold (or a model miss) triggers a full refit "
             "(requires --cache-dir or REPRO_CACHE_DIR; the result "
             "digest matches a from-scratch run bitwise)",
    )
    run.add_argument(
        "--incremental-mode", choices=list(INCREMENTAL_MODES),
        default=None, dest="incremental_mode",
        help="drift response for --incremental: auto lets "
             "--drift-threshold decide, assign never refits on drift, "
             "refit always refits (default auto)",
    )
    run.add_argument(
        "--drift-threshold", type=float, default=None,
        dest="drift_threshold",
        help="template drift (1 - Jaccard over tag paths) above this "
             "triggers a full refit under --incremental (default 0.35)",
    )
    run.add_argument(
        "--drift-pages", type=int, default=0, dest="drift_pages",
        help="drift drill: mutate the pages of the first N probe terms "
             "before extraction (deterministic per --seed)",
    )
    run.add_argument(
        "--drift-structure", action="store_true", dest="drift_structure",
        help="make --drift-pages mutate tag structure instead of text, "
             "displacing tag paths so --incremental trips the drift "
             "threshold and refits",
    )
    run.set_defaults(func=cmd_run)

    fleet = sub.add_parser(
        "fleet",
        help="run N sites as one resumable job, print a fleet digest",
        parents=[execution],
    )
    common(fleet)
    fleet.add_argument(
        "--sites", required=True,
        help="comma-separated site entries, each "
             "domain[:seed[:tenant[:priority]]] — e.g. "
             "'ecommerce:7,jobs:3:acme:2,music'",
    )
    fleet.add_argument(
        "--fleet-id", default=None, dest="fleet_id",
        help="name this fleet in the ledger (default: derived from the "
             "spec fingerprint, so --resume works without it)",
    )
    fleet.add_argument(
        "--resume", action="store_true",
        help="finish an interrupted fleet: skip sites already done, "
             "resume the rest from their probe/cluster checkpoints "
             "(the fleet digest matches an uninterrupted run)",
    )
    fleet.add_argument(
        "--max-sites", type=int, default=None, dest="max_sites",
        help="admit at most this many sites this invocation and defer "
             "the rest (graceful drain; finish with --resume)",
    )
    fleet.add_argument(
        "--quota", action="append", type=_quota_entry, default=None,
        metavar="TENANT=N",
        help="per-wave site cap for one tenant, repeatable",
    )
    fleet.add_argument(
        "--default-quota", type=int, default=None, dest="default_quota",
        help="per-wave site cap for tenants without an explicit --quota",
    )
    fleet.set_defaults(func=cmd_fleet)

    crawl = sub.add_parser(
        "crawl",
        help="crawl a simulated web (or real HTTP, with --url or "
             "--hostile-ports) through the checkpointed frontier, "
             "print a corpus digest",
        parents=[execution],
    )
    crawl.add_argument("--seed", type=int, default=0)
    crawl.add_argument(
        "--records", type=int, default=150,
        help="records per simulated portal site",
    )
    crawl.add_argument(
        "--web-pages", type=int, default=60, dest="web_pages",
        help="pages in the simulated web graph",
    )
    crawl.add_argument(
        "--web-portals", type=int, default=6, dest="web_portals",
        help="deep-web portal pages hidden in the graph",
    )
    crawl.add_argument(
        "--max-pages", type=int, default=200, dest="max_pages",
        help="total URL budget for the whole crawl (all invocations)",
    )
    crawl.add_argument(
        "--batch-size", type=int, default=8, dest="batch_size",
        help="frontier URLs per scheduling round (fingerprinted: fixed "
             "for the lifetime of a crawl id)",
    )
    crawl.add_argument(
        "--max-depth", type=int, default=None, dest="max_depth",
        help="deepest link depth to follow (default unlimited)",
    )
    crawl.add_argument(
        "--rate", type=float, default=None,
        help="per-site politeness budget in fetches/s (token bucket "
             "spanning the whole crawl; default unlimited)",
    )
    crawl.add_argument(
        "--burst", type=int, default=None,
        help="politeness token-bucket burst depth (default 2)",
    )
    crawl.add_argument(
        "--exclude", action="append", default=None, metavar="PATTERN",
        help="robots-style exclusion, repeatable: /path (any host), "
             "host (whole host), or host:/path",
    )
    crawl.add_argument(
        "--crawl-id", default=None, dest="crawl_id",
        help="name this crawl and checkpoint frontier state in the "
             "artifact store (default: derived from the crawl "
             "fingerprint, so --resume works without it)",
    )
    crawl.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted crawl from its checkpoint (the "
             "final corpus digest matches an uninterrupted crawl)",
    )
    crawl.add_argument(
        "--max-pages-per-run", type=int, default=None,
        dest="max_pages_per_run",
        help="stop after this many URL attempts this invocation and "
             "defer the rest (graceful drain; finish with --resume)",
    )
    crawl.add_argument(
        "--out", default=None,
        help="write the fetched corpus as JSONL (url, depth, html)",
    )
    crawl.add_argument(
        "--url", action="append", default=None, dest="urls", metavar="URL",
        help="crawl over real HTTP from this seed URL (repeatable; "
             "replaces the simulated web)",
    )
    crawl.add_argument(
        "--hostile-ports", default=None, dest="hostile_ports", metavar="A,B",
        help="start the bundled hostile two-site HTTP harness on these "
             "loopback ports and crawl it over real HTTP (fixed ports "
             "keep the corpus digest comparable across runs)",
    )
    crawl.add_argument(
        "--shard-pages", type=int, default=None, dest="shard_pages",
        help="checkpoint the corpus as immutable JSONL shards of this "
             "many pages (pacing knob; digest-neutral)",
    )
    crawl.add_argument(
        "--transport-connect-timeout", type=float, default=None,
        dest="transport_connect_timeout", metavar="S",
        help="TCP connect timeout in seconds (real-HTTP modes)",
    )
    crawl.add_argument(
        "--transport-read-timeout", type=float, default=None,
        dest="transport_read_timeout", metavar="S",
        help="per-recv socket read timeout in seconds (real-HTTP modes)",
    )
    crawl.add_argument(
        "--transport-max-redirects", type=int, default=None,
        dest="transport_max_redirects", metavar="N",
        help="redirect-chain cap before the fetch counts as malformed",
    )
    crawl.add_argument(
        "--transport-max-bytes", type=int, default=None,
        dest="transport_max_bytes", metavar="N",
        help="response-size cap in bytes before the body is abandoned",
    )
    crawl.add_argument(
        "--no-robots", action="store_true", dest="no_robots",
        help="skip robots.txt retrieval and enforcement (test servers)",
    )
    crawl.add_argument(
        "--breaker-failures", type=int, default=None, dest="breaker_failures",
        help="consecutive per-site failures that trip the circuit breaker",
    )
    crawl.add_argument(
        "--breaker-cooldown", type=int, default=None, dest="breaker_cooldown",
        help="rejected attempts an open breaker waits before half-open",
    )
    crawl.set_defaults(func=cmd_crawl)

    gc = sub.add_parser(
        "artifacts-gc",
        help="evict old artifact-cache entries, print usage stats",
    )
    gc.add_argument("--cache-dir", default=None, dest="cache_dir",
                    help="artifact store root (default: REPRO_CACHE_DIR)")
    gc.add_argument("--max-bytes", type=int, default=None, dest="max_bytes",
                    help="evict oldest entries until the store fits")
    gc.add_argument("--max-age-days", type=float, default=None,
                    dest="max_age_days",
                    help="evict entries older than this many days")
    gc.set_defaults(func=cmd_artifacts_gc)

    demo = sub.add_parser(
        "demo", help="probe + extract + print", parents=[execution]
    )
    common(demo)
    demo.add_argument("--domain", default="ecommerce")
    demo.add_argument("--show", type=int, default=3)
    demo.set_defaults(func=cmd_demo)

    search = sub.add_parser(
        "search", help="deep-web search engine demo", parents=[execution]
    )
    common(search)
    search.add_argument("--domains", default="ecommerce,music")
    search.add_argument("--query", required=True)
    search.add_argument("--top-k", type=int, default=8, dest="top_k")
    search.set_defaults(func=cmd_search)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
