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

Every flag that configures the pipeline names the field it sets as
its argparse ``dest``: a :class:`~repro.config.ThorConfig` path
(``--k`` sets ``clustering.k``, ``--shard-pages`` sets
``crawl.corpus_shard_pages``), or a ``fault_plan.`` path for the
``--chaos-*`` flags and probe's ``--fault-*`` flags. An unset flag
leaves nothing on the namespace, so its field keeps the dataclass
default. :func:`main` builds the config and the fault plan once and
exits 2 when a config rejects a value. A run that fails (any
:class:`~repro.errors.ThorError`) prints its message and exits 1, or 2
for a :class:`~repro.errors.ConfigError` or
:class:`~repro.errors.ResumeError`.
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
    RunOptions,
    StageTimeouts,
    ThorConfig,
)
from repro.core.thor import Thor
from repro.deepweb.corpus import make_site
from repro.engine.engine import DeepWebSearchEngine
from repro.io.cache import load_pages, save_pages
from repro.io.export import export_result
from repro.resilience.faults import FaultPlan, FaultSpec


#: Dest prefix of the flags that set fields of the chaos
#: :class:`~repro.resilience.faults.FaultPlan`; every other dotted dest
#: is a :class:`ThorConfig` field path.
_PLAN = "fault_plan."


def _with_fields(obj, values: dict):
    """``obj`` with each ``field`` or ``field.sub...`` path of ``values``
    set: one :func:`dataclasses.replace` per dataclass it touches.

    >>> _with_fields(ThorConfig(), {"clustering.k": 3}).clustering.k
    3
    """
    fields: dict = {}
    nested: dict = {}
    for path, value in values.items():
        name, dot, rest = path.partition(".")
        if dot:
            nested.setdefault(name, {})[rest] = value
        else:
            fields[name] = value
    for name, sub in nested.items():
        fields[name] = _with_fields(getattr(obj, name), sub)
    return replace(obj, **fields)


def _thor_config(args: argparse.Namespace) -> ThorConfig:
    """The :class:`ThorConfig` the flags name. A flag that sets a field
    has the field's path as its dest and puts nothing on the namespace
    when left unset, so the field keeps its dataclass default."""
    return _with_fields(
        ThorConfig(seed=args.seed),
        {
            dest: value
            for dest, value in vars(args).items()
            if "." in dest and not dest.startswith(_PLAN)
        },
    )


def _fault_plan(args: argparse.Namespace) -> Optional[FaultPlan]:
    """The seeded chaos :class:`~repro.resilience.faults.FaultPlan` the
    ``--chaos-*`` and probe's ``--fault-*`` flags name (seeded from
    ``--seed`` unless ``--chaos-seed``), or ``None`` when they ask for
    no fault. The ``--fault-*`` flags fill the plan's ``source``, which
    :class:`Thor` wraps around the probed site."""
    plan = _with_fields(
        FaultPlan(seed=args.seed, source=FaultSpec()),
        {
            dest[len(_PLAN):]: value
            for dest, value in vars(args).items()
            if dest.startswith(_PLAN)
        },
    )
    if plan.source == FaultSpec():
        plan = replace(plan, source=None)
    return None if plan == FaultPlan(seed=plan.seed) else plan


def _print_run_report(thor: Thor, args: argparse.Namespace) -> None:
    if args.report:
        from repro.resilience import format_run_report

        print(format_run_report(thor.report()))


def cmd_probe(
    args: argparse.Namespace, config: ThorConfig, plan: Optional[FaultPlan]
) -> int:
    site = make_site(args.domain, seed=args.seed, records=args.records)
    result = Thor(config, fault_plan=plan).probe(site)
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


def cmd_extract(
    args: argparse.Namespace, config: ThorConfig, plan: Optional[FaultPlan]
) -> int:
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
    thor = Thor(config, fault_plan=plan)
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


def cmd_run(
    args: argparse.Namespace, config: ThorConfig, plan: Optional[FaultPlan]
) -> int:
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
    site = make_site(args.domain, seed=args.seed, records=args.records)
    source = site
    if args.drift_pages:
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
            if args.drift_structure
            else mutate_page_text,
            seed=args.seed,
        )
    thor = Thor(config, fault_plan=plan)
    result = thor.run(
        source,
        options=RunOptions(
            run_id=args.run_id, resume=args.resume, incremental=args.incremental
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
    if args.incremental:
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


def cmd_fleet(
    args: argparse.Namespace, config: ThorConfig, plan: Optional[FaultPlan]
) -> int:
    """Submit (or resume) N sites as one job and print the fleet report.

    The printed report ends with a deterministic ``fleet-digest:`` line
    — the aggregate over per-site result digests, each bitwise-equal to
    what a sequential ``repro run`` of that site would produce — which
    CI uses to verify the fleet == sequential and resumed ==
    uninterrupted invariants. Exit status: 0 when every admitted site
    finished, 3 when some were quarantined, 2 on bad arguments.
    """
    from repro import api
    from repro.errors import ConfigError
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
    options = RunOptions(
        run_id=args.fleet_id, resume=args.resume, fault_plan=plan
    )
    report = api.run_fleet(spec, config, options)
    print(format_fleet_report(report))
    if args.report and report.scheduler is not None:
        from repro.resilience import format_run_report

        print(format_run_report(report.scheduler))
    return 3 if report.quarantined else 0


def cmd_crawl(
    args: argparse.Namespace, config: ThorConfig, plan: Optional[FaultPlan]
) -> int:
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
    from repro.errors import ThorError
    from repro.frontier.service import format_crawl_report

    harness = None
    fetcher = None
    seeds = None
    try:
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
        elif args.urls:
            seeds = tuple(args.urls)
        if seeds is None:
            from repro.discovery.web import SimulatedWeb

            fetch_source: object = SimulatedWeb(
                n_pages=args.web_pages,
                n_portals=args.web_portals,
                seed=args.seed,
                records_per_site=args.records,
            )
        else:
            from repro.transport.http import HttpFetcher

            fetch_source = fetcher = HttpFetcher(
                config.transport, seed=args.seed
            )
    except (ValueError, ThorError, OSError) as exc:
        if harness is not None:
            harness.stop()
        print(str(exc), file=sys.stderr)
        return 2
    options = RunOptions(
        run_id=args.crawl_id, resume=args.resume, fault_plan=plan
    )
    try:
        report = api.crawl(fetch_source, seeds=seeds, config=config,
                           options=options)
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
    # Every store a run, fleet or crawl writes keeps its stats.json
    # ledger at the root. GC deletes every .json/.npz file below the
    # directory it is given, so it touches no directory without one.
    if not os.path.isfile(os.path.join(root, "stats.json")):
        print(f"no artifact store at {root}", file=sys.stderr)
        return 1
    max_age_s = None if args.max_age_days is None else args.max_age_days * 86400.0
    try:
        report = collect(root, max_bytes=args.max_bytes, max_age_s=max_age_s)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(
        f"gc: removed {report.removed_entries} of {report.scanned_entries} "
        f"entries ({report.removed_bytes} of {report.scanned_bytes} bytes)"
    )
    print(format_artifact_report(artifact_report(root)))
    return 0


def cmd_demo(
    args: argparse.Namespace, config: ThorConfig, plan: Optional[FaultPlan]
) -> int:
    site = make_site(args.domain, seed=args.seed, records=args.records)
    result = Thor(config, fault_plan=plan).run(site)
    print(f"Site: {site.theme.host} ({args.domain}, {len(site.database)} records)")
    print(f"Pages: {len(result.pages)}; pagelets: {len(result.pagelets)}")
    for part in result.partitioned[: args.show]:
        print(f"\nquery={part.pagelet.page.query!r} "
              f"pagelet={part.pagelet.path}")
        for obj in part.objects[:3]:
            text = " ".join(obj.text().split())
            print(f"  - {text[:76]}")
    return 0


def cmd_search(
    args: argparse.Namespace, config: ThorConfig, plan: Optional[FaultPlan]
) -> int:
    engine = DeepWebSearchEngine(config, fault_plan=plan)
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


def _stage_timeout_entry(text: str) -> dict:
    """Argparse type for ``--stage-timeout [STAGE=]SECONDS``: the
    deadline of each stage it sets — every stage when none is named."""
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
    return {
        name: seconds for name in WATCHDOG_STAGES if not sep or name == stage
    }


class _StageTimeoutAction(argparse.Action):
    """Folds each ``--stage-timeout`` entry into one
    :class:`StageTimeouts`, a later entry overriding an earlier one."""

    def __call__(self, parser, namespace, values, option_string=None):
        timeouts = getattr(namespace, self.dest, StageTimeouts())
        setattr(namespace, self.dest, replace(timeouts, **values))


def _milliseconds(text: str) -> float:
    """Argparse type for ``--fault-latency-ms``: the flag takes
    milliseconds, :attr:`FaultSpec.latency_s` holds seconds."""
    try:
        return float(text) / 1000.0
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None


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


def _field_flag(
    parser: argparse.ArgumentParser, option: str, path: str, **kwargs
) -> None:
    """Add ``option`` as the flag that sets field ``path``: a
    :class:`ThorConfig` path such as ``clustering.k``, or a ``fault_plan.``
    one. Left unset, the flag puts nothing on the namespace, so the
    field keeps its dataclass default; its metavar is the one argparse
    derives from the option name."""
    if "choices" not in kwargs:
        kwargs.setdefault("metavar", option[2:].replace("-", "_").upper())
    parser.add_argument(option, dest=path, default=argparse.SUPPRESS, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="THOR deep-web QA-Pagelet extraction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, jobs: str = "execution.n_jobs"):
        """A computing subcommand with the execution and chaos flags
        every one of them shares; ``--jobs`` sets field ``jobs``."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        _field_flag(
            p, "--jobs", jobs, type=int,
            help="a site's in-flight probe and crawl fetches (fleet: sites "
                 "in flight, one worker process each; nothing else starts a "
                 "process; default 1 = serial, 0 = one per core)",
        )
        _field_flag(
            p, "--cache-dir", "execution.cache_dir",
            help="persistent artifact-cache directory (also honoured from "
                 "the REPRO_CACHE_DIR environment variable)",
        )
        _field_flag(
            p, "--no-artifact-cache", "execution.artifact_cache",
            action="store_const", const="off",
            help="disable the persistent artifact cache, even if "
                 "REPRO_CACHE_DIR is set",
        )
        _field_flag(
            p, "--no-recovery", "execution.recovery",
            action="store_const", const="off",
            help="fail fast on worker crashes instead of retrying and "
                 "falling back to serial execution (fleet only: a site run "
                 "starts no worker)",
        )
        _field_flag(
            p, "--chunk-retries", "execution.chunk_retries", type=int,
            help="parallel-chunk retry rounds before the serial fallback "
                 "(default 2; fleet only: a site run starts no worker)",
        )
        _field_flag(
            p, "--stage-timeout", "execution.stage_timeouts",
            action=_StageTimeoutAction, type=_stage_timeout_entry,
            metavar="[STAGE=]SECONDS",
            help="wall-clock watchdog deadline, repeatable: STAGE=SECONDS "
                 "sets one stage ("
                 + ", ".join(WATCHDOG_STAGES)
                 + "), a bare SECONDS every stage; later entries win "
                   "(default: no deadline)",
        )
        _field_flag(
            p, "--min-surviving-fraction", "execution.min_surviving_fraction",
            type=float,
            help="abort extraction when fewer than this fraction of pages "
                 "survives the quarantine scan (default 0.5)",
        )
        _field_flag(
            p, "--distance-memo-entries", "execution.distance_memo_entries",
            type=int,
            help="LRU cap on memoized Phase-2 distance matrices "
                 "(default 256; 0 disables the memo)",
        )
        p.add_argument(
            "--report", action="store_true",
            help="print the run report (quarantined units, retries, "
                 "fallbacks, timeouts, resume hits, injected faults)",
        )
        # Seeded chaos injection (repro.resilience.faults): deterministic
        # crash/corruption drills for the recovery machinery.
        _field_flag(
            p, "--chaos-seed", "fault_plan.seed", type=int,
            help="seed for the chaos fault plan (default: --seed)",
        )
        _field_flag(
            p, "--chaos-worker-crash-rate", "fault_plan.worker_crash_rate",
            type=float,
            help="injected worker-pool crash probability per chunk attempt "
                 "(fleet only: a site run starts no worker)",
        )
        _field_flag(
            p, "--chaos-chunk-error-rate", "fault_plan.chunk_error_rate",
            type=float,
            help="injected in-worker exception probability per chunk "
                 "attempt (fleet only: a site run starts no worker)",
        )
        _field_flag(
            p, "--chaos-artifact-corrupt-rate",
            "fault_plan.artifact_corrupt_rate", type=float,
            help="injected torn-write probability per artifact publish",
        )
        _field_flag(
            p, "--chaos-page-failure-rate", "fault_plan.page_failure_rate",
            type=float,
            help="injected page-analysis failure probability per page "
                 "(quarantine drill)",
        )
        return p

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--records", type=int, default=150)
        _field_flag(p, "--k", "clustering.k", type=int, help="page clusters")
        _field_flag(p, "--top-m", "clustering.top_m", type=int,
                    help="clusters forwarded to phase 2")

    probe = command("probe", cmd_probe, "probe a site, cache the pages")
    common(probe)
    probe.add_argument("--domain", default="ecommerce")
    probe.add_argument("--out", default="pages.jsonl")
    _field_flag(
        probe, "--rate", "probing.rate", type=float,
        help="per-site probe rate budget in probes/s (default unlimited)",
    )
    probe.add_argument(
        "--probe-report", action="store_true", dest="probe_report",
        help="print per-run probe telemetry (outcomes, retries, throughput)",
    )
    # Fault injection (repro.probe.faults): exercise retries and the
    # rate budget against a simulated misbehaving site. The flags fill
    # the chaos plan's source faults.
    _field_flag(probe, "--fault-latency-ms", "fault_plan.source.latency_s",
                type=_milliseconds,
                help="injected per-probe latency in milliseconds")
    _field_flag(probe, "--fault-error-rate", "fault_plan.source.error_rate",
                type=float,
                help="injected transient server-error probability")
    _field_flag(probe, "--fault-throttle-rate",
                "fault_plan.source.throttle_rate", type=float,
                help="injected throttling probability")

    extract = command("extract", cmd_extract, "extract from cached pages")
    common(extract)
    extract.add_argument("--pages", required=True)
    extract.add_argument("--out", default="result.json")
    extract.add_argument("--html", action="store_true",
                         help="include pagelet HTML in the export")

    run = command(
        "run", cmd_run, "probe + extract + partition, print a result digest"
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
    _field_flag(
        run, "--incremental-mode", "incremental.mode",
        choices=list(INCREMENTAL_MODES),
        help="drift response for --incremental: auto lets "
             "--drift-threshold decide, assign never refits on drift, "
             "refit always refits (default auto)",
    )
    _field_flag(
        run, "--drift-threshold", "incremental.drift_threshold", type=float,
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

    fleet = command(
        "fleet", cmd_fleet,
        "run N sites as one resumable job, print a fleet digest",
        jobs="fleet.site_jobs",
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
    _field_flag(
        fleet, "--max-sites", "fleet.max_sites_per_run", type=int,
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

    crawl = command(
        "crawl", cmd_crawl,
        "crawl a simulated web (or real HTTP, with --url or "
        "--hostile-ports) through the checkpointed frontier, "
        "print a corpus digest",
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
    _field_flag(
        crawl, "--max-pages", "crawl.max_pages", type=int,
        help="total URL budget for the whole crawl (all invocations)",
    )
    _field_flag(
        crawl, "--batch-size", "crawl.batch_size", type=int,
        help="frontier URLs per scheduling round (fingerprinted: fixed "
             "for the lifetime of a crawl id)",
    )
    _field_flag(
        crawl, "--max-depth", "crawl.max_depth", type=int,
        help="deepest link depth to follow (default unlimited)",
    )
    _field_flag(
        crawl, "--rate", "crawl.rate", type=float,
        help="per-site politeness budget in fetches/s (token bucket "
             "spanning the whole crawl; default unlimited)",
    )
    _field_flag(
        crawl, "--burst", "crawl.burst", type=int,
        help="politeness token-bucket burst depth (default 2)",
    )
    _field_flag(
        crawl, "--exclude", "crawl.exclude", action="append",
        metavar="PATTERN",
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
    _field_flag(
        crawl, "--max-pages-per-run", "crawl.max_pages_per_run", type=int,
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
    _field_flag(
        crawl, "--shard-pages", "crawl.corpus_shard_pages", type=int,
        help="checkpoint the corpus as immutable JSONL shards of this "
             "many pages (pacing knob; digest-neutral)",
    )
    _field_flag(
        crawl, "--transport-connect-timeout", "transport.connect_timeout_s",
        type=float, metavar="S",
        help="TCP connect timeout in seconds (real-HTTP modes)",
    )
    _field_flag(
        crawl, "--transport-read-timeout", "transport.read_timeout_s",
        type=float, metavar="S",
        help="per-recv socket read timeout in seconds (real-HTTP modes)",
    )
    _field_flag(
        crawl, "--transport-max-redirects", "transport.max_redirects",
        type=int, metavar="N",
        help="redirect-chain cap before the fetch counts as malformed",
    )
    _field_flag(
        crawl, "--transport-max-bytes", "transport.max_response_bytes",
        type=int, metavar="N",
        help="response-size cap in bytes before the body is abandoned",
    )
    _field_flag(
        crawl, "--no-robots", "transport.obey_robots",
        action="store_const", const=False,
        help="skip robots.txt retrieval and enforcement (test servers)",
    )
    _field_flag(
        crawl, "--breaker-failures", "transport.breaker_failures", type=int,
        help="consecutive per-site failures that trip the circuit breaker",
    )
    _field_flag(
        crawl, "--breaker-cooldown", "transport.breaker_cooldown", type=int,
        help="rejected attempts an open breaker waits before half-open",
    )

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

    demo = command("demo", cmd_demo, "probe + extract + print")
    common(demo)
    demo.add_argument("--domain", default="ecommerce")
    demo.add_argument("--show", type=int, default=3)

    search = command("search", cmd_search, "deep-web search engine demo")
    common(search)
    search.add_argument("--domains", default="ecommerce,music")
    search.add_argument("--query", required=True)
    search.add_argument("--top-k", type=int, default=8, dest="top_k")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.errors import ConfigError, ResumeError, ThorError

    args = build_parser().parse_args(argv)
    if args.func is cmd_artifacts_gc:  # the one command without a pipeline
        return cmd_artifacts_gc(args)
    try:
        config, plan = _thor_config(args), _fault_plan(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        return args.func(args, config, plan)
    except (ConfigError, ResumeError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ThorError as exc:  # a pipeline failure, e.g. too few pages survived
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
