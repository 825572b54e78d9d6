"""The fleet driver: N sites as one resumable job.

:func:`run_fleet` takes one :class:`~repro.fleet.spec.FleetSpec` and
drives every site through the full pipeline, sharding sites over
:func:`repro.runtime.run_chunked` — the only code that starts worker
processes, so sites are the one process-parallel axis — and so fleet
fan-out inherits worker-crash recovery, seeded chaos injection, and
transport accounting. Per-site progress
lands in the persistent :class:`~repro.fleet.ledger.FleetLedger`; a
crashed or drained invocation is finished by resubmitting with
``resume=True``, which skips ``done`` sites wholesale and resumes the
rest from their probe/cluster checkpoints.

The invariant everything here preserves: a sharded, interrupted, or
resumed fleet produces per-site result digests bitwise-identical to N
sequential :func:`repro.api.run` calls. Scheduling moves work between
processes and invocations; it never changes a byte of any result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.artifacts.keys import sha256_hex
from repro.config import (
    DEFAULT_CONFIG,
    RunOptions,
    ThorConfig,
    resolve_n_jobs,
)
from repro.core.thor import Thor
from repro.errors import ConfigError, ResumeError, ThorError
from repro.fleet.ledger import (
    STATE_DONE,
    STATE_EXTRACTING,
    STATE_PROBING,
    STATE_QUARANTINED,
    FleetLedger,
)
from repro.fleet.spec import FleetSpec, SiteSpec
from repro.resilience.faults import FaultPlan, activate_fault_plan
from repro.resilience.report import (
    RunReport,
    RunReportBuilder,
    activate_report,
)
from repro.runtime import artifact_store_for, run_chunked


@dataclass(frozen=True)
class SiteOutcome:
    """How one site of a fleet invocation ended."""

    site_id: str
    tenant: str
    #: ``done`` or ``quarantined``.
    state: str
    #: Canonical result digest of a ``done`` site.
    digest: Optional[str] = None
    #: ``"ExceptionType: message"`` of a quarantined site.
    error: Optional[str] = None
    #: Stage checkpoints the site's run restored ("probe", "cluster").
    resumed_stages: tuple[str, ...] = ()
    #: True when the ledger already marked the site ``done`` and the
    #: run was skipped wholesale (digest reused, nothing recomputed).
    skipped: bool = False
    #: The site run's resilience ledger (``None`` for skipped sites).
    report: Optional[RunReport] = field(default=None, repr=False, compare=False)
    #: The site run's artifact-cache counters (hits/misses/puts) —
    #: how much of the site came warm from the store.
    artifact_stats: Optional[dict] = field(default=None, compare=False)

    @property
    def resumed(self) -> bool:
        """True when resuming saved this site any work at all."""
        return self.skipped or bool(self.resumed_stages)


@dataclass(frozen=True)
class FleetReport:
    """Aggregated outcome of one fleet invocation."""

    fleet_id: str
    #: The spec fingerprint the ledger is keyed by.
    fingerprint: str
    #: Per-site outcomes, in scheduling (wave) order.
    outcomes: tuple[SiteOutcome, ...]
    #: Sites not admitted this invocation (``max_sites_per_run``
    #: drain); they stay ``queued`` for a resumed invocation.
    deferred: tuple[str, ...] = ()
    #: How many scheduling waves the spec unfolded into.
    waves: int = 0
    #: One digest over every ``done`` site's result digest (sorted by
    #: site id) — two fleet invocations agree iff every site agreed.
    aggregate_digest: str = ""
    #: Fan-out accounting of the fleet scheduler itself (chunk retries,
    #: serial fallbacks, transport bytes for the ``fleet`` label).
    scheduler: Optional[RunReport] = field(
        default=None, repr=False, compare=False
    )
    #: Artifact-store counters observed by the driving process.
    artifact_stats: Optional[dict] = field(default=None, compare=False)

    @property
    def done(self) -> tuple[SiteOutcome, ...]:
        return tuple(o for o in self.outcomes if o.state == STATE_DONE)

    @property
    def quarantined(self) -> tuple[SiteOutcome, ...]:
        return tuple(o for o in self.outcomes if o.state == STATE_QUARANTINED)

    @property
    def sites_resumed(self) -> int:
        """Sites that reused any checkpointed work (wholesale skips
        plus stage-level probe/cluster resume hits)."""
        return sum(1 for o in self.outcomes if o.resumed)

    @property
    def resume_hits(self) -> dict:
        """Stage-level resume-hit counters aggregated across sites
        (``{"site": wholesale skips, "probe": ..., "cluster": ...}``)."""
        counts: dict[str, int] = {}
        for outcome in self.outcomes:
            if outcome.skipped:
                counts["site"] = counts.get("site", 0) + 1
            for stage in outcome.resumed_stages:
                counts[stage] = counts.get(stage, 0) + 1
        return counts

    def digest_for(self, site_id: str) -> Optional[str]:
        for outcome in self.outcomes:
            if outcome.site_id == site_id:
                return outcome.digest
        return None


def aggregate_digest(outcomes: Sequence[SiteOutcome]) -> str:
    """The fleet-level fingerprint: SHA-256 over each ``done`` site's
    ``site_id:digest`` line, sorted by site id (scheduling order and
    wave boundaries must not matter — only results do)."""
    lines = sorted(
        f"{o.site_id}:{o.digest}"
        for o in outcomes
        if o.state == STATE_DONE and o.digest
    )
    return sha256_hex("\n".join(lines))


def default_fleet_id(spec: FleetSpec) -> str:
    """The spec-keyed fleet id used when none is given: resubmitting
    the same spec addresses the same ledger."""
    return f"fleet-{spec.fingerprint()[:12]}"


# -- the per-site worker ----------------------------------------------------
#
# Module-level and driven only by picklable values, so the same
# function serves the inline path (site_jobs=1), the process pool, and
# run_chunked's serial fallback identically. A site run starts no
# process of its own, so pools never nest.


def _fleet_site_worker(payload, sites: Sequence[SiteSpec]) -> list:
    """Run each site of one chunk through the full pipeline."""
    config, fleet_id, fault_plan = payload
    store = artifact_store_for(config.execution)
    ledger = FleetLedger(store, fleet_id)
    outcomes = []
    for site in sites:
        outcomes.append(
            _run_one_site(config, ledger, site, fault_plan)
        )
    return outcomes


def _run_one_site(
    config: ThorConfig,
    ledger: FleetLedger,
    site: SiteSpec,
    fault_plan: Optional[FaultPlan],
) -> SiteOutcome:
    """One site, end to end, with ledger transitions at stage starts.

    Sites always run ``resume=True`` under their own run id
    (``<fleet_id>/<site_id>``): stage checkpoints are digest-neutral,
    so reusing them is never wrong, and it is exactly what finishes a
    site that crashed mid-run. A run manifest written under a
    *different* configuration (fleet id reused across configs) is
    discarded and the site recomputes from scratch.
    """
    run_id = f"{ledger.fleet_id}/{site.site_id}"

    def on_stage(stage: str) -> None:
        if stage == "probe":
            ledger.set_state(site.site_id, STATE_PROBING)
        elif stage == "extract":
            ledger.set_state(site.site_id, STATE_EXTRACTING)

    options = RunOptions(run_id=run_id, resume=True, on_stage=on_stage)
    thor = Thor(config, fault_plan=fault_plan)
    try:
        try:
            result = thor.run(site.build_source(), options=options)
        except ResumeError:
            # The run id exists under another configuration fingerprint
            # (a reused fleet id). Recompute fresh — a fleet must never
            # splice another config's checkpoints into its results.
            thor = Thor(config, fault_plan=fault_plan)
            result = thor.run(
                site.build_source(), options=replace(options, resume=False)
            )
    except ThorError as exc:
        error = f"{type(exc).__name__}: {exc}"
        ledger.set_state(site.site_id, STATE_QUARANTINED, error=error)
        return SiteOutcome(
            site_id=site.site_id,
            tenant=site.tenant,
            state=STATE_QUARANTINED,
            error=error,
            artifact_stats=thor.artifact_stats(),
        )
    from repro.io.export import result_digest

    digest = result_digest(result)
    ledger.set_state(site.site_id, STATE_DONE, digest=digest)
    report = result.report
    return SiteOutcome(
        site_id=site.site_id,
        tenant=site.tenant,
        state=STATE_DONE,
        digest=digest,
        resumed_stages=tuple(report.resume_hits) if report else (),
        report=report,
        artifact_stats=thor.artifact_stats(),
    )


# -- the driver -------------------------------------------------------------


def run_fleet(
    spec: FleetSpec,
    config: Optional[ThorConfig] = None,
    options: Optional[RunOptions] = None,
) -> FleetReport:
    """Run (or resume) one fleet job; returns its aggregated report.

    ``config`` applies to every site (``config.fleet`` adds the
    scheduling knobs: ``site_jobs`` workers across sites,
    ``max_sites_per_run`` as the graceful-drain budget).
    ``options.run_id`` names the fleet (default: derived from the spec
    fingerprint, so resubmitting the same spec resumes the same
    ledger); ``options.resume`` skips sites the ledger already marks
    ``done``, reusing their recorded digests; ``options.fault_plan``
    passes through to every site run.

    Requires a persistent artifact store
    (``ExecutionConfig.cache_dir`` or ``REPRO_CACHE_DIR``) — a fleet
    without a ledger could not survive anything.
    """
    config = config if config is not None else DEFAULT_CONFIG
    options = options if options is not None else RunOptions()
    execution = config.execution
    store = artifact_store_for(execution)
    if store is None:
        raise ConfigError(
            "fleet jobs need a persistent artifact store: set "
            "ExecutionConfig.cache_dir (or REPRO_CACHE_DIR)"
        )
    fleet_id = options.run_id or default_fleet_id(spec)
    fingerprint = spec.fingerprint()
    ledger = FleetLedger.open(store, fleet_id, fingerprint, options.resume)
    if not options.resume:
        for site in spec.sites:
            ledger.reset_site(site.site_id)

    site_jobs = resolve_n_jobs(None, config.fleet.site_jobs)
    waves = spec.waves()
    payload = (config, fleet_id, options.fault_plan)
    budget = config.fleet.max_sites_per_run
    attempted = 0
    outcomes: list[SiteOutcome] = []
    deferred: list[str] = []
    scheduler = RunReportBuilder()
    with activate_fault_plan(options.fault_plan), activate_report(scheduler):
        for wave in waves:
            to_run: list[SiteSpec] = []
            for site in wave:
                if options.resume:
                    digest = ledger.completed_digest(site.site_id)
                    if digest is not None:
                        outcomes.append(
                            SiteOutcome(
                                site_id=site.site_id,
                                tenant=site.tenant,
                                state=STATE_DONE,
                                digest=digest,
                                skipped=True,
                            )
                        )
                        continue
                if budget is not None and attempted >= budget:
                    deferred.append(site.site_id)
                    continue
                attempted += 1
                to_run.append(site)
            if to_run:
                outcomes.extend(
                    run_chunked(
                        _fleet_site_worker,
                        payload,
                        to_run,
                        site_jobs,
                        label="fleet",
                        execution=execution,
                    )
                )
    scheduler_report = scheduler.build()
    if options.fault_plan is not None:
        scheduler_report = replace(
            scheduler_report,
            faults_injected=dict(options.fault_plan.injected),
        )
    totals = dict(store.stats())
    store.flush_stats()
    for outcome in outcomes:
        for key, value in (outcome.artifact_stats or {}).items():
            totals[key] = totals.get(key, 0) + value
    artifact_stats = totals or None
    return FleetReport(
        fleet_id=fleet_id,
        fingerprint=fingerprint,
        outcomes=tuple(outcomes),
        deferred=tuple(deferred),
        waves=len(waves),
        aggregate_digest=aggregate_digest(outcomes),
        scheduler=scheduler_report,
        artifact_stats=artifact_stats,
    )


def format_fleet_report(report: FleetReport) -> str:
    """Human-readable fleet summary (CLI ``repro fleet``)."""
    lines = [f"fleet report: {report.fleet_id}"]
    lines.append(
        f"  sites: {len(report.outcomes)} done={len(report.done)} "
        f"quarantined={len(report.quarantined)} "
        f"deferred={len(report.deferred)} (waves={report.waves})"
    )
    for outcome in report.outcomes:
        mark = " [skipped: already done]" if outcome.skipped else ""
        if outcome.resumed_stages:
            mark = " [resumed: " + ", ".join(outcome.resumed_stages) + "]"
        detail = (
            f"digest={outcome.digest[:12]}…"
            if outcome.digest
            else f"error={outcome.error}"
        )
        lines.append(
            f"    - {outcome.site_id} ({outcome.tenant}): "
            f"{outcome.state} {detail}{mark}"
        )
    if report.deferred:
        lines.append(
            "  deferred (resume to finish): " + ", ".join(report.deferred)
        )
    hits = report.resume_hits
    if hits:
        formatted = " ".join(
            f"{stage}={count}" for stage, count in sorted(hits.items())
        )
        lines.append(f"  resume-hits: {formatted}")
    lines.append(f"  sites-resumed: {report.sites_resumed}")
    if report.scheduler is not None and (
        report.scheduler.chunk_retries or report.scheduler.serial_fallbacks
    ):
        lines.append(
            f"  scheduler recovery: chunk-retries="
            f"{report.scheduler.chunk_retries} serial-fallbacks="
            f"{report.scheduler.serial_fallbacks}"
        )
    if report.artifact_stats:
        formatted = " ".join(
            f"{key}={value}"
            for key, value in sorted(report.artifact_stats.items())
        )
        lines.append(f"  artifact-cache: {formatted}")
    lines.append(f"fleet-digest: {report.aggregate_digest}")
    return "\n".join(lines)


__all__ = [
    "FleetReport",
    "SiteOutcome",
    "aggregate_digest",
    "default_fleet_id",
    "format_fleet_report",
    "run_fleet",
]
