"""Run accounting: every degradation a run survived, in one report.

A fault-tolerant pipeline that silently degrades is worse than one
that fails loudly — operators must be able to see *what* was given up.
Every :meth:`Thor.run <repro.core.thor.Thor.run>` /
:meth:`~repro.core.thor.Thor.extract` produces a :class:`RunReport`
that accounts for each quarantined unit, chunk retry, serial
fallback, stage timeout, and resume hit; the CLI surfaces it via
``repro run --report``.

The mutable :class:`RunReportBuilder` is what the pipeline threads
through its stages. Deeply nested helpers (the chunk fan-out in
:mod:`repro.runtime`, the stage drivers) do not take a builder
parameter; they consult the *active* builder installed by
:func:`activate_report` — a process-local stack, pushed for the
duration of one ``Thor`` call. Recording is counting only, so the
report machinery can never change computed results.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.resilience.quarantine import QuarantineRecord


@dataclass(frozen=True)
class RunReport:
    """The resilience ledger of one pipeline run."""

    #: Units set aside with structured reasons (pages, clusters, cache
    #: records), in quarantine order.
    quarantined: tuple[QuarantineRecord, ...] = ()
    #: Chunk re-executions after a worker crash or chunk exception.
    chunk_retries: int = 0
    #: Chunks that exhausted retries and ran in-process serially.
    serial_fallbacks: int = 0
    #: Stages that hit their wall-clock deadline (stage names, in
    #: occurrence order; a degraded per-cluster timeout appears here
    #: *and* as a quarantine record for its pages).
    stage_timeouts: tuple[str, ...] = ()
    #: Checkpointed stages skipped by ``--resume`` (stage names).
    resume_hits: tuple[str, ...] = ()
    #: Chaos faults injected by the active FaultPlan, by kind.
    faults_injected: dict = field(default_factory=dict)
    #: Pages surviving the quarantine scan vs. pages offered to it.
    pages_total: int = 0
    pages_surviving: int = 0
    #: Cross-process transport accounting, by fan-out label:
    #: ``label → {"chunks", "bytes_sent", "bytes_received"}``. Sent is
    #: the pickled (payload, chunk) shipped to each worker; received
    #: is the pickled chunk result. Only the fleet's pool chunks count
    #: (label ``fleet``): a site computes entirely in its own process,
    #: and serial fallbacks cross no boundary, so neither counts.
    transport: dict = field(default_factory=dict)
    #: Incremental re-extraction accounting (``kind → count``), empty
    #: unless the run opted in via ``RunOptions(incremental=True)``:
    #: ``skipped`` (unchanged pages replayed from the stored model),
    #: ``assigned`` (changed/new pages assigned to stored clusters
    #: without a refit), ``refit`` (pages that went through a full
    #: refit), ``drift_events`` (drift-threshold trips), and
    #: ``model_misses`` (absent/torn/invalid model bundles).
    incremental: dict = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """True when the run gave anything up to finish."""
        return bool(
            self.quarantined or self.serial_fallbacks or self.stage_timeouts
        )

    @property
    def recovered(self) -> bool:
        """True when the run recovered from at least one fault."""
        return bool(
            self.chunk_retries or self.serial_fallbacks or self.resume_hits
        )


class RunReportBuilder:
    """Mutable accumulator behind :class:`RunReport` (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._quarantined: list[QuarantineRecord] = []
        self._chunk_retries = 0
        self._serial_fallbacks = 0
        self._stage_timeouts: list[str] = []
        self._resume_hits: list[str] = []
        self._faults_injected: dict[str, int] = {}
        self._pages_total = 0
        self._pages_surviving = 0
        self._transport: dict[str, dict[str, int]] = {}
        self._incremental: dict[str, int] = {}

    def quarantine(self, record: QuarantineRecord) -> None:
        with self._lock:
            self._quarantined.append(record)

    def count_chunk_retry(self, n: int = 1) -> None:
        with self._lock:
            self._chunk_retries += n

    def count_serial_fallback(self, n: int = 1) -> None:
        with self._lock:
            self._serial_fallbacks += n

    def stage_timeout(self, stage: str) -> None:
        with self._lock:
            self._stage_timeouts.append(stage)

    def resume_hit(self, stage: str) -> None:
        with self._lock:
            self._resume_hits.append(stage)

    def count_fault(self, kind: str, n: int = 1) -> None:
        with self._lock:
            self._faults_injected[kind] = self._faults_injected.get(kind, 0) + n

    def pages_scanned(self, total: int, surviving: int) -> None:
        with self._lock:
            self._pages_total += total
            self._pages_surviving += surviving

    def incremental_event(self, kind: str, n: int = 1) -> None:
        """Count an incremental re-extraction event (see ``RunReport``)."""
        with self._lock:
            self._incremental[kind] = self._incremental.get(kind, 0) + n

    def count_transport(self, label: str, sent: int, received: int) -> None:
        """Record one pool chunk's serialized payload/result sizes."""
        with self._lock:
            entry = self._transport.setdefault(
                label, {"chunks": 0, "bytes_sent": 0, "bytes_received": 0}
            )
            entry["chunks"] += 1
            entry["bytes_sent"] += sent
            entry["bytes_received"] += received

    def build(self) -> RunReport:
        """An immutable snapshot of everything recorded so far."""
        with self._lock:
            return RunReport(
                quarantined=tuple(self._quarantined),
                chunk_retries=self._chunk_retries,
                serial_fallbacks=self._serial_fallbacks,
                stage_timeouts=tuple(self._stage_timeouts),
                resume_hits=tuple(self._resume_hits),
                faults_injected=dict(self._faults_injected),
                pages_total=self._pages_total,
                pages_surviving=self._pages_surviving,
                transport={
                    label: dict(entry)
                    for label, entry in self._transport.items()
                },
                incremental=dict(self._incremental),
            )


#: The active-builder stack. A plain module global (not thread-local):
#: stage watchdogs run their stage body on a helper thread, and events
#: recorded there must land in the run's report.
_ACTIVE: list[RunReportBuilder] = []


@contextmanager
def activate_report(builder):
    """Install ``builder`` as the active report for the duration.

    Re-entrant: ``Thor.run`` activates around the whole pipeline and
    ``Thor.extract`` activates again inside it — both push the same
    builder, and nested helpers see the innermost one. ``None`` is
    accepted and pushes nothing (keeps call sites branch-free).
    """
    if builder is None:
        yield None
        return
    _ACTIVE.append(builder)
    try:
        yield builder
    finally:
        _ACTIVE.pop()


def current_report():
    """The innermost active builder, or ``None`` outside any run."""
    return _ACTIVE[-1] if _ACTIVE else None


def format_incremental_counters(report: RunReport) -> str:
    """The incremental counters as one stable ``key=value`` line.

    Always shows the five well-known counters (zero included) so CI
    can grep e.g. ``refit=0`` whether or not the event occurred.
    """
    counters = report.incremental
    known = ("skipped", "assigned", "refit", "drift_events", "model_misses")
    parts = [
        f"{kind.replace('_', '-')}={counters.get(kind, 0)}" for kind in known
    ]
    parts.extend(
        f"{kind.replace('_', '-')}={count}"
        for kind, count in sorted(counters.items())
        if kind not in known
    )
    return " ".join(parts)


def format_run_report(report: RunReport) -> str:
    """Human-readable run-resilience summary (CLI ``--report``)."""
    lines = ["run report:"]
    if report.pages_total:
        lines.append(
            f"  pages: {report.pages_surviving}/{report.pages_total} survived"
            " quarantine scan"
        )
    lines.append(
        f"  recovery: chunk-retries={report.chunk_retries} "
        f"serial-fallbacks={report.serial_fallbacks} "
        f"resume-hits={len(report.resume_hits)}"
    )
    if report.resume_hits:
        lines.append("  resumed stages: " + ", ".join(report.resume_hits))
    if report.stage_timeouts:
        lines.append("  stage timeouts: " + ", ".join(report.stage_timeouts))
    if report.faults_injected:
        injected = " ".join(
            f"{kind}={count}"
            for kind, count in sorted(report.faults_injected.items())
        )
        lines.append(f"  chaos faults injected: {injected}")
    for label, entry in sorted(report.transport.items()):
        lines.append(
            f"  transport[{label}]: chunks={entry['chunks']} "
            f"sent={entry['bytes_sent']}B received={entry['bytes_received']}B"
        )
    if report.incremental:
        lines.append("  incremental: " + format_incremental_counters(report))
    lines.append(f"  quarantined: {len(report.quarantined)}")
    for record in report.quarantined:
        lines.append(f"    - {record}")
    if not report.degraded and not report.recovered:
        lines.append("  clean run: no faults, no degradation")
    return "\n".join(lines)


__all__ = [
    "RunReport",
    "RunReportBuilder",
    "activate_report",
    "current_report",
    "format_incremental_counters",
    "format_run_report",
]
