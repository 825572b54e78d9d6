"""The fault-tolerant runtime layer.

Four pillars (DESIGN.md §11), one package:

- **per-unit quarantine** (:mod:`repro.resilience.quarantine`) — a
  page or cluster whose analysis raises a
  :class:`~repro.errors.ThorError` is set aside with a structured
  :class:`QuarantineRecord` instead of aborting the run, as long as a
  configurable minimum of the sample survives;
- **worker-crash recovery** (:func:`repro.runtime.run_chunked`) —
  ``BrokenProcessPool`` and per-chunk exceptions are retried with
  seeded backoff, then degraded to in-process serial execution,
  preserving the bitwise parallel == serial invariant;
- **stage watchdogs** (:mod:`repro.resilience.watchdog`) — wall-clock
  deadlines per stage (``ExecutionConfig.stage_timeouts``) raising a
  typed :class:`~repro.errors.StageTimeoutError`;
- **checkpointed resumable runs** (:mod:`repro.resilience.manifest`) —
  a run manifest in the artifact store records completed stages so
  ``repro run --resume`` skips finished work bitwise-identically.

A seeded :class:`FaultPlan` (:mod:`repro.resilience.faults`) drives
deterministic chaos tests across all injection points, and every run
returns a :class:`RunReport` accounting for each quarantined unit,
chunk retry, serial fallback, timeout, and resume hit.
"""

from repro.errors import (
    ChunkFailedError,
    ResilienceError,
    ResumeError,
    StageTimeoutError,
)
from repro.resilience.faults import (
    FaultPlan,
    InjectedChunkError,
    InjectedPageFault,
    InjectedWorkerCrash,
    activate_fault_plan,
    active_fault_plan,
)
from repro.resilience.manifest import (
    RunManifest,
    config_fingerprint,
    load_manifest,
    open_manifest,
    save_manifest,
)
from repro.resilience.quarantine import (
    QuarantineRecord,
    classify_quarantine,
    quarantine_record,
)
from repro.resilience.report import (
    RunReport,
    RunReportBuilder,
    activate_report,
    current_report,
    format_incremental_counters,
    format_run_report,
)
from repro.resilience.watchdog import run_stage

__all__ = [
    "ChunkFailedError",
    "FaultPlan",
    "InjectedChunkError",
    "InjectedPageFault",
    "InjectedWorkerCrash",
    "QuarantineRecord",
    "ResilienceError",
    "ResumeError",
    "RunManifest",
    "RunReport",
    "RunReportBuilder",
    "StageTimeoutError",
    "activate_fault_plan",
    "activate_report",
    "active_fault_plan",
    "classify_quarantine",
    "config_fingerprint",
    "current_report",
    "format_incremental_counters",
    "format_run_report",
    "load_manifest",
    "open_manifest",
    "quarantine_record",
    "run_stage",
    "save_manifest",
]
