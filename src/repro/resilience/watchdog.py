"""Stage watchdogs: wall-clock deadlines for pipeline stages.

A hung stage — a pathological page that sends the parser quadratic, a
wedged worker pool — is worse than a failed one: nothing downstream
ever runs. :func:`run_stage` bounds a stage with a wall-clock deadline
(``ExecutionConfig.stage_timeouts``): the stage body runs on a
watchdog thread, and if the deadline passes the stage is *cancelled* —
the caller gets a typed :class:`~repro.errors.StageTimeoutError`
immediately and can degrade (e.g. quarantine the cluster that hung)
or abort.

Cancellation is cooperative-less: Python cannot kill an arbitrary
thread, so the abandoned body may keep burning CPU until its next
return — but it can no longer affect the pipeline (its result is
discarded, and the daemon thread never blocks interpreter exit). For
deterministic pipelines this is safe: a stage's result is only ever
*used* when it beats the deadline, so timeouts can change *whether* a
stage completes, never what it computes.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, TypeVar

from repro.errors import StageTimeoutError
from repro.resilience.report import current_report

T = TypeVar("T")


def run_stage(
    fn: Callable[[], T],
    stage: str,
    timeout_s: Optional[float] = None,
) -> T:
    """Run ``fn()`` under a wall-clock deadline.

    With ``timeout_s=None`` (the default configuration) this is a plain
    call — zero overhead, identical semantics. With a deadline, ``fn``
    runs on a daemon thread: its return value or exception propagates
    unchanged when it finishes in time, and
    :class:`~repro.errors.StageTimeoutError` is raised (and recorded on
    the active run report) when it does not.
    """
    if timeout_s is None:
        return fn()

    box: dict = {}

    def body() -> None:
        try:
            box["result"] = fn()
        except BaseException as exc:  # propagate to the caller thread
            box["error"] = exc

    thread = threading.Thread(
        target=body, name=f"thor-stage-{stage}", daemon=True
    )
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        report = current_report()
        if report is not None:
            report.stage_timeout(stage)
        raise StageTimeoutError(
            f"stage {stage!r} exceeded its {timeout_s}s deadline",
            stage=stage,
            timeout_s=timeout_s,
        )
    if "error" in box:
        raise box["error"]
    return box["result"]


__all__ = ["run_stage"]
