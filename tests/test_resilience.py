"""Unit tests for the fault-tolerant runtime layer (DESIGN.md §11).

Covers the four pillars in isolation: worker-crash recovery in
``run_chunked`` (retries, serial fallback, ``ChunkFailedError``),
stage watchdogs, the quarantine taxonomy (including ``load_pages``
parity), and the run manifest behind checkpointed resumable runs.
The end-to-end chaos invariants live in ``test_chaos_pipeline.py``.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.artifacts import ArtifactStore
from repro.config import ExecutionConfig, StageTimeouts, ThorConfig
from repro.core.page import Page
from repro.deepweb.site import LabeledPage
from repro.errors import (
    ChunkFailedError,
    HtmlParseError,
    ResilienceError,
    ResumeError,
    StageTimeoutError,
    ThorError,
)
from repro.io.cache import load_pages, save_pages
from repro.resilience import (
    FaultPlan,
    InjectedPageFault,
    InjectedWorkerCrash,
    QuarantineRecord,
    RunManifest,
    RunReportBuilder,
    activate_fault_plan,
    activate_report,
    classify_quarantine,
    config_fingerprint,
    current_report,
    format_run_report,
    load_manifest,
    open_manifest,
    run_stage,
    save_manifest,
)
from repro.resilience.manifest import (
    load_probe_checkpoint,
    save_probe_checkpoint,
)
from repro.resilience.quarantine import (
    CHUNK_FAILED,
    CORRUPT_RECORD,
    ERROR,
    INJECTED,
    PARSE_ERROR,
    STAGE_LOAD,
    STAGE_TIMEOUT,
)
from repro.runtime import run_chunked


def _double_worker(payload, items):
    """Module-level (picklable) chunk worker: item * payload."""
    return [item * payload for item in items]


def _angry_worker(payload, items):
    raise ValueError("worker always fails")


class TestChunkRecovery:
    def test_inline_path_ignores_faults(self):
        plan = FaultPlan(seed=0, chunk_error_rate=1.0)
        with activate_fault_plan(plan):
            assert run_chunked(_double_worker, 3, [1, 2], n_jobs=1) == [3, 6]
        assert not plan.injected

    def test_injected_chunk_errors_degrade_to_serial_fallback(self):
        # Every attempt of every chunk fails -> retries exhaust, then
        # the serial fallback recomputes everything, bitwise identical.
        plan = FaultPlan(seed=0, chunk_error_rate=1.0)
        report = RunReportBuilder()
        execution = ExecutionConfig(n_jobs=2, chunk_retries=1)
        with activate_fault_plan(plan), activate_report(report):
            result = run_chunked(
                _double_worker, 2, list(range(6)), n_jobs=2,
                label="t", execution=execution,
            )
        assert result == [0, 2, 4, 6, 8, 10]
        built = report.build()
        assert built.serial_fallbacks == 2  # both chunks fell back
        assert built.chunk_retries == 2  # one retry round x two chunks
        assert built.recovered
        assert plan.injected["chunk_error"] == 4  # 2 chunks x 2 attempts

    def test_injected_worker_crash_is_a_broken_pool(self):
        fault = FaultPlan(seed=0, worker_crash_rate=1.0).worker_fault("t", 0, 1)
        from concurrent.futures.process import BrokenProcessPool

        assert isinstance(fault, InjectedWorkerCrash)
        assert isinstance(fault, BrokenProcessPool)

    def test_crash_then_recover_on_retry(self):
        # Rates keyed by (label, chunk, attempt): find a seed where
        # attempt 1 faults and attempt 2 does not, then verify the
        # retry round alone recovers (no serial fallback).
        seed = next(
            s for s in range(100)
            if FaultPlan(seed=s, worker_crash_rate=0.5).worker_fault("t", 0, 1)
            and not FaultPlan(seed=s, worker_crash_rate=0.5).worker_fault("t", 0, 2)
            and not FaultPlan(seed=s, worker_crash_rate=0.5).worker_fault("t", 1, 1)
        )
        plan = FaultPlan(seed=seed, worker_crash_rate=0.5)
        report = RunReportBuilder()
        with activate_fault_plan(plan), activate_report(report):
            result = run_chunked(
                _double_worker, 10, list(range(4)), n_jobs=2,
                label="t", execution=ExecutionConfig(n_jobs=2),
            )
        assert result == [0, 10, 20, 30]
        built = report.build()
        assert built.chunk_retries == 1
        assert built.serial_fallbacks == 0

    def test_recovery_off_raises_chunk_failed_with_indices(self):
        plan = FaultPlan(seed=0, chunk_error_rate=1.0)
        execution = ExecutionConfig(n_jobs=2, recovery="off")
        with activate_fault_plan(plan):
            with pytest.raises(ChunkFailedError) as excinfo:
                run_chunked(
                    _double_worker, 2, list(range(10)), n_jobs=2,
                    label="t", execution=execution,
                )
        err = excinfo.value
        assert err.label == "t"
        assert err.indices == tuple(range(0, 5))  # first chunk of two
        assert isinstance(err.__cause__, Exception)
        assert isinstance(err, ResilienceError)
        assert isinstance(err, ThorError)

    def test_worker_exception_failing_serially_too_raises(self):
        # A genuinely broken worker fails in the pool *and* in the
        # serial fallback: the fallback exception is wrapped.
        with pytest.raises(ChunkFailedError) as excinfo:
            run_chunked(
                _angry_worker, None, list(range(4)), n_jobs=2,
                label="t", execution=ExecutionConfig(n_jobs=2, chunk_retries=0),
            )
        assert isinstance(excinfo.value.__cause__, ValueError)

    @pytest.mark.parametrize("recovery", ["off", "on"])
    def test_pool_that_cannot_start_runs_inline(self, recovery, monkeypatch):
        # No /dev/shm semaphores or fork rights: building the pool
        # raises OSError. Nothing failed, so the computation runs
        # inline as at n_jobs=1 — no ChunkFailedError with recovery
        # off, no retry or fallback counted with it on.
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise OSError("no process support")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        report = RunReportBuilder()
        with activate_report(report):
            result = run_chunked(
                _double_worker, 2, list(range(5)), n_jobs=2, label="t",
                execution=ExecutionConfig(n_jobs=2, recovery=recovery),
            )
        assert result == [0, 2, 4, 6, 8]
        built = report.build()
        assert (built.chunk_retries, built.serial_fallbacks) == (0, 0)
        assert not built.recovered
        assert built.transport == {}

    def test_parallel_equals_serial_under_chaos(self):
        serial = _double_worker(7, list(range(9)))
        plan = FaultPlan(seed=3, worker_crash_rate=0.4, chunk_error_rate=0.4)
        with activate_fault_plan(plan):
            parallel = run_chunked(
                _double_worker, 7, list(range(9)), n_jobs=3,
                label="t", execution=ExecutionConfig(n_jobs=3),
            )
        assert parallel == serial


class TestWatchdog:
    def test_no_timeout_is_a_plain_call(self):
        assert run_stage(lambda: 42, "s", None) == 42

    def test_result_propagates_under_deadline(self):
        assert run_stage(lambda: "ok", "s", 5.0) == "ok"

    def test_exception_propagates_unchanged(self):
        with pytest.raises(ValueError, match="boom"):
            run_stage(lambda: (_ for _ in ()).throw(ValueError("boom")), "s", 5.0)

    def test_hung_stage_raises_typed_timeout(self):
        report = RunReportBuilder()
        with activate_report(report):
            with pytest.raises(StageTimeoutError) as excinfo:
                run_stage(lambda: time.sleep(5), "slow-stage", 0.05)
        assert excinfo.value.stage == "slow-stage"
        assert excinfo.value.timeout_s == 0.05
        assert report.build().stage_timeouts == ("slow-stage",)


class TestQuarantineTaxonomy:
    def test_classification_ladder(self):
        assert classify_quarantine(HtmlParseError("x")) == PARSE_ERROR
        assert classify_quarantine(StageTimeoutError("x")) == STAGE_TIMEOUT
        assert classify_quarantine(ChunkFailedError("x")) == CHUNK_FAILED
        assert classify_quarantine(InjectedPageFault("x")) == INJECTED
        assert classify_quarantine(ThorError("x")) == ERROR

    def test_record_is_frozen_and_printable(self):
        record = QuarantineRecord(
            stage="signature", unit="http://a/b", kind=PARSE_ERROR, detail="d"
        )
        assert "signature" in str(record) and "http://a/b" in str(record)
        with pytest.raises(Exception):
            record.kind = "other"


class TestLoadPagesQuarantine:
    def _write_sample(self, path):
        good = {"url": "http://x/1", "query": "q", "html": "<html><p>a</p></html>"}
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(good) + "\n")
            handle.write("{this is not json\n")
            handle.write(json.dumps(good) + "\n")

    def test_malformed_line_quarantined_with_record(self, tmp_path):
        path = tmp_path / "pages.jsonl"
        self._write_sample(path)
        with pytest.warns(UserWarning):
            sample = load_pages(path)
        assert len(sample) == 2
        assert sample.skipped == 1
        (record,) = sample.quarantined
        assert record.stage == STAGE_LOAD
        assert record.kind == CORRUPT_RECORD
        assert record.unit.endswith(":2")

    def test_strict_still_raises(self, tmp_path):
        path = tmp_path / "pages.jsonl"
        self._write_sample(path)
        with pytest.raises(ThorError, match="line 2|:2"):
            load_pages(path, strict=True)

    def test_active_report_collects_load_quarantine(self, tmp_path):
        path = tmp_path / "pages.jsonl"
        self._write_sample(path)
        report = RunReportBuilder()
        with activate_report(report):
            with pytest.warns(UserWarning):
                load_pages(path)
        assert len(report.build().quarantined) == 1

    def test_roundtrip_clean_file_has_no_quarantine(self, tmp_path):
        path = tmp_path / "pages.jsonl"
        pages = [
            Page("<html><p>a</p></html>", url="http://x/1", query="q"),
            LabeledPage(
                "<html><p>b</p></html>", url="http://x/2", query="q",
                class_label="normal", gold_pagelet_path="/html/p",
            ),
        ]
        save_pages(pages, path)
        sample = load_pages(path)
        assert sample.skipped == 0 and sample.quarantined == []
        assert isinstance(sample[1], LabeledPage)


class TestFaultPlanDeterminism:
    def test_same_seed_same_destiny(self):
        a = FaultPlan(seed=11, worker_crash_rate=0.3, chunk_error_rate=0.3)
        b = FaultPlan(seed=11, worker_crash_rate=0.3, chunk_error_rate=0.3)
        for chunk in range(10):
            for attempt in (1, 2):
                fa = a.worker_fault("x", chunk, attempt)
                fb = b.worker_fault("x", chunk, attempt)
                assert type(fa) is type(fb)
        assert a.injected == b.injected

    def test_decisions_are_point_local(self):
        # Injection is keyed by point identity, not draw order:
        # querying points in a different order gives the same answers.
        a = FaultPlan(seed=2, page_failure_rate=0.5)
        b = FaultPlan(seed=2, page_failure_rate=0.5)
        units = [f"u{i}" for i in range(20)]
        forward = {u: a.page_fault(u) is not None for u in units}
        backward = {u: b.page_fault(u) is not None for u in reversed(units)}
        assert forward == backward

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(worker_crash_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(worker_crash_rate=0.7, chunk_error_rate=0.7)

    def test_execution_config_validation(self):
        with pytest.raises(ValueError):
            ExecutionConfig(recovery="maybe")
        with pytest.raises(ValueError):
            ExecutionConfig(chunk_retries=-1)
        with pytest.raises(ValueError):
            ExecutionConfig(stage_timeouts=StageTimeouts(probe=0.0))
        with pytest.raises(ValueError):
            ExecutionConfig(min_surviving_fraction=1.5)


class TestRunReport:
    def test_builder_accumulates_and_formats(self):
        builder = RunReportBuilder()
        builder.pages_scanned(10, 8)
        builder.quarantine(
            QuarantineRecord(stage="signature", unit="u", kind=PARSE_ERROR)
        )
        builder.count_chunk_retry(3)
        builder.count_serial_fallback()
        builder.stage_timeout("identify")
        builder.resume_hit("probe")
        report = builder.build()
        assert report.pages_total == 10 and report.pages_surviving == 8
        assert report.chunk_retries == 3
        assert report.serial_fallbacks == 1
        assert report.stage_timeouts == ("identify",)
        assert report.resume_hits == ("probe",)
        assert report.degraded and report.recovered
        text = format_run_report(report)
        assert "8/10" in text and "identify" in text and "probe" in text

    def test_activation_stack_is_reentrant(self):
        outer, inner = RunReportBuilder(), RunReportBuilder()
        assert current_report() is None
        with activate_report(outer):
            assert current_report() is outer
            with activate_report(inner):
                assert current_report() is inner
            with activate_report(None):
                assert current_report() is outer
        assert current_report() is None


class TestRunManifest:
    def _store(self, tmp_path):
        return ArtifactStore(tmp_path / "store")

    def test_roundtrip(self, tmp_path):
        store = self._store(tmp_path)
        manifest = RunManifest(run_id="r1", fingerprint="f1")
        manifest.mark_complete("probe", pages=7)
        save_manifest(store, manifest)
        loaded = load_manifest(store, "r1")
        assert loaded is not None
        assert loaded.stage_complete("probe")
        assert loaded.stage_info("probe") == {"pages": 7}
        assert not loaded.stage_complete("extract")

    def test_missing_and_corrupt_manifests_load_as_none(self, tmp_path):
        store = self._store(tmp_path)
        assert load_manifest(store, "nope") is None
        from repro.resilience.manifest import KIND_RUNS, manifest_key

        store.put_json(KIND_RUNS, manifest_key("r1"), {"run_id": "other"})
        assert load_manifest(store, "r1") is None

    def test_open_manifest_fingerprint_mismatch_raises(self, tmp_path):
        store = self._store(tmp_path)
        save_manifest(store, RunManifest(run_id="r1", fingerprint="old"))
        with pytest.raises(ResumeError):
            open_manifest(store, "r1", "new", resume=True)
        # resume=False discards the old manifest instead.
        fresh = open_manifest(store, "r1", "new", resume=False)
        assert fresh.fingerprint == "new" and fresh.stages == {}

    def test_config_fingerprint_tracks_results_not_execution(self):
        base = ThorConfig(seed=1)
        same_results = ThorConfig(seed=1, execution=ExecutionConfig(n_jobs=4))
        different = ThorConfig(seed=2)
        assert config_fingerprint(base) == config_fingerprint(same_results)
        assert config_fingerprint(base) != config_fingerprint(different)

    def test_probe_checkpoint_roundtrip(self, tmp_path):
        store = self._store(tmp_path)
        pages = [
            Page("<html><p>a</p></html>", url="http://x/1", query="q1"),
            LabeledPage(
                "<html><p>b</p></html>", url="http://x/2", query="q2",
                class_label="normal", gold_pagelet_path="/html/p",
            ),
        ]
        save_probe_checkpoint(store, "r1", pages)
        loaded = load_probe_checkpoint(store, "r1")
        assert loaded is not None and len(loaded) == 2
        assert [p.html for p in loaded] == [p.html for p in pages]
        assert isinstance(loaded[1], LabeledPage)
        assert loaded[1].class_label == "normal"

    def test_corrupt_checkpoint_is_a_miss(self, tmp_path):
        store = self._store(tmp_path)
        from repro.resilience.manifest import KIND_RUNS, checkpoint_key

        assert load_probe_checkpoint(store, "r1") is None
        store.put_json(KIND_RUNS, checkpoint_key("r1", "probe"), [{"nope": 1}])
        assert load_probe_checkpoint(store, "r1") is None
