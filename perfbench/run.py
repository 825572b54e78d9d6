"""The repository benchmark: one workload, one closed-loop client.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold_jobs2 --seed 1 --seconds 20 --trace 0

One client issues ops back to back: the next op starts only when the
previous one has returned, for ``--seconds`` and at least the
workload's ``min_ops`` ops, ending on a whole cycle of inputs. Set-up (imports, three
repetitions of the workload's set-up with one warm-up op each) is
timed into ``setup_s`` and never into an op. The program's
process-wide memos are dropped before every op and every set-up
repetition, outside the timing, so each is as cold as in a fresh
process. Every op's output is checked against its pinned reference
digest; an op that raises or mismatches counts as failed and is left
out of the timings. Every reported time is scaled to a reference host
speed measured between ops (``host.py``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` wraps each
layer's entry points (``tracer.py``) around every other op, prints the
per-layer metrics per traced op, reports the tracing overhead as the
traced ops' median against the untraced ops' median, and writes the
spans to ``.perfbench/trace/``. The last stdout line is the result
as one JSON object.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 - the import time above counts into setup_s
import faulthandler  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checkout  # noqa: E402
import host  # noqa: E402

WORKLOAD_NAMES = ("cold_jobs2", "refresh", "crawl_http")
#: A run that has not ended by then dumps its stacks and exits non-zero.
DEADLINE_S = 175
#: How long teardown waits for threads and children to end.
TEARDOWN_WAIT_S = 10.0


@dataclass
class OpRecord:
    seconds: float
    cpu_s: float
    child_cpu_s: float
    pages: int
    ok: bool
    traced: bool
    counters: dict = field(default_factory=dict)


def cpu_times() -> tuple[float, float]:
    """(CPU seconds of this process, of its reaped children)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def tail_percentile(times: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least 10 ops beyond it.

    Nearest-rank: percentile ``p`` is the ``ceil(p * n / 100)``-th
    smallest time. With 10 ops or fewer no percentile qualifies and the
    slowest op is reported as percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Bench:
    """One run: set-up repetitions, the measured loop, the metrics."""

    def __init__(self, args, workdir: Path) -> None:
        self.args = args
        self.workdir = workdir
        self.setup_reps: list[float] = []
        self.warm_ok = True
        self.ops: list[OpRecord] = []
        self.index = 0
        self.tracer = None
        self.memo_hits = self.memo_lookups = 0

    def run(self) -> dict:
        import workloads

        import_s = time.perf_counter() - STARTED
        references = json.loads(
            (checkout.ROOT / "perfbench" / "references.json").read_text(encoding="utf-8")
        )
        self.workload = workloads.WORKLOADS[self.args.workload](
            str(self.workdir), self.args.seed, references
        )
        self.monitor = host.HostMonitor()
        try:
            for repetition in range(workloads.SETUP_REPETITIONS):
                self.set_up(repetition)
                self.monitor.between_ops()
            self.setup_s = import_s + statistics.median(self.setup_reps)
            if self.args.trace:
                from tracer import Tracer

                self.tracer = Tracer()
            window = time.perf_counter()
            while (
                time.perf_counter() - window < self.args.seconds
                or len(self.ops) < self.workload.min_ops
                or len(self.ops) % self.workload.cycle
            ):
                key = next(self.workload.keys, None)
                if key is None:
                    print("perfbench: input pool exhausted before the run could end")
                    break
                self.measure(key)
                self.monitor.between_ops()
            self.window_s = time.perf_counter() - window
        finally:
            self.workload.teardown()
        return self.result()

    def set_up(self, repetition: int) -> None:
        """One set-up repetition plus its warm-up op, timed together."""
        import workloads

        key = self.workload.warmup
        if repetition:
            self.workload.teardown()
        workloads.reset_memos()
        gc.collect()
        start = time.perf_counter()
        self.workload.setup(repetition)
        prepared = self.workload.prepare(key, self.next_index())
        result = self.workload.run(prepared)
        self.setup_reps.append(time.perf_counter() - start)
        if not self.checked(key, self.workload.inspect(prepared, result), "warm-up op"):
            self.warm_ok = False

    def checked(self, key, outcome, what: str = "op") -> bool:
        """Whether an op's outcome is correct; prints why not."""
        problem = outcome.problem
        if not problem and outcome.digest != self.workload.expected(key):
            problem = "does not match its reference"
        if problem:
            print(f"perfbench: {what} {key} {problem}")
        return not problem

    def next_index(self) -> int:
        self.index += 1
        return self.index

    def measure(self, key) -> None:
        import workloads

        index = self.next_index()
        prepared = self.workload.prepare(key, index)
        traced = self.tracer is not None and index % 2 == 1
        workloads.reset_memos()
        if traced:
            from repro.core.subtree_sets import quad_matrix_memo_stats

            memo = quad_matrix_memo_stats()
            self.tracer.install()
        gc.collect()
        cpu_before = cpu_times()
        start = time.perf_counter()
        try:
            if traced:
                with self.tracer.op(index):
                    result = self.workload.run(prepared)
            else:
                result = self.workload.run(prepared)
        except Exception:
            traceback.print_exc()
            self.workload.discard(prepared)
            self.ops.append(OpRecord(0.0, 0.0, 0.0, 0, False, traced))
            return
        finally:
            seconds = time.perf_counter() - start
            cpu_after = cpu_times()
            if traced:
                self.tracer.uninstall()
        if traced:
            after = quad_matrix_memo_stats()
            self.memo_hits += after["hits"] - memo["hits"]
            self.memo_lookups += (
                after["hits"] + after["misses"] - memo["hits"] - memo["misses"]
            )
        outcome = self.workload.inspect(prepared, result)
        ok = self.checked(key, outcome)
        self.ops.append(
            OpRecord(
                seconds,
                sum(cpu_after) - sum(cpu_before),
                cpu_after[1] - cpu_before[1],
                outcome.pages,
                ok,
                traced,
                outcome.counters,
            )
        )

    # -- metrics -------------------------------------------------------------

    def result(self) -> dict:
        failed = sum(not op.ok for op in self.ops)
        untraced = [op for op in self.ops if op.ok and not op.traced]
        host_summary = self.monitor.summary()
        #: Every reported time is scaled to the reference host speed.
        self.scale = host.REFERENCE_CALIB_MS / host_summary["calib_ms"]
        print(
            f"{host.describe()} calib_ms.p50={host_summary['calib_ms']:.2f} "
            f"steal_ms={host_summary['steal_ms']:.0f} "
            f"time_scale={self.scale:.4f}"
        )
        end_to_end = self.end_to_end(untraced)
        print(
            f"{self.args.workload} seed {self.args.seed}: {len(self.ops)} ops, "
            f"{failed} failed, {self.window_s:.1f} s measured; setup repetitions "
            + " ".join(f"{s:.3f}" for s in self.setup_reps)
            + " s"
        )
        if self.tracer is None:
            metrics = end_to_end
        else:
            metrics = self.per_layer(end_to_end, host_summary)
        return {
            "correct": self.warm_ok and failed == 0 and bool(self.ops),
            "attempted": len(self.ops),
            "failed": failed,
            "metrics": metrics,
        }

    def end_to_end(self, ops: list[OpRecord]) -> dict:
        if not ops:
            return {}
        times = [op.seconds for op in ops]
        pages = sum(op.pages for op in ops)
        percentile, tail = tail_percentile(times)
        cpu_ms_per_page = 1e3 * sum(op.cpu_s for op in ops) / pages
        print(
            f"as measured on this host: setup_s={self.setup_s:.4f} "
            f"op_s.p50={statistics.median(times):.4f} op_s.tail={tail:.4f} "
            f"pages_per_s={pages / sum(times):.2f} cpu_ms_per_page={cpu_ms_per_page:.3f}"
        )
        print(f"op_s.tail is p{percentile} of {len(ops)} ops")
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        scale = self.scale
        return {
            "setup_s": metric(scale * self.setup_s, "s"),
            "op_s.p50": metric(scale * statistics.median(times), "s"),
            "op_s.tail": metric(scale * tail, "s"),
            "pages_per_s": metric(pages / sum(times) / scale, "pages/s"),
            "cpu_ms_per_page": metric(scale * cpu_ms_per_page, "ms"),
            "peak_rss_mb": metric(max(own, child) / 1024, "MB"),
        }

    def per_layer(self, untraced: dict, host_summary: dict) -> dict:
        from tracer import CALL_METRICS, SELF_METRICS, TOTAL_METRICS

        traced = [op for op in self.ops if op.ok and op.traced]
        n = max(len(traced), 1)
        scale = self.scale
        totals = self.tracer.layer_totals()
        metrics = {}
        for name in CALL_METRICS:
            metrics[f"{name}.calls"] = metric(totals[name]["calls"] / n, "count")
        for name in SELF_METRICS:
            metrics[f"{name}.self_ms"] = metric(scale * totals[name]["self_ms"] / n, "ms")
        for name in TOTAL_METRICS:
            metrics[f"{name}.ms"] = metric(scale * totals[name]["ms"] / n, "ms")

        def total(counter: str) -> float:
            return sum(op.counters.get(counter, 0) for op in traced)

        def per_op(counter: str) -> float:
            return total(counter) / n

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        pages = sum(op.pages for op in traced)
        tracer = self.tracer
        metrics.update(
            {
                "core.group.memo_hit_ratio": metric(
                    ratio(self.memo_hits, self.memo_lookups), "ratio"
                ),
                "runtime.child_cpu_ms": metric(
                    scale * 1e3 * sum(op.child_cpu_s for op in traced) / n, "ms"
                ),
                "runtime.bytes_sent": metric(per_op("bytes_sent"), "B"),
                "runtime.bytes_received": metric(per_op("bytes_received"), "B"),
                "runtime.chunk_retries": metric(per_op("chunk_retries"), "count"),
                "artifacts.bytes_written": metric(tracer.bytes_written / n, "B"),
                "artifacts.hit_ratio": metric(
                    ratio(tracer.artifact_hits, tracer.artifact_gets), "ratio"
                ),
                "incremental.replay_ratio": metric(
                    ratio(total("replayed_pages"), pages), "ratio"
                ),
                "transport.reuse_ratio": metric(
                    ratio(total("connections_reused"), total("requests")), "ratio"
                ),
                "transport.bytes_read": metric(per_op("bytes_read"), "B"),
                "frontier.fetch_errors": metric(per_op("fetch_errors"), "count"),
                "host.calib_ms": metric(host_summary["calib_ms"], "ms"),
                "host.steal_ms": metric(
                    host_summary["steal_ms"] / max(len(self.ops), 1), "ms"
                ),
            }
        )
        traced_p50 = scale * statistics.median(op.seconds for op in traced) if traced else 0.0
        untraced_p50 = untraced["op_s.p50"]["value"] if untraced else 0.0
        overhead = 100 * ratio(traced_p50 - untraced_p50, untraced_p50)
        metrics["trace.op_s.p50"] = metric(traced_p50, "s")
        metrics["trace.untraced_op_s.p50"] = metric(untraced_p50, "s")
        metrics["trace.overhead_pct"] = metric(overhead, "%")
        print(
            f"tracing overhead: traced op_s.p50 {traced_p50:.4f} s over "
            f"{len(traced)} ops vs untraced {untraced_p50:.4f} s "
            f"({overhead:+.1f}%)"
        )
        trace_dir = checkout.STATE / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"{self.args.workload}-seed{self.args.seed}.jsonl"
        tracer.write(str(path))
        print(f"spans: {len(tracer.spans)} -> {path.relative_to(checkout.ROOT)}")
        return metrics


def outlived(workdir: Path) -> list[str]:
    """Threads, child processes and files that outlived the run."""
    deadline = time.monotonic() + TEARDOWN_WAIT_S
    leaks = []
    for thread in threading.enumerate():
        if thread is threading.main_thread() or thread.daemon:
            continue
        thread.join(max(0.0, deadline - time.monotonic()))
        if thread.is_alive():
            leaks.append(f"thread {thread.name}")
    multiprocessing.active_children()
    while True:
        children = child_pids()
        if not children or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    leaks.extend(f"child process {pid}" for pid in children)
    if workdir.exists():
        leaks.append(f"directory {workdir}")
    return leaks


def child_pids() -> list[int]:
    """Live children of this process (all threads), from ``/proc``."""
    pids = []
    tasks = Path("/proc/self/task")
    if not tasks.is_dir():
        return [child.pid for child in multiprocessing.active_children()]
    for task in tasks.iterdir():
        try:
            pids.extend(int(pid) for pid in (task / "children").read_text().split())
        except OSError:
            continue
    return sorted(set(pids))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    faulthandler.dump_traceback_later(DEADLINE_S, exit=True)
    for variable in ("REPRO_CACHE_DIR", "REPRO_BACKEND"):
        os.environ.pop(variable, None)
    checkout.import_program()
    workdir = checkout.STATE / f"run-{os.getpid()}"
    temp_dir = workdir / "tmp"
    temp_dir.mkdir(parents=True)
    # Pools, stores and temp files stay inside the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = str(temp_dir)
    try:
        result = Bench(args, workdir).run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    leaks = outlived(workdir)
    faulthandler.cancel_dump_traceback_later()
    if leaks:
        print("perfbench: outlived the run: " + ", ".join(leaks), file=sys.stderr)
        sys.stdout.flush()
        sys.stderr.flush()
        # A normal exit would wait forever on a leaked non-daemon thread.
        os._exit(1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
