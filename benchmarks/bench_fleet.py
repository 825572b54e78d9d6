"""Fleet orchestration: sharded N-site jobs vs N sequential runs.

Measures :func:`repro.api.run_fleet` driving a small fleet serially
(``site_jobs=1``), sharded across worker processes (``site_jobs=2``,
``4``), and resumed warm (every site already ``done`` in the ledger) —
asserting the fleet invariant along the way: per-site digests are
bitwise-identical to N sequential ``api.run`` calls, and the resumed
invocation recomputes nothing.

Archived to ``BENCH_fleet.json``. The site fan-out is the only code
that starts worker processes, so this is the one bench of process
parallelism. Sharding speedups are recorded, not floored: on a starved
runner the sites time-slice one CPU and the honest ratio sits near (or
below) 1× — the cpu count rides along. The warm-resume floor *is*
asserted (``REPRO_BENCH_FLEET_RESUME_FLOOR``, default 20×): skipping
every site must beat recomputing them by a wide margin.
"""

from __future__ import annotations

import os
import tempfile
import time

from conftest import emit, emit_json
from repro import api
from repro.config import (
    ExecutionConfig,
    FleetConfig,
    ProbeConfig,
    ThorConfig,
)
from repro.io.export import result_digest

RESUME_FLOOR = float(os.environ.get("REPRO_BENCH_FLEET_RESUME_FLOOR", "20.0"))
FLEET_SITES = int(os.environ.get("REPRO_BENCH_FLEET_SITES", "6"))
SITE_JOBS = (1, 2, 4)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _spec() -> api.FleetSpec:
    domains = ("ecommerce", "music", "jobs", "travel", "library")
    return api.FleetSpec(
        sites=tuple(
            api.SiteSpec(
                site_id=f"{domains[i % len(domains)]}-{i}",
                domain=domains[i % len(domains)],
                seed=i,
                records=80,
            )
            for i in range(FLEET_SITES)
        )
    )


def _config(cache_dir: str, site_jobs: int) -> ThorConfig:
    return ThorConfig(
        seed=3,
        probing=ProbeConfig(dictionary_queries=25, nonsense_queries=3),
        execution=ExecutionConfig(cache_dir=cache_dir),
        fleet=FleetConfig(site_jobs=site_jobs),
    )


class TestFleetBench:
    def test_fleet_vs_sequential(self, capsys):
        spec = _spec()
        rows = []
        payload = {
            "sites": FLEET_SITES,
            "cpus": _available_cpus(),
            "resume_floor": RESUME_FLOOR,
            "site_jobs": {},
        }

        with tempfile.TemporaryDirectory() as seq_dir:
            start = time.perf_counter()
            sequential = {
                site.site_id: result_digest(
                    api.run(site.build_source(), _config(seq_dir, 1))
                )
                for site in spec.sites
            }
            sequential_s = time.perf_counter() - start
        rows.append(f"{FLEET_SITES} sequential api.run   {sequential_s:8.2f}s")

        resume_ratio = None
        for site_jobs in SITE_JOBS:
            with tempfile.TemporaryDirectory() as cache_dir:
                config = _config(cache_dir, site_jobs)
                start = time.perf_counter()
                report = api.run_fleet(spec, config)
                cold_s = time.perf_counter() - start
                # The invariant first, the stopwatch second.
                assert {
                    o.site_id: o.digest for o in report.done
                } == sequential
                start = time.perf_counter()
                resumed = api.run_fleet(
                    spec, config, api.RunOptions(resume=True)
                )
                warm_s = time.perf_counter() - start
                assert resumed.aggregate_digest == report.aggregate_digest
                assert resumed.sites_resumed == FLEET_SITES
            speedup = sequential_s / cold_s if cold_s else float("inf")
            rows.append(
                f"fleet site_jobs={site_jobs}        {cold_s:8.2f}s "
                f"({speedup:4.2f}x sequential)  warm-resume {warm_s*1000:7.1f}ms"
            )
            payload["site_jobs"][str(site_jobs)] = {
                "cold_s": cold_s,
                "warm_resume_s": warm_s,
                "speedup_vs_sequential": speedup,
            }
            if site_jobs == 1:
                resume_ratio = cold_s / warm_s if warm_s else float("inf")

        payload["resume_speedup"] = resume_ratio
        rows.append(f"warm-resume speedup      {resume_ratio:8.1f}x (floor {RESUME_FLOOR}x)")
        emit(capsys, "BENCH_fleet", "\n".join(rows))
        emit_json("BENCH_fleet", payload)
        assert resume_ratio >= RESUME_FLOOR
