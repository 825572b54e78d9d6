"""Phase-2 extraction: process fan-out + persistent artifact cache.

What the parallel pipeline fans out is per-page single-page analysis —
parse → candidate subtrees → node-free record snapshots with subtree
term counts (:func:`repro.core.single_page.candidate_records_for_cluster`).
The snapshots subsume ranking's per-member term extraction, so this
stage carries the bulk of Phase 2's serial cost; cross-page grouping
reuses memoized quadruple distance matrices either way.

This bench measures that stage serial vs cold multi-worker vs warm
cache, asserts the bitwise-equivalence invariant along the way
(parallel == serial and warm == cold, record for record), and archives
``BENCH_extraction.json``.

Floors (skipped floors are recorded explicitly in the archived JSON's
``skipped_floors`` list, with reasons — never silently):

- warm cache ≥ ``REPRO_BENCH_WARM_FLOOR``× serial (default 4.0). On a
  2-vCPU host it read 5.19–6.95× while the serial path re-stemmed every
  candidate's text, and 2.14–2.41× once the one-pass record builder
  cut that serial per-page cost from 3.1–4.3 s to 1.15–1.21 s (three
  runs each; the read-back itself stayed at 0.50–0.69 s), so this
  floor now fails: the ``records/`` tier costs about what it saves,
- cold 4-worker fan-out ≥ ``REPRO_BENCH_COLD_FLOOR``× serial (default
  2.0) — asserted only when ≥ 4 cores are actually available: on a
  single-core runner the workers time-slice one CPU and the honest
  ratio sits at or below 1× (it is still recorded, with the cpu
  count, like BENCH_clustering.json's restart-parallelism entry),
- columnar record transport ships ≥ ``REPRO_BENCH_TRANSPORT_FLOOR``×
  fewer per-worker result bytes than pickling the same decoded
  records would (default 5.0; columnar bytes come from the run
  report's per-chunk accounting).
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time

from conftest import available_cpus, emit, emit_json
from repro.config import ExecutionConfig, SubtreeConfig
from repro.core.identification import PageletIdentifier
from repro.core.page import Page
from repro.core.single_page import candidate_records_for_cluster
from repro.resilience.report import RunReportBuilder, activate_report

WARM_FLOOR = float(os.environ.get("REPRO_BENCH_WARM_FLOOR", "4.0"))
COLD_FLOOR = float(os.environ.get("REPRO_BENCH_COLD_FLOOR", "2.0"))
TRANSPORT_FLOOR = float(os.environ.get("REPRO_BENCH_TRANSPORT_FLOOR", "5.0"))
COLD_JOBS = (1, 2, 4, 8)


def _reset_caches() -> None:
    from repro.core.subtree_sets import clear_quad_matrix_memo
    from repro.runtime import clear_artifact_store_registry, clear_space_cache

    clear_space_cache()
    clear_artifact_store_registry()
    clear_quad_matrix_memo()


def _timed(fn, rounds: int = 2):
    """Best-of-``rounds`` wall clock and the last result."""
    best = None
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def test_phase2_parallel_and_cache_speedup(corpus, capsys):
    pages = [page for sample in corpus for page in sample.pages]

    def clone_pages():
        # Fresh Page objects every timed run: a previously parsed tree
        # cached on the page would hand the serial path a head start
        # (and the cache paths must re-derive everything from HTML).
        return [Page(p.html, url=p.url, query=p.query) for p in pages]

    serial_s, baseline = _timed(
        lambda: candidate_records_for_cluster(clone_pages())
    )

    cold = {}
    warm = {}
    for jobs in COLD_JOBS:
        root = tempfile.mkdtemp(prefix=f"bench-extraction-{jobs}-")
        execution = ExecutionConfig(n_jobs=jobs, cache_dir=root)

        _reset_caches()
        start = time.perf_counter()
        cold_records = candidate_records_for_cluster(
            clone_pages(), execution=execution
        )
        cold_s = time.perf_counter() - start  # one shot: a rerun is warm
        assert cold_records == baseline  # parallel == serial, bitwise

        _reset_caches()
        warm_s, warm_records = _timed(
            lambda: candidate_records_for_cluster(
                clone_pages(), execution=ExecutionConfig(cache_dir=root)
            )
        )
        assert warm_records == baseline  # warm == cold, bitwise

        # The warm read-back is serial (n_jobs=1) whichever fan-out
        # filled the store: serving records from disk needs no workers.
        cold[jobs] = {"seconds": cold_s, "speedup": serial_s / cold_s}
        warm[jobs] = {"seconds": warm_s, "speedup": serial_s / warm_s}

    # End-to-end Phase 2 for context: the grouping/ranking/selection
    # stages downstream of the fan-out run in-process either way.
    site_pages = list(corpus[0].pages)
    root = tempfile.mkdtemp(prefix="bench-extraction-identify-")

    def identify(execution=None):
        return PageletIdentifier(
            SubtreeConfig(), seed=0, execution=execution
        ).identify([Page(p.html, url=p.url, query=p.query) for p in site_pages])

    _reset_caches()
    identify_serial_s, serial_result = _timed(identify)
    _reset_caches()
    identify_cold_s, _ = _timed(
        lambda: identify(ExecutionConfig(cache_dir=root)), rounds=1
    )
    _reset_caches()
    identify_warm_s, warm_result = _timed(
        lambda: identify(ExecutionConfig(cache_dir=root))
    )
    assert [
        (p.path, repr(p.score), p.rank) for p in warm_result.pagelets
    ] == [(p.path, repr(p.score), p.rank) for p in serial_result.pagelets]

    # Per-worker serialized transport: fan the pages out at n_jobs=2
    # and compare the columnar result bytes the run report counted per
    # chunk with what pickling each chunk's decoded records would ship.
    # Cache off so the run measures real worker traffic, not store
    # read-backs.
    from repro.runtime import _chunks

    _reset_caches()
    builder = RunReportBuilder()
    with activate_report(builder):
        records = candidate_records_for_cluster(
            clone_pages(),
            execution=ExecutionConfig(n_jobs=2, artifact_cache="off"),
        )
    assert records == baseline  # the wire format is invisible, bitwise
    entry = builder.build().transport["phase2-records"]
    columnar = {
        "chunks": entry["chunks"],
        "bytes_sent": entry["bytes_sent"],
        "bytes_received": entry["bytes_received"],
    }
    pickled_bytes = sum(
        len(pickle.dumps(chunk, pickle.HIGHEST_PROTOCOL))
        for chunk in _chunks(records, 2)
    )
    transport_reduction = pickled_bytes / columnar["bytes_received"]

    cpus = available_cpus()
    skipped_floors = []
    if cpus < 4:
        skipped_floors.append(
            {
                "floor": "cold_at_4_workers",
                "reason": (
                    f"only {cpus} cpu(s) available; >= 4 cores are"
                    " needed for the cold fan-out floor to be honest"
                ),
            }
        )

    lines = [
        f"pages: {len(pages)}  cpus: {cpus}",
        f"per-page analysis, serial: {serial_s:.3f}s",
    ]
    for jobs in COLD_JOBS:
        lines.append(
            f"  jobs={jobs}: cold {cold[jobs]['seconds']:.3f}s"
            f" ({cold[jobs]['speedup']:.2f}x)"
            f"  warm read-back {warm[jobs]['seconds']:.3f}s"
            f" ({warm[jobs]['speedup']:.2f}x)"
        )
    lines.append(
        f"identify end-to-end ({len(site_pages)} pages):"
        f" serial {identify_serial_s:.3f}s"
        f"  cold {identify_cold_s:.3f}s"
        f"  warm {identify_warm_s:.3f}s"
        f" ({identify_serial_s / identify_warm_s:.2f}x)"
    )
    lines.append(
        "worker result bytes (n_jobs=2):"
        f" columnar {columnar['bytes_received']}B"
        f"  pickled records {pickled_bytes}B"
        f" ({transport_reduction:.2f}x smaller)"
    )
    for skip in skipped_floors:
        lines.append(f"skipped floor {skip['floor']}: {skip['reason']}")
    emit(capsys, "extraction_speedup", "\n".join(lines))

    emit_json(
        "BENCH_extraction",
        {
            "available_cpus": cpus,
            "n_pages": len(pages),
            "estimator": "min (cold runs are single-shot: a rerun is warm)",
            "per_page_analysis": {
                "serial_seconds": serial_s,
                "cold": {str(j): cold[j] for j in COLD_JOBS},
                # Serial read-back of the store each cold run filled.
                "warm_read_back": {str(j): warm[j] for j in COLD_JOBS},
            },
            "identify_end_to_end": {
                "n_pages": len(site_pages),
                "serial_seconds": identify_serial_s,
                "cold_seconds": identify_cold_s,
                "warm_seconds": identify_warm_s,
                "warm_speedup": identify_serial_s / identify_warm_s,
            },
            "record_transport": {
                "n_jobs": 2,
                "columnar": columnar,
                "pickled_records_bytes": pickled_bytes,
                "reduction": transport_reduction,
            },
            "bitwise_identical": True,
            "floors": {
                "warm": WARM_FLOOR,
                "cold_at_4_workers": COLD_FLOOR,
                "transport_reduction": TRANSPORT_FLOOR,
                "cold_floor_asserted": cpus >= 4,
                "skipped_floors": skipped_floors,
            },
        },
    )

    assert warm[1]["speedup"] >= WARM_FLOOR
    if cpus >= 4:
        assert cold[4]["speedup"] >= COLD_FLOOR
    assert transport_reduction >= TRANSPORT_FLOOR
