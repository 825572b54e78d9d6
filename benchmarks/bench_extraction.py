"""Phase-2 per-page analysis: storeless serial vs the artifact cache.

Per-page single-page analysis — parse → candidate subtrees →
node-free record snapshots with subtree term counts
(:func:`repro.core.single_page.candidate_records_for_cluster`) — runs
in the driving process at any ``n_jobs``: a worker would re-parse each
page and ship its records back, which costs more than the whole
in-process pass (DESIGN.md §10). What this bench still compares is
where the records come from: built storeless, built cold while
publishing to a fresh store, or read back warm from that store. It
asserts the bitwise-equivalence invariant along the way (store ==
storeless and warm == cold, record for record) and archives
``BENCH_extraction.json``.

Floor: warm read-back ≥ ``REPRO_BENCH_WARM_FLOOR``× serial (default
4.0). On a 2-vCPU host it read 5.19–6.95× while the serial path
re-stemmed every candidate's text, and 2.14–2.41× once the one-pass
record builder cut that serial per-page cost from 3.1–4.3 s to
1.15–1.21 s (three runs each; the read-back itself stayed at
0.50–0.69 s), so this floor now fails: the ``records/`` tier costs
about what it saves.
"""

from __future__ import annotations

import os
import tempfile
import time

from conftest import available_cpus, emit, emit_json
from repro.config import ExecutionConfig, SubtreeConfig
from repro.core.identification import PageletIdentifier
from repro.core.page import Page
from repro.core.single_page import candidate_records_for_cluster

WARM_FLOOR = float(os.environ.get("REPRO_BENCH_WARM_FLOOR", "4.0"))


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


def test_phase2_cache_speedup(corpus, capsys):
    pages = [page for sample in corpus for page in sample.pages]

    def clone_pages():
        # Fresh Page objects every timed run: a previously parsed tree
        # cached on the page would hand the serial path a head start
        # (and the cache paths must re-derive everything from HTML).
        return [Page(p.html, url=p.url, query=p.query) for p in pages]

    serial_s, baseline = _timed(
        lambda: candidate_records_for_cluster(clone_pages())
    )

    root = tempfile.mkdtemp(prefix="bench-extraction-")
    _reset_caches()
    start = time.perf_counter()
    cold_records = candidate_records_for_cluster(
        clone_pages(), execution=ExecutionConfig(cache_dir=root)
    )
    cold_s = time.perf_counter() - start  # one shot: a rerun is warm
    assert cold_records == baseline  # store == storeless, bitwise

    _reset_caches()
    warm_s, warm_records = _timed(
        lambda: candidate_records_for_cluster(
            clone_pages(), execution=ExecutionConfig(cache_dir=root)
        )
    )
    assert warm_records == baseline  # warm == cold, bitwise
    cold = {"seconds": cold_s, "speedup": serial_s / cold_s}
    warm = {"seconds": warm_s, "speedup": serial_s / warm_s}

    # End-to-end Phase 2 for context: grouping, ranking and selection
    # run after the records either way.
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

    cpus = available_cpus()
    lines = [
        f"pages: {len(pages)}  cpus: {cpus}",
        f"per-page analysis, serial: {serial_s:.3f}s",
        f"  cold into a fresh store {cold_s:.3f}s ({cold['speedup']:.2f}x)"
        f"  warm read-back {warm_s:.3f}s ({warm['speedup']:.2f}x)",
        f"identify end-to-end ({len(site_pages)} pages):"
        f" serial {identify_serial_s:.3f}s"
        f"  cold {identify_cold_s:.3f}s"
        f"  warm {identify_warm_s:.3f}s"
        f" ({identify_serial_s / identify_warm_s:.2f}x)",
    ]
    emit(capsys, "extraction_speedup", "\n".join(lines))

    emit_json(
        "BENCH_extraction",
        {
            "available_cpus": cpus,
            "n_pages": len(pages),
            "estimator": "min (cold runs are single-shot: a rerun is warm)",
            "per_page_analysis": {
                "serial_seconds": serial_s,
                # Built while publishing to a fresh store.
                "cold_store": cold,
                # Serial read-back of the store the cold run filled.
                "warm_read_back": warm,
            },
            "identify_end_to_end": {
                "n_pages": len(site_pages),
                "serial_seconds": identify_serial_s,
                "cold_seconds": identify_cold_s,
                "warm_seconds": identify_warm_s,
                "warm_speedup": identify_serial_s / identify_warm_s,
            },
            "bitwise_identical": True,
            "floors": {"warm": WARM_FLOOR},
        },
    )

    assert warm["speedup"] >= WARM_FLOOR
