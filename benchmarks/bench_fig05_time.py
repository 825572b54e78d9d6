"""Figure 5: average time per clustering iteration vs pages per site.

Paper claim: tag-based clustering is about an order of magnitude faster
than content-based clustering (22.3 distinct tags vs 184.0 distinct
content terms per page), and the URL edit-distance approach is far
slower still.
"""

from __future__ import annotations

import os

from conftest import BENCH_SEED, available_cpus, emit, merge_json
from repro.eval.reporting import format_series
from repro.signatures.registry import get_configuration
from tests.oracles import registry as oracle_registry


def test_fig05_time(corpus, quality_results, benchmark, capsys):
    sizes, configs, results = quality_results
    series = {
        key: [results[key][n].seconds for n in sizes] for key in configs
    }
    emit(
        capsys,
        "fig05_time",
        format_series(
            "pages/site",
            sizes,
            series,
            title="Figure 5 — avg seconds per clustering iteration",
            precision=5,
        ),
    )

    at_110 = {key: results[key][110].seconds for key in configs}
    # Tag-based must beat content-based; URL edit distance is the
    # slowest of the similarity-based approaches.
    assert at_110["ttag"] < at_110["tcon"]
    assert at_110["rtag"] < at_110["rcon"]
    assert at_110["url"] > at_110["ttag"]

    # Benchmark one content-based run for the timing table.
    pages = list(corpus[0].pages)
    config = get_configuration("tcon")
    benchmark.pedantic(
        lambda: config(pages, 5, restarts=1, seed=BENCH_SEED),
        rounds=3,
        iterations=1,
    )


#: Wall-clock floor asserted for the TFIDF-tag numpy speedup over the
#: pure-python reference at n=110. Measured ~5.6× on the reference
#: machine; the CI smoke run (tiny corpus, shared runners) overrides
#: this downward.
SPEEDUP_FLOOR = float(os.environ.get("REPRO_BENCH_SPEEDUP_FLOOR", "5.0"))


def test_fig05_backend_speedup(corpus, capsys):
    """Compare production with the pure-python reference per
    configuration at n=110.

    "python" times the reference configurations of
    ``tests/oracles/registry.py`` (sparse-vector K-Means, scalar
    k-medoids); "numpy" times production's
    :func:`~repro.signatures.registry.get_configuration`. Writes
    machine-readable per-config wall clock and speedups to
    ``results/BENCH_clustering.json`` and asserts the headline claim:
    TFIDF-tag K-Means (THOR's configuration) runs at least
    ``SPEEDUP_FLOOR``× faster than the reference. Times are the
    minimum over several calls — the estimator least sensitive to
    scheduler noise — so the asserted ratio is the kernels', not the
    machine's.
    """
    import time

    configs = ("ttag", "rtag", "tcon", "rcon", "url")
    calls_per_site = 3
    sites = corpus[:3]  # url/python is O(n²) scalar calls — keep it bounded
    lookups = {
        "python": oracle_registry.get_configuration,
        "numpy": get_configuration,
    }
    page_sets = [list(sample.pages) for sample in sites]
    for pages in page_sets:  # pre-parse outside every timed region
        for page in pages:
            page.tag_counts()
            page.term_counts()

    times: dict[str, dict[str, float]] = {}
    for implementation, lookup in lookups.items():
        times[implementation] = {}
        for key in configs:
            config = lookup(key)
            calls = (
                1 if key == "url" and implementation == "python" else calls_per_site
            )
            best = float("inf")
            for pages in page_sets:
                for call in range(calls):
                    started = time.perf_counter()
                    config(pages, 4, restarts=1, seed=BENCH_SEED + call)
                    best = min(best, time.perf_counter() - started)
            times[implementation][key] = best

    payload = {
        "n_pages": 110,
        "k": 4,
        "restarts": 1,
        "sites": len(sites),
        "calls_per_site": calls_per_site,
        "estimator": "min",
        "numpy_available": True,
        "notes": (
            "url/numpy wall clock depends heavily on interned-pair "
            "Levenshtein memo warmth: the first run over a URL "
            "collection pays the kernel cost, repeats mostly hit the "
            "memo, so the url speedup varies with what ran earlier."
        ),
        "configs": {
            key: {
                "python_seconds": times["python"][key],
                "numpy_seconds": times["numpy"][key],
                "speedup": (
                    times["python"][key] / times["numpy"][key]
                    if times["numpy"][key] > 0
                    else None
                ),
            }
            for key in configs
        },
    }
    merge_json("BENCH_clustering", payload)

    lines = [f"{'config':<8}{'python s':>12}{'numpy s':>12}{'speedup':>10}"]
    for key in configs:
        entry = payload["configs"][key]
        numpy_s = entry["numpy_seconds"]
        speedup = entry["speedup"]
        lines.append(
            f"{key:<8}{entry['python_seconds']:>12.5f}"
            f"{(f'{numpy_s:.5f}' if numpy_s is not None else '-'):>12}"
            f"{(f'{speedup:.2f}x' if speedup is not None else '-'):>10}"
        )
    emit(capsys, "fig05_backend_speedup", "\n".join(lines))

    assert payload["configs"]["ttag"]["speedup"] >= SPEEDUP_FLOOR


#: Restarts for the parallel-fan-out bench. One restart of this
#: workload costs ~20 ms of CPU, so the other 63 clear
#: ``runtime.fan_out_pays`` by far (a pool start, two tasks and the
#: shutdown cost ~14 ms on a 2-vCPU host) and really fan out.
PARALLEL_RESTARTS = int(os.environ.get("REPRO_BENCH_PARALLEL_RESTARTS", "64"))

#: Wall-clock floor asserted for the n_jobs=2 restart fan-out — only
#: meaningful with at least two cores; single-core machines record the
#: honest (≈1×) number and assert a sanity floor instead.
PARALLEL_FLOOR = float(os.environ.get("REPRO_BENCH_PARALLEL_FLOOR", "1.2"))


def _time_restart_fanout(kmeans_class, vectors, restarts: int, rounds: int):
    """Best-of-``rounds`` wall time of a seeded ``kmeans_class`` fit at
    ``n_jobs=1`` and ``n_jobs=2``, and the number of worker chunks the
    ``n_jobs=2`` fits sent to a pool; asserts that both fits agree.

    The two settings alternate round by round, so a drift in host load
    falls on both rather than on whichever ran second.
    """
    import time

    from repro.resilience import RunReportBuilder, activate_report

    models = {
        n_jobs: kmeans_class(
            n_jobs=n_jobs, k=4, restarts=restarts, seed=BENCH_SEED
        )
        for n_jobs in (1, 2)
    }
    timings = {1: float("inf"), 2: float("inf")}
    results = {}
    report = RunReportBuilder()
    for round_index in range(rounds):
        for n_jobs in (1, 2) if round_index % 2 == 0 else (2, 1):
            started = time.perf_counter()
            with activate_report(report):
                results[n_jobs] = models[n_jobs].fit(vectors)
            timings[n_jobs] = min(
                timings[n_jobs], time.perf_counter() - started
            )

    # The execution plan must not change the seeded outcome.
    assert results[2].clustering.labels == results[1].clustering.labels
    assert results[2].internal_similarity == results[1].internal_similarity
    worker_chunks = report.build().transport.get("kmeans", {}).get("chunks", 0)
    return timings, worker_chunks


def _tcon_vectors(corpus):
    from repro.signatures.content import content_signature
    from repro.vsm.weighting import tfidf_vectors

    pages = list(corpus[0].pages)
    return pages, tfidf_vectors([content_signature(p) for p in pages])


def test_fig05_restart_parallelism(corpus, capsys):
    """Restart fan-out across worker processes on the Figure-5 workload.

    Clusters one site's 110-page sample with TFIDF-content K-Means
    (the heaviest per-restart kernel of the figure) using the
    pure-python reference K-Means of ``tests/oracles/``, fanned out
    through :func:`repro.runtime.run_restarts`, serial vs
    ``n_jobs=2``, which times one restart inline and fans the others
    out because they outweigh a pool start (the run report's transport
    entry must show worker chunks). Per-restart seed streams make the
    fan-out bitwise identical to the serial loop, which this asserts —
    the timing entry lands in ``BENCH_clustering.json`` next to the
    speedups over the reference, with ``cpu_count`` recorded so
    single-core machines (where two workers time-slice one core) are
    not read as regressions.
    """
    from tests.oracles.kmeans import OracleKMeans

    pages, vectors = _tcon_vectors(corpus)
    cpu_count = available_cpus()
    timings, worker_chunks = _time_restart_fanout(
        OracleKMeans, vectors, PARALLEL_RESTARTS, rounds=2
    )
    # Both n_jobs=2 fits really fanned out: two worker chunks each.
    assert worker_chunks == 4

    speedup = timings[1] / timings[2]
    merge_json(
        "BENCH_clustering",
        {
            "restart_parallelism": {
                "configuration": "tcon",
                "backend": "python",
                "n_pages": len(pages),
                "k": 4,
                "restarts": PARALLEL_RESTARTS,
                "n_jobs": 2,
                "cpu_count": cpu_count,
                "serial_seconds": timings[1],
                "parallel_seconds": timings[2],
                "speedup": speedup,
                "estimator": "min",
                "labels_identical": True,
                "worker_chunks": worker_chunks,
                "note": (
                    "speedup requires >= 2 available cores; on a "
                    "single core two workers time-slice and the ratio "
                    "sits near 1x; n_jobs=2 times one restart inline "
                    "and fans the other "
                    f"{PARALLEL_RESTARTS - 1} out over two workers"
                ),
            }
        },
    )
    emit(
        capsys,
        "fig05_restart_parallelism",
        f"tcon/python restarts={PARALLEL_RESTARTS} cpus={cpu_count}\n"
        f"{'serial':<10}{timings[1]:>10.3f}s\n"
        f"{'n_jobs=2':<10}{timings[2]:>10.3f}s\n"
        f"{'speedup':<10}{speedup:>10.2f}x",
    )

    if cpu_count >= 2:
        assert speedup >= PARALLEL_FLOOR
    else:
        # One core: no parallel speedup is possible — assert the fan-out
        # at least stays within 2x of serial (overhead sanity bound).
        assert speedup >= 0.5


#: Restarts for the shipped-K-Means fan-out. One restart of this
#: workload costs ~2.3 ms of CPU on a 2-vCPU host, so 63 of them save
#: ~72 ms over two workers and clear ``runtime.fan_out_pays`` five
#: times over; fewer would sit near the break-even and make the
#: fan-out depend on host speed, so this count is not configurable.
SHIPPED_RESTARTS = 64


def test_fig05_shipped_restart_parallelism(corpus, capsys):
    """The same restart fan-out with the shipped numpy K-Means.

    This is the pool side of the restart rule on shipped code. It
    records the measured ratio and asserts that every ``n_jobs=2`` fit
    fanned out, that it matches the serial fit, and the 2× overhead
    sanity bound, which a worker-side slowdown of the restart kernel
    breaks (before ``group_sums`` canonicalised the dtype of an
    unpickled matrix, this read 0.26–0.46×).
    """
    from repro.cluster.kmeans import KMeans

    pages, vectors = _tcon_vectors(corpus)
    cpu_count = available_cpus()
    timings, worker_chunks = _time_restart_fanout(
        KMeans, vectors, SHIPPED_RESTARTS, rounds=3
    )
    assert worker_chunks == 6  # two per n_jobs=2 fit

    speedup = timings[1] / timings[2]
    merge_json(
        "BENCH_clustering",
        {
            "shipped_restart_parallelism": {
                "configuration": "tcon",
                "backend": "numpy",
                "n_pages": len(pages),
                "k": 4,
                "restarts": SHIPPED_RESTARTS,
                "n_jobs": 2,
                "cpu_count": cpu_count,
                "serial_seconds": timings[1],
                "parallel_seconds": timings[2],
                "speedup": speedup,
                "estimator": "min",
                "labels_identical": True,
                "worker_chunks": worker_chunks,
            }
        },
    )
    emit(
        capsys,
        "fig05_shipped_restart_parallelism",
        f"tcon/numpy restarts={SHIPPED_RESTARTS} cpus={cpu_count}\n"
        f"{'serial':<10}{timings[1]:>10.3f}s\n"
        f"{'n_jobs=2':<10}{timings[2]:>10.3f}s\n"
        f"{'speedup':<10}{speedup:>10.2f}x",
    )
    assert speedup >= 0.5
