"""Figure 5: average time per clustering iteration vs pages per site.

Paper claim: tag-based clustering is about an order of magnitude faster
than content-based clustering (22.3 distinct tags vs 184.0 distinct
content terms per page), and the URL edit-distance approach is far
slower still.
"""

from __future__ import annotations

import os

from conftest import BENCH_SEED, emit, merge_json
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
