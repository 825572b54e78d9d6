"""Shared fixtures for the figure benchmarks.

Scale knobs (environment variables):

- ``REPRO_BENCH_SITES``  — simulated sites in the corpus (default 6;
  the paper used 50 — set 50 for a full-fidelity, slower run).
- ``REPRO_BENCH_SEED``   — corpus seed (default 2).
- ``REPRO_BENCH_SCALE_MAX`` — largest synthetic collection for the
  scalability figures (default 5500; the paper went to 5.5M).

Each bench prints the same rows/series its figure plots (via
``capsys.disabled()`` so the tables appear in the pytest output) and
also appends them to ``benchmarks/results/``.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.deepweb.corpus import generate_corpus
from repro.deepweb.synthetic import SyntheticPageGenerator

BENCH_SITES = int(os.environ.get("REPRO_BENCH_SITES", "6"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2"))
SCALE_MAX = int(os.environ.get("REPRO_BENCH_SCALE_MAX", "5500"))

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def corpus():
    """The simulated evaluation corpus (sites × 110 probes each)."""
    return generate_corpus(n_sites=BENCH_SITES, seed=BENCH_SEED)


#: Synthetic collections are generated per site (the paper's Figures
#: 6/7 cluster each of the 50 collections separately and average).
SCALE_COLLECTIONS = int(os.environ.get("REPRO_BENCH_SCALE_COLLECTIONS", "3"))


@pytest.fixture(scope="session")
def synthetic_collections(corpus):
    """Per-site synthetic page collections for the scalability figures.

    Each collection is generated from one site's fitted class-signature
    distributions, mirroring the paper's setup where a synthetic
    collection scales up one site's sample.
    """
    collections = []
    for sample in corpus[:SCALE_COLLECTIONS]:
        generator = SyntheticPageGenerator.fit(list(sample.pages))
        collections.append(generator.generate(SCALE_MAX, seed=BENCH_SEED))
    return collections


def available_cpus() -> int:
    """CPUs this process may run on (what a fan-out floor needs)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def emit(capsys, name: str, text: str) -> None:
    """Print a result table to the live terminal and archive it."""
    with capsys.disabled():
        print(f"\n================ {name} ================")
        print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def emit_json(name: str, payload) -> None:
    """Archive a machine-readable result next to the text tables."""
    import json

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def merge_json(name: str, fragment: dict) -> None:
    """Merge top-level keys into an archived JSON result.

    Lets a bench add its sections to a file that other benches also
    write (``BENCH_clustering.json``'s reference speedups) without
    clobbering the keys it does not own.
    """
    import json

    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            data = {}
    data.update(fragment)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def quality_results(corpus):
    """Shared Figure 4/5 experiment: entropy and time per config/size."""
    from repro.eval.experiments import clustering_quality_experiment

    sizes = (5, 10, 20, 40, 80, 110)
    configs = ("ttag", "rtag", "tcon", "rcon", "size", "url", "rand")
    results = clustering_quality_experiment(
        corpus, configs, sizes, repeats=2, seed=BENCH_SEED
    )
    return sizes, configs, results
