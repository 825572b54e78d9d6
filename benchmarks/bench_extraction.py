"""Phase 2 and the artifact store, end to end and layer by layer.

The site-run leg times ``api.run`` on every bench site three ways:
without a store, cold into a fresh store, and warm on that store. A
site run publishes two files, its page pack and its site model
(DESIGN.md §10), and a warm run reads every page back from the pack,
parsing none. The leg asserts identical result digests site by site
and records seconds, ratios to the storeless run, publishes, bytes
written and ``parse`` calls under the ``site_run_store`` key of
``BENCH_extraction.json``. ``api.run`` rather than ``api.extract``:
only a run that persists the site model shows the warm re-parse the
per-page tiers used to cost.

A second leg times cross-page grouping
(:func:`repro.core.subtree_sets.find_common_subtree_sets`) and the
containment relation of selection
(:func:`repro.core.selection._containment_relation`) against their
loop references in ``tests/oracles/``, on the exact inputs Phase 2
hands them while extracting every bench site, and asserts identical
outputs. It writes its own key of ``BENCH_extraction.json``; both legs
merge into the file, so neither clobbers the other.

Floors: a cold run into a fresh store takes at most
``COLD_STORE_CEILING`` (1.5)× the storeless run, a warm run parses no
page, and grouping runs ≥ ``GROUPING_FLOOR`` (1.5)× its reference.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from unittest import mock

from conftest import BENCH_SEED, available_cpus, emit, merge_json
from repro import api
from repro.config import ExecutionConfig
from repro.core import identification, selection, subtree_sets
from repro.core import page as page_module
from repro.core.page import Page
from repro.core.thor import Thor
from repro.html.parser import parse
from repro.io.export import result_digest
from tests.oracles import grouping as grouping_oracle
from tests.oracles import selection as selection_oracle

#: Cold site run into a fresh store against the storeless run. With one
#: file per page per tier, 21 perfbench sites read 1.75–1.97×.
COLD_STORE_CEILING = 1.5
#: Parses on the warm run: every tree comes from the page pack.
WARM_PARSES = 0
#: Rounds of the site-run leg; each way keeps its fastest round.
ROUNDS = 3
#: Grouping against its loop reference; five runs on a 2-vCPU host read
#: 2.9–4.6× (containment 4.7–5.0×).
GROUPING_FLOOR = 1.5


def _reset_caches() -> None:
    from repro.core.subtree_sets import clear_quad_matrix_memo
    from repro.runtime import clear_artifact_store_registry, clear_space_cache

    clear_space_cache()
    clear_artifact_store_registry()
    clear_quad_matrix_memo()


def _site_run(site, execution):
    """One timed ``api.run`` of a bench site from cold memos: its
    digest, seconds, parse calls and store counters."""
    _reset_caches()
    _cold_distance_memos()
    parses = []

    def counting_parse(*args, **kwargs):
        parses.append(None)
        return parse(*args, **kwargs)

    thor = Thor(api.ThorConfig(seed=BENCH_SEED, execution=execution))
    with mock.patch.object(page_module, "parse", counting_parse):
        start = time.perf_counter()
        result = thor.run(site)
        elapsed = time.perf_counter() - start
    return result_digest(result), elapsed, len(parses), thor.artifact_stats()


def test_site_run_store(corpus, capsys):
    """``api.run`` of every bench site without a store, cold into a
    fresh store, and warm on that store."""
    ways = ("storeless", "cold", "warm")
    best = dict.fromkeys(ways)
    counters = {}
    for round_index in range(ROUNDS):
        seconds = dict.fromkeys(ways, 0.0)
        digests = {way: [] for way in ways}
        counters = {
            way: {"puts": 0, "bytes_written": 0, "parses": 0}
            for way in ways[1:]
        }
        order = ways if round_index % 2 == 0 else ways[1:] + ways[:1]
        for sample in corpus:
            root = tempfile.mkdtemp(prefix="bench-site-run-")
            try:
                for way in order:
                    if way == "storeless":
                        execution = ExecutionConfig(artifact_cache="off")
                    else:
                        execution = ExecutionConfig(cache_dir=root)
                    digest, elapsed, parses, stats = _site_run(
                        sample.site, execution
                    )
                    seconds[way] += elapsed
                    digests[way].append(digest)
                    if way != "storeless":
                        counters[way]["puts"] += stats["puts"]
                        counters[way]["bytes_written"] += stats["bytes_written"]
                        counters[way]["parses"] += parses
            finally:
                shutil.rmtree(root)
        # Storeless == cold == warm, site by site.
        assert digests["cold"] == digests["storeless"]
        assert digests["warm"] == digests["storeless"]
        for way in ways:
            if best[way] is None or seconds[way] < best[way]:
                best[way] = seconds[way]

    cold_ratio = best["cold"] / best["storeless"]
    warm_ratio = best["warm"] / best["storeless"]
    cpus = available_cpus()
    lines = [
        f"sites: {len(corpus)}  cpus: {cpus}  rounds: {ROUNDS}",
        f"api.run storeless {best['storeless']:.3f}s",
        f"  cold into a fresh store {best['cold']:.3f}s ({cold_ratio:.2f}x)"
        f"  publishes {counters['cold']['puts']}"
        f"  bytes {counters['cold']['bytes_written']}"
        f"  parses {counters['cold']['parses']}",
        f"  warm on that store {best['warm']:.3f}s ({warm_ratio:.2f}x)"
        f"  publishes {counters['warm']['puts']}"
        f"  bytes {counters['warm']['bytes_written']}"
        f"  parses {counters['warm']['parses']}",
    ]
    emit(capsys, "site_run_store", "\n".join(lines))

    merge_json(
        "BENCH_extraction",
        {
            "site_run_store": {
                "available_cpus": cpus,
                "n_sites": len(corpus),
                "estimator": f"min over {ROUNDS} rounds of the summed"
                " per-site run times, memos emptied before each run",
                "seconds": best,
                "ratio_to_storeless": {"cold": cold_ratio, "warm": warm_ratio},
                "publishes": {
                    way: counters[way]["puts"] for way in ("cold", "warm")
                },
                "bytes_written": {
                    way: counters[way]["bytes_written"]
                    for way in ("cold", "warm")
                },
                "parses": {
                    way: counters[way]["parses"] for way in ("cold", "warm")
                },
                "identical_digests": True,
                "floors": {
                    "cold_ratio_max": COLD_STORE_CEILING,
                    "warm_parses": WARM_PARSES,
                },
            }
        },
    )

    assert cold_ratio <= COLD_STORE_CEILING
    assert counters["warm"]["parses"] == WARM_PARSES


def _phase2_inputs(corpus):
    """Every grouping call and every selection input of extracting the
    bench sites: what ``identify`` hands the two steps, captured."""
    grouping_calls = []
    selection_inputs = []

    def record_grouping(candidates, **kwargs):
        grouping_calls.append((candidates, kwargs))
        return subtree_sets.find_common_subtree_sets(candidates, **kwargs)

    def record_selection(candidates, *args, **kwargs):
        selection_inputs.append(list(candidates))
        return selection.score_sets(candidates, *args, **kwargs)

    config = api.ThorConfig(
        seed=BENCH_SEED, execution=ExecutionConfig(artifact_cache="off")
    )
    with mock.patch.object(
        identification, "find_common_subtree_sets", record_grouping
    ), mock.patch.object(identification, "score_sets", record_selection):
        for sample in corpus:
            api.extract(
                [Page(p.html, url=p.url, query=p.query) for p in sample.pages],
                config,
            )
    return grouping_calls, selection_inputs


def _cold_distance_memos() -> None:
    """Both sides of a grouping round start from the same empty
    distance memos, as a fresh run would."""
    from repro.cluster.editdist import cached_normalized_levenshtein
    from repro.vsm.matrix import clear_levenshtein_memo

    subtree_sets.clear_quad_matrix_memo()
    clear_levenshtein_memo()
    cached_normalized_levenshtein.cache_clear()


def _best_of_pairs(production, reference, rounds: int = 3):
    """Best-of-``rounds`` seconds of each side, alternating which runs
    first, with the last outputs of both."""
    best = {"production": None, "reference": None}
    outputs = {}
    sides = [("production", production), ("reference", reference)]
    for round_index in range(rounds):
        for name, fn in sides if round_index % 2 == 0 else sides[::-1]:
            _cold_distance_memos()
            start = time.perf_counter()
            outputs[name] = fn()
            elapsed = time.perf_counter() - start
            if best[name] is None or elapsed < best[name]:
                best[name] = elapsed
    return best, outputs


def test_phase2_grouping_selection_speedup(corpus, capsys):
    grouping_calls, selection_inputs = _phase2_inputs(corpus)

    grouping_s, grouped = _best_of_pairs(
        lambda: [
            subtree_sets.find_common_subtree_sets(candidates, **kwargs)
            for candidates, kwargs in grouping_calls
        ],
        lambda: [
            grouping_oracle.find_common_subtree_sets(candidates, **kwargs)
            for candidates, kwargs in grouping_calls
        ],
    )
    for ours, reference in zip(grouped["production"], grouped["reference"]):
        assert [
            (s.prototype, list(s.members.items())) for s in ours
        ] == [(s.prototype, list(s.members.items())) for s in reference]

    containment_s, contained = _best_of_pairs(
        lambda: [
            [list(s) for s in selection._containment_relation(candidates)]
            for candidates in selection_inputs
        ],
        lambda: [
            [list(s) for s in selection_oracle.containment_relation(candidates)]
            for candidates in selection_inputs
        ],
    )
    assert contained["production"] == contained["reference"]

    grouping_speedup = grouping_s["reference"] / grouping_s["production"]
    containment_speedup = containment_s["reference"] / containment_s["production"]
    n_sets = [len(candidates) for candidates in selection_inputs]
    lines = [
        f"sites: {len(corpus)}  grouping calls: {len(grouping_calls)}"
        f"  selection inputs: {len(selection_inputs)}"
        f" (max {max(n_sets, default=0)} sets)",
        f"grouping: {grouping_s['production']:.3f}s"
        f" vs reference {grouping_s['reference']:.3f}s"
        f" ({grouping_speedup:.2f}x)",
        f"containment: {containment_s['production']:.3f}s"
        f" vs reference {containment_s['reference']:.3f}s"
        f" ({containment_speedup:.2f}x)",
    ]
    emit(capsys, "phase2_grouping_selection", "\n".join(lines))

    merge_json(
        "BENCH_extraction",
        {
            "phase2_grouping_selection": {
                "available_cpus": available_cpus(),
                "n_sites": len(corpus),
                "grouping_calls": len(grouping_calls),
                "selection_inputs": len(selection_inputs),
                "max_sets": max(n_sets, default=0),
                "estimator": "min of 3 alternating rounds,"
                " distance memos emptied before each",
                "grouping": {
                    "seconds": grouping_s["production"],
                    "reference_seconds": grouping_s["reference"],
                    "speedup": grouping_speedup,
                },
                "containment": {
                    "seconds": containment_s["production"],
                    "reference_seconds": containment_s["reference"],
                    "speedup": containment_speedup,
                },
                "identical_outputs": True,
                "floors": {"grouping": GROUPING_FLOOR},
            }
        },
    )

    assert grouping_speedup >= GROUPING_FLOOR
