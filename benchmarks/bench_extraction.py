"""Phase-2 analysis: where candidate records come from, and how fast
cross-page grouping and selection run over them.

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

A second leg times cross-page grouping
(:func:`repro.core.subtree_sets.find_common_subtree_sets`) and the
containment relation of selection
(:func:`repro.core.selection._containment_relation`) against their
loop references in ``tests/oracles/``, on the exact inputs Phase 2
hands them while extracting every bench site, and asserts identical
outputs. It writes its own key of ``BENCH_extraction.json``; both legs
merge into the file, so neither clobbers the other.

Floors: grouping ≥ ``GROUPING_FLOOR`` (1.5)× its reference. Warm
read-back ≥ ``REPRO_BENCH_WARM_FLOOR``× serial (default 4.0). On a
2-vCPU host it read 5.19–6.95× while the serial path re-stemmed
every candidate's text, and 2.14–2.41× once the one-pass
record builder cut that serial per-page cost from 3.1–4.3 s to
1.15–1.21 s (three runs each; the read-back itself stayed at
0.50–0.69 s), so this floor now fails: the ``records/`` tier costs
about what it saves.
"""

from __future__ import annotations

import os
import tempfile
import time
from unittest import mock

from conftest import BENCH_SEED, available_cpus, emit, merge_json
from repro import api
from repro.config import ExecutionConfig, SubtreeConfig
from repro.core import identification, selection, subtree_sets
from repro.core.identification import PageletIdentifier
from repro.core.page import Page
from repro.core.single_page import candidate_records_for_cluster
from tests.oracles import grouping as grouping_oracle
from tests.oracles import selection as selection_oracle

WARM_FLOOR = float(os.environ.get("REPRO_BENCH_WARM_FLOOR", "4.0"))
#: Grouping against its loop reference; five runs on a 2-vCPU host read
#: 2.9–4.6× (containment 4.7–5.0×).
GROUPING_FLOOR = 1.5


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

    merge_json(
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
