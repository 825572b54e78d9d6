"""Text layer: the one-pass candidate records and the stem memo.

Phase 2 stems each candidate subtree's content before ranking it
(Section 3.2.1, Step 2).
:func:`repro.core.single_page.page_candidate_records` tokenizes and
stems each content node of a page once and sums term counts up the
tree; the per-node reference (:mod:`tests.oracles.records`) re-extracts
every candidate's ``node.text()`` and re-walks its subtree. This bench
runs both over the bench corpus's Phase-2 pages — each site's multi-
and single-match pages, grouped by class as the Figure-8 experiment
does in place of a perfect Phase 1 — asserts that they agree record for
record (term-count order included), and archives ``BENCH_text.json``:

- the pass's time against the oracle's, best of ``ROUNDS``, on trees
  parsed beforehand (neither side pays for parsing);
- ``porter_stem`` calls for each scope a stem memo can have: one
  ``extract_counts`` call (the oracle makes one per candidate), one
  page, one cluster (one ``candidate_records_for_cluster`` call) and
  one run (a site). A memo holds each distinct word of its scope once,
  so its calls are the scope's distinct words; the page texts' word
  count is the base;
- the same for the page-level term counts of every probed page (the
  quarantine scan's signatures), one memo per call against one per run;
- ``extract_counts`` words per second over the Phase-2 pages' text,
  one memo per call against one per run;
- ``available_cpus`` and any skipped floor with its reason (this
  bench is one process, so no floor depends on the core count).

Floors (set well below the measured ratios):

- the pass ≥ ``PASS_FLOOR``× faster than the oracle;
- ``extract_counts`` with a run memo ≥ ``MEMO_FLOOR``× the words per
  second of calls that each keep their own memo.
"""

from __future__ import annotations

import contextlib
import time

from conftest import available_cpus, emit, emit_json
from repro.core.page import Page
from repro.core.single_page import page_candidate_records
from repro.text import terms
from repro.text.terms import DEFAULT_EXTRACTOR
from repro.text.tokenize import tokenize_words
from tests.oracles.records import page_records

PASS_FLOOR = 2.0
MEMO_FLOOR = 1.5
ROUNDS = 3


@contextlib.contextmanager
def counted_stems():
    """Count the ``porter_stem`` calls term extraction makes."""
    calls = [0]
    original = terms.porter_stem

    def counting(word: str) -> str:
        calls[0] += 1
        return original(word)

    terms.porter_stem = counting
    try:
        yield calls
    finally:
        terms.porter_stem = original


def _best(fn) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _phase2_clusters(sample) -> list[list[Page]]:
    """One site's Phase-2 pages, one cluster per pagelet class, parsed
    into fresh pages so no earlier bench's caches leak in."""
    by_class: dict[str, list[Page]] = {}
    for page in sample.pages:
        if page.has_pagelet:
            fresh = Page(page.html, url=page.url, query=page.query)
            fresh.tree
            by_class.setdefault(page.class_label, []).append(fresh)
    return list(by_class.values())


def test_text_layer(corpus, capsys):
    sites = [_phase2_clusters(sample) for sample in corpus]
    pages = [page for site in sites for cluster in site for page in cluster]

    # -- the pass against the per-node oracle -----------------------------
    def run_pass():
        out = []
        for site in sites:
            for cluster in site:
                stems: dict[str, str] = {}  # one cluster call's memo
                out.extend(
                    page_candidate_records(page, stems=stems) for page in cluster
                )
        return out

    def run_oracle():
        return [page_records(page) for page in pages]

    fast, slow = run_pass(), run_oracle()
    assert fast == slow
    for mine, theirs in zip(fast, slow):
        for a, b in zip(mine, theirs):
            assert list(a.term_counts.items()) == list(b.term_counts.items())
    pass_s = _best(run_pass)
    oracle_s = _best(run_oracle)
    pass_speedup = oracle_s / pass_s

    # -- porter_stem calls per memo scope ----------------------------------
    words = sum(len(tokenize_words(page.tree.text())) for page in pages)

    def stem_calls(scope_units) -> int:
        with counted_stems() as calls:
            for unit in scope_units:
                stems: dict[str, str] = {}
                for page in unit:
                    page_candidate_records(page, stems=stems)
        return calls[0]

    with counted_stems() as calls:
        run_oracle()
    scopes = {
        "call (per-node oracle)": calls[0],
        "page": stem_calls([[page] for page in pages]),
        "cluster": stem_calls([cluster for site in sites for cluster in site]),
        "run": stem_calls(
            [[page for cluster in site for page in cluster] for site in sites]
        ),
    }

    probed = [
        [Page(page.html) for page in sample.pages] for sample in corpus
    ]
    for site_pages in probed:
        for page in site_pages:
            page.tree

    def signature_calls(run_memo: bool) -> int:
        with counted_stems() as calls:
            for site_pages in probed:
                stems: dict[str, str] = {}  # one run's memo
                for page in site_pages:
                    Page(page.html, tree=page.tree).term_counts(
                        stems if run_memo else None
                    )
        return calls[0]

    signatures_call = signature_calls(run_memo=False)
    signatures_run = signature_calls(run_memo=True)

    # -- extract_counts throughput -----------------------------------------
    site_texts = [
        [page.tree.text() for cluster in site for page in cluster]
        for site in sites
    ]

    def counts_call():
        for texts in site_texts:
            for text in texts:
                DEFAULT_EXTRACTOR.extract_counts(text)

    def counts_run():
        for texts in site_texts:
            stems: dict[str, str] = {}
            for text in texts:
                DEFAULT_EXTRACTOR.extract_counts(text, stems)

    call_wps = words / _best(counts_call)
    run_wps = words / _best(counts_run)
    memo_speedup = run_wps / call_wps

    cpus = available_cpus()
    skipped_floors: list[dict] = []
    n_records = sum(len(records) for records in fast)
    lines = [
        f"phase-2 pages: {len(pages)} in"
        f" {sum(len(site) for site in sites)} clusters over {len(sites)} sites"
        f"  records: {n_records}  words: {words}  cpus: {cpus}",
        f"records: one pass {pass_s:.3f}s  per-node oracle {oracle_s:.3f}s"
        f" ({pass_speedup:.2f}x)",
        "porter_stem calls by memo scope:",
    ]
    for scope, count in scopes.items():
        lines.append(f"  {scope}: {count} ({count / words:.3f} per word)")
    lines.append(
        f"page signatures ({sum(len(p) for p in probed)} probed pages):"
        f" memo per call {signatures_call}  per run {signatures_run}"
    )
    lines.append(
        f"extract_counts: {call_wps:,.0f} words/s with a memo per call,"
        f" {run_wps:,.0f} words/s per run ({memo_speedup:.2f}x)"
    )
    emit(capsys, "text_layer", "\n".join(lines))

    emit_json(
        "BENCH_text",
        {
            "available_cpus": cpus,
            "estimator": f"min of {ROUNDS} rounds",
            "phase2_pages": len(pages),
            "clusters": sum(len(site) for site in sites),
            "sites": len(sites),
            "records": n_records,
            "words": words,
            "records_pass": {
                "pass_seconds": pass_s,
                "oracle_seconds": oracle_s,
                "speedup": pass_speedup,
                "bitwise_identical": True,
            },
            "porter_stem_calls": scopes,
            "page_signatures": {
                "pages": sum(len(p) for p in probed),
                "call_memo": signatures_call,
                "run_memo": signatures_run,
            },
            "extract_counts_words_per_s": {
                "call_memo": call_wps,
                "run_memo": run_wps,
                "speedup": memo_speedup,
            },
            "floors": {
                "pass_speedup": PASS_FLOOR,
                "memo_speedup": MEMO_FLOOR,
                "skipped_floors": skipped_floors,
            },
        },
    )

    assert pass_speedup >= PASS_FLOOR
    assert memo_speedup >= MEMO_FLOOR
