"""HTML layer: the one-pass parser against its two-stage reference.

THOR reads every answer page as a tag tree, so every run parses every
page it has not stored (the paper cleaned each page with HTML Tidy and
parsed it before Phase 1). :func:`repro.html.parser.parse` builds the
tree in the loop that scans the markup; the reference
(``tests/oracles/html.py``) tokenizes into token objects through a
character cursor and then builds. This bench parses two corpora with
both, asserts that they build the same trees (keep-whitespace off, as
the pipeline parses), and archives ``BENCH_html.json``:

- ms per page for each side, best of ``ROUNDS``, on the bench corpus's
  probed pages (every answer class, as Phase 1 clusters them) and on
  the pages of a 200-page simulated web (link-heavy hub and article
  pages, as a crawl fetches them);
- ``available_cpus`` and any skipped floor with its reason (this
  bench is one process, so no floor depends on the core count).

Floor (set below the measured ratios): the parser ≥ ``PARSE_FLOOR``×
faster than the reference on each corpus.
"""

from __future__ import annotations

import time

from conftest import available_cpus, emit, emit_json
from repro.discovery.web import SimulatedWeb
from repro.html.parser import parse
from tests.oracles.html import assert_same_tree, parse as reference_parse

PARSE_FLOOR = 1.5
ROUNDS = 5
WEB_PAGES = 200
WEB_PORTALS = 8
WEB_SEED = 5


def _best_ms_per_page(fn, documents) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for html in documents:
            fn(html)
        best = min(best, time.perf_counter() - start)
    return best * 1e3 / len(documents)


def test_html_layer(corpus, capsys):
    web = SimulatedWeb(n_pages=WEB_PAGES, n_portals=WEB_PORTALS, seed=WEB_SEED)
    corpora = {
        "probe_pages": [page.html for sample in corpus for page in sample.pages],
        "crawl_pages": [web.fetch(web.url(index)) for index in range(len(web))],
    }
    cpus = available_cpus()
    results = {}
    lines = []
    for name, documents in corpora.items():
        for html in documents:
            assert_same_tree(parse(html), reference_parse(html))
        parse_ms = _best_ms_per_page(parse, documents)
        reference_ms = _best_ms_per_page(reference_parse, documents)
        speedup = reference_ms / parse_ms
        results[name] = {
            "pages": len(documents),
            "mean_chars": sum(map(len, documents)) / len(documents),
            "parse_ms_per_page": parse_ms,
            "reference_ms_per_page": reference_ms,
            "speedup": speedup,
            "identical_trees": True,
        }
        lines.append(
            f"{name}: {len(documents)} pages"
            f" (mean {results[name]['mean_chars']:.0f} chars)"
            f"  one-pass {parse_ms:.4f} ms/page"
            f"  two-stage reference {reference_ms:.4f} ms/page ({speedup:.2f}x)"
        )
    lines.append(f"identical trees on every page; cpus: {cpus}")
    emit(capsys, "html_layer", "\n".join(lines))

    emit_json(
        "BENCH_html",
        {
            "available_cpus": cpus,
            "estimator": f"min of {ROUNDS} rounds",
            "web": {"pages": WEB_PAGES, "portals": WEB_PORTALS, "seed": WEB_SEED},
            **results,
            "floors": {"parse_speedup": PARSE_FLOOR, "skipped_floors": []},
        },
    )

    for name in corpora:
        assert results[name]["speedup"] >= PARSE_FLOOR, name
