#!/usr/bin/env python
"""End-to-end: crawl for search forms, then build the deep-web engine.

Reproduces the paper's whole data path in one script:

1. frontier crawl (:func:`repro.api.crawl`) of a (simulated) surface
   web, collecting unique search forms — the paper's "over 3,000
   unique search forms" stage;
2. each discovered form becomes a deep-web source;
3. THOR probes and extracts each source; the QA-Objects are indexed;
4. the resulting engine answers content and site-level queries.

Usage::

    python examples/discover_and_index.py [query]
"""

from __future__ import annotations

import sys

from repro import api
from repro.api import CrawlConfig, ThorConfig
from repro.discovery import SimulatedWeb
from repro.engine import DeepWebSearchEngine


def main(query: str = "camera") -> None:
    web = SimulatedWeb(n_pages=60, n_portals=5, seed=1)
    print(f"Crawling {web.seed_url} (budget 200 pages)...")
    report = api.crawl(
        web, config=ThorConfig(seed=1, crawl=CrawlConfig(max_pages=200))
    )
    print(
        f"Fetched {report.pages_fetched} pages; discovered "
        f"{len(report.forms)} unique search forms:"
    )
    for discovered in report.forms:
        print(f"  depth {discovered.depth}: {discovered.form.action}")

    engine = DeepWebSearchEngine(ThorConfig(seed=1))
    print("\nProbing and indexing each discovered source:")
    for discovered in report.forms:
        site = web.site_for_form_action(discovered.form.action)
        if site is None:
            print(f"  (no backend for {discovered.form.action}, skipping)")
            continue
        summary = engine.register(site)
        print(
            f"  {summary.site:<34} {summary.pagelets_extracted} pagelets, "
            f"{summary.objects_indexed} objects"
        )

    print(f"\nSearch results for {query!r}:")
    hits = engine.search(query, top_k=5)
    if not hits:
        print("  (no matches)")
    for hit in hits:
        print(f"  {hit.score:.3f} [{hit.document.site}] "
              f"{hit.document.snippet(60)}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "camera")
