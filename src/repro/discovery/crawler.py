"""Crawl building blocks: discovered-form provenance and link extraction.

The paper's corpus construction crawls from a seed URL under a page
budget, parses every fetched page, and records each *unique* search
form encountered (uniqueness by form action — the paper reports "over
3,000 unique search forms"). The crawl itself is the frontier service
(:func:`repro.api.crawl`, :mod:`repro.frontier.service`); this module
holds the two pieces it reads every page with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.frontier.urls import canonicalize_url
from repro.html.forms import SearchForm
from repro.html.tree import TagNode


@dataclass(frozen=True)
class DiscoveredForm:
    """One search form with crawl provenance."""

    form: SearchForm
    found_on: str
    #: Link depth at which the hosting page was reached.
    depth: int


def _extract_links(root: TagNode, base_url: Optional[str] = None) -> list[str]:
    """Anchor hrefs as canonical absolute URLs.

    Relative hrefs resolve against ``base_url`` (the hosting page);
    fragment-only anchors, ``javascript:``/``mailto:`` pseudo-links,
    and anything else that cannot name a fetchable page are dropped
    here, *before* any queue sees them — so frontier dedup always
    operates on canonical absolute URLs.
    """
    links = []
    for node in root.iter_tags():
        if node.tag == "a":
            href = node.get("href")
            if not href:
                continue
            url = canonicalize_url(href, base=base_url)
            if url is not None:
                links.append(url)
    return links
