"""A seeded simulated surface web with embedded deep-web entry points.

The graph has three kinds of pages:

- *hub* pages: link-heavy directory pages (link to hubs and leaves),
- *leaf* pages: content pages with a few outgoing links,
- *portal* pages: leaves that additionally carry the search form of a
  simulated deep-web site.

Out-degrees, portal placement, and link targets are all seeded, so a
crawl is reproducible. Pages are real HTML rendered on demand — the
crawler exercises the same parser and form detector a live crawler
would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.wordlists import DICTIONARY_WORDS
from repro.deepweb.corpus import make_site
from repro.deepweb.domains import DOMAINS
from repro.deepweb.site import SimulatedDeepWebSite
from repro.errors import SiteGenerationError


@dataclass(frozen=True)
class _PageSpec:
    kind: str  # "hub" | "leaf" | "portal"
    links: tuple[int, ...]
    #: Index into the deep-web site list for portal pages.
    site_index: int = -1


class SimulatedWeb:
    """A crawlable static web graph with deep-web portals."""

    def __init__(
        self,
        n_pages: int = 60,
        n_portals: int = 6,
        seed: int = 0,
        records_per_site: int = 150,
    ) -> None:
        if n_pages < 2:
            raise SiteGenerationError("a web needs at least two pages")
        if n_portals >= n_pages:
            raise SiteGenerationError("more portals than pages")
        self.seed = seed
        rng = random.Random(f"web:{seed}")

        domain_names = sorted(DOMAINS)
        self.sites: list[SimulatedDeepWebSite] = [
            make_site(
                domain_names[i % len(domain_names)],
                seed=seed * 100 + i,
                records=records_per_site,
            )
            for i in range(n_portals)
        ]

        # Page 0 is the seed hub. ~20% hubs, portals sprinkled among
        # the leaves (never the seed, so discovery requires crawling).
        kinds = ["hub"]
        for index in range(1, n_pages):
            kinds.append("hub" if rng.random() < 0.2 else "leaf")
        portal_candidates = [i for i, k in enumerate(kinds) if k == "leaf"]
        if len(portal_candidates) < n_portals:
            # A small web can draw fewer leaves than portals; then any
            # page but the seed may host one.
            portal_candidates = list(range(1, n_pages))
        portal_pages = rng.sample(portal_candidates, n_portals)
        for site_index, page in enumerate(portal_pages):
            kinds[page] = "portal"

        self._specs: list[_PageSpec] = []
        site_of_page = {page: i for i, page in enumerate(portal_pages)}
        for index, kind in enumerate(kinds):
            out_degree = rng.randint(5, 10) if kind == "hub" else rng.randint(1, 3)
            links = tuple(
                rng.randrange(n_pages) for _ in range(out_degree)
            )
            self._specs.append(
                _PageSpec(
                    kind=kind,
                    links=links,
                    site_index=site_of_page.get(index, -1),
                )
            )

    def __len__(self) -> int:
        return len(self._specs)

    @property
    def seed_url(self) -> str:
        return self.url(0)

    def url(self, page: int) -> str:
        return f"http://web{self.seed}.example.org/page/{page}"

    def page_index(self, url: str) -> Optional[int]:
        """Map a URL back to a page index (None for foreign URLs)."""
        prefix = f"http://web{self.seed}.example.org/page/"
        if not url.startswith(prefix):
            return None
        try:
            index = int(url[len(prefix):])
        except ValueError:
            return None
        if 0 <= index < len(self._specs):
            return index
        return None

    def site_for_form_action(self, action: str) -> Optional[SimulatedDeepWebSite]:
        """The deep-web site whose search form posts to ``action``."""
        for site in self.sites:
            if site.theme.host in action:
                return site
        return None

    def fetch(self, url: str) -> str:
        """Serve a page's HTML (raises KeyError for unknown URLs)."""
        index = self.page_index(url)
        if index is None:
            raise KeyError(f"no such page: {url}")
        return self._render(index)

    def _render(self, index: int) -> str:
        spec = self._specs[index]
        rng = random.Random(f"webpage:{self.seed}:{index}")
        words = rng.sample(list(DICTIONARY_WORDS), 12)
        links = "".join(
            f'<li><a href="{self.url(t)}">{w}</a></li>'
            for t, w in zip(spec.links, words)
        )
        body = [
            f"<h1>{'Directory' if spec.kind == 'hub' else 'Article'} {index}</h1>",
            f"<p>{' '.join(words)}</p>",
            f"<ul>{links}</ul>",
        ]
        if spec.kind == "portal":
            site = self.sites[spec.site_index]
            body.append(
                f"<h3>Search {site.theme.site_name}</h3>"
                f'<form action="http://{site.theme.host}/search" method="get">'
                '<input type="text" name="q">'
                '<input type="submit" value="Search">'
                "</form>"
            )
        # A login form that the detector must NOT flag.
        if spec.kind == "hub" and index % 3 == 0:
            body.append(
                '<form action="/login" method="post">'
                '<input type="text" name="username">'
                '<input type="password" name="password">'
                "</form>"
            )
        return (
            "<html><head><title>Page</title></head><body>"
            + "".join(body)
            + "</body></html>"
        )
