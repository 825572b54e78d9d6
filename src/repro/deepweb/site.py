"""The simulated deep-web site: a query interface over a database.

:class:`SimulatedDeepWebSite` implements the
:class:`~repro.core.probing.DeepWebSource` protocol: ``query(term)``
returns a fully rendered answer page whose class depends on the match
count (multi / single / no-match) or on a deterministic per-term server
error. Pages come back as :class:`LabeledPage` — a
:class:`~repro.core.page.Page` carrying the ground truth the paper
obtained by hand labeling: the page class, the gold QA-Pagelet path,
and the gold QA-Object paths.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.core.page import Page
from repro.deepweb.database import SearchableDatabase
from repro.deepweb.domains.base import DomainSpec
from repro.deepweb.templates import PageTemplates, SiteTheme
from repro.html.paths import node_path
from repro.html.tree import TagNode, TagTree

#: Page class labels.
CLASS_MULTI = "multi"
CLASS_SINGLE = "single"
CLASS_NOMATCH = "nomatch"
CLASS_ERROR = "error"

#: Classes whose pages contain a QA-Pagelet.
PAGELET_CLASSES = frozenset({CLASS_MULTI, CLASS_SINGLE})


class LabeledPage(Page):
    """A generated page with ground truth attached.

    The labels are either given (a page cache read back from disk) or,
    for a page the simulator just rendered, read from the page's own
    tree the first time either label is asked for, so a page is not
    parsed a second time just to label it. The tree may be parsed or
    loaded from the artifact store; its codec keeps the ``id``/``class``
    markers the labels come from. A run without a ``run_id`` never
    reads the labels. A checkpointed run does: its probe checkpoint
    records each page with its labels, so every pagelet-class page is
    parsed when the checkpoint is saved.
    """

    __slots__ = ("class_label", "_results_id", "_gold")

    def __init__(
        self,
        html: str,
        url: str,
        query: str,
        class_label: str,
        gold_pagelet_path: Optional[str] = None,
        gold_object_paths: tuple[str, ...] = (),
        results_id: Optional[str] = None,
    ) -> None:
        super().__init__(html, url=url, query=query)
        self.class_label = class_label
        #: The theme's results-container id when the labels are to be
        #: read from the tree; ``None`` when they were given.
        self._results_id = results_id
        self._gold: Optional[tuple[Optional[str], tuple[str, ...]]] = (
            None
            if results_id is not None
            else (gold_pagelet_path, gold_object_paths)
        )

    def _labels(self) -> tuple[Optional[str], tuple[str, ...]]:
        if self._gold is None:
            pagelet_path, object_paths = _gold_paths(self.tree, self._results_id)
            if self.class_label == CLASS_SINGLE and pagelet_path is not None:
                # A single-match page answers with ONE item: the paper
                # defines a QA-Object per query match, so the whole
                # pagelet is the lone object (its field rows are
                # attributes of the match, not separate objects).
                object_paths = (pagelet_path,)
            self._gold = (pagelet_path, object_paths)
        return self._gold

    @property
    def gold_pagelet_path(self) -> Optional[str]:
        """Path of the page's QA-Pagelet (``None``: the page has none)."""
        return self._labels()[0]

    @property
    def gold_object_paths(self) -> tuple[str, ...]:
        """Paths of the pagelet's QA-Objects, in document order."""
        return self._labels()[1]

    @property
    def has_pagelet(self) -> bool:
        return self.gold_pagelet_path is not None

    def __repr__(self) -> str:
        return f"LabeledPage(query={self.query!r}, class={self.class_label!r})"


def _gold_paths(
    tree: TagTree, results_id: str
) -> tuple[Optional[str], tuple[str, ...]]:
    """Locate the results container and its items in a rendered page
    (by the ``id``/``class`` markers the templates emit)."""
    container: Optional[TagNode] = None
    for node in tree.iter_tags():
        if node.get("id") == results_id:
            container = node
            break
    if container is None:
        return None, ()
    items = [
        node
        for node in container.iter_tags()
        if node is not container and node.get("class") == "item"
    ]
    return node_path(container), tuple(node_path(n) for n in items)


def _stable_fraction(key: str) -> float:
    """Deterministic uniform [0,1) value from a string key."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class SimulatedDeepWebSite:
    """One deep-web source: database + theme + templates."""

    def __init__(
        self,
        database: SearchableDatabase,
        domain: DomainSpec,
        theme: SiteTheme,
    ) -> None:
        self.database = database
        self.domain = domain
        self.theme = theme
        self.templates = PageTemplates(theme, domain)

    def __repr__(self) -> str:
        return (
            f"SimulatedDeepWebSite({self.theme.host!r}, "
            f"{len(self.database)} records)"
        )

    # -- the DeepWebSource protocol ---------------------------------------

    def query(self, term: str) -> LabeledPage:
        """Answer a single-keyword query with a rendered page."""
        url = f"http://{self.theme.host}/search?q={term}"
        if self._is_error(term):
            html = self.templates.render_error(term)
            return self._label(html, url, term, CLASS_ERROR)
        matches = self.database.query(term)
        if not matches:
            html = self.templates.render_nomatch(term)
            return self._label(html, url, term, CLASS_NOMATCH)
        if len(matches) == 1:
            html = self.templates.render_single(matches[0], term)
            return self._label(html, url, term, CLASS_SINGLE)
        html = self.templates.render_multi(matches, term)
        return self._label(html, url, term, CLASS_MULTI)

    async def aquery(self, term: str) -> LabeledPage:
        """Async face of :meth:`query` for the concurrent probe
        executor (:mod:`repro.probe.executor`).

        Rendering is pure CPU work — there is no socket to await — so
        this simply yields once to the event loop and answers inline;
        wrappers that *do* wait (e.g.
        :class:`~repro.probe.faults.FaultInjectingSource` injecting
        latency) await their sleeps around this call.
        """
        import asyncio

        await asyncio.sleep(0)
        return self.query(term)

    # -- internals ----------------------------------------------------------

    def _is_error(self, term: str) -> bool:
        if self.theme.error_rate <= 0:
            return False
        return _stable_fraction(f"{self.theme.host}:{term}") < self.theme.error_rate

    def _label(
        self, html: str, url: str, term: str, class_label: str
    ) -> LabeledPage:
        # Pagelet classes are labelled from the page's tree when first
        # asked; the others have no pagelet to label.
        return LabeledPage(
            html,
            url=url,
            query=term,
            class_label=class_label,
            results_id=(
                self.theme.results_id if class_label in PAGELET_CLASSES else None
            ),
        )
