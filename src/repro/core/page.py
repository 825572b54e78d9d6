"""The page abstraction shared by every THOR stage.

A :class:`Page` couples the raw HTML, its parsed tag tree, and cached
derived features (tag counts, term counts, size, max fanout). Caching
matters: the same page is touched by clustering, cluster ranking, and
both Phase-2 analyses.
"""

from __future__ import annotations

from typing import Optional

from repro.html.metrics import max_fanout
from repro.html.parser import parse
from repro.html.tree import TagTree
from repro.text.terms import TermExtractor, DEFAULT_EXTRACTOR


class Page:
    """One sampled answer page from a deep-web source."""

    __slots__ = (
        "url",
        "html",
        "query",
        "_tree",
        "_tree_loader",
        "_tag_counts",
        "_term_counts",
        "_max_fanout",
        "_extractor",
    )

    def __init__(
        self,
        html: str,
        url: str = "",
        query: str = "",
        tree: Optional[TagTree] = None,
        extractor: TermExtractor = DEFAULT_EXTRACTOR,
    ) -> None:
        self.url = url
        self.html = html
        #: The probe query that produced this page (empty if unknown).
        self.query = query
        self._tree = tree
        #: Optional alternative tree source (e.g. the lossless codec of
        #: the site's page pack) consulted before falling back to a parse —
        #: see :meth:`set_tree_loader`.
        self._tree_loader = None
        self._tag_counts: Optional[dict[str, int]] = None
        self._term_counts: Optional[dict[str, int]] = None
        self._max_fanout: Optional[int] = None
        self._extractor = extractor

    def __repr__(self) -> str:
        return f"Page(url={self.url!r}, bytes={self.size})"

    def set_tree_loader(self, loader) -> None:
        """Install a fallback tree source tried before parsing.

        ``loader(page)`` must return a :class:`TagTree` *identical* to
        what ``parse(page.html)`` would produce (the page pack's tree
        codec is lossless, so a stored load qualifies) or ``None``
        to fall back to parsing. Ignored once a tree exists.
        """
        self._tree_loader = loader

    @property
    def tree(self) -> TagTree:
        """The parsed tag tree (loaded or parsed on first access)."""
        if self._tree is None:
            if self._tree_loader is not None:
                self._tree = self._tree_loader(self)
            if self._tree is None:
                self._tree = parse(self.html, url=self.url)
        return self._tree

    @property
    def size(self) -> int:
        """Page size in bytes (length of the HTML source)."""
        return len(self.html)

    @property
    def extractor(self) -> TermExtractor:
        """The term extractor this page's content signature uses."""
        return self._extractor

    def prime_signature(
        self,
        tag_counts: Optional[dict[str, int]] = None,
        term_counts: Optional[dict[str, int]] = None,
        max_fanout: Optional[int] = None,
        extractor: TermExtractor = DEFAULT_EXTRACTOR,
    ) -> None:
        """Install precomputed signature values (warm-cache start).

        Values must equal what the lazy computation would produce —
        the artifact cache guarantees this by content addressing. Term
        counts are only accepted when ``extractor`` matches the page's
        own (they are extractor-dependent); already-computed values
        are never overwritten.
        """
        if tag_counts is not None and self._tag_counts is None:
            self._tag_counts = tag_counts
        if (
            term_counts is not None
            and self._term_counts is None
            and self._extractor is extractor
        ):
            self._term_counts = term_counts
        if max_fanout is not None and self._max_fanout is None:
            self._max_fanout = max_fanout

    def tag_counts(self) -> dict[str, int]:
        """Frequency of each tag name — the raw tag-tree signature."""
        if self._tag_counts is None:
            self._tag_counts = self.tree.tag_counts()
        return self._tag_counts

    def term_counts(
        self, stems: Optional[dict[str, str]] = None
    ) -> dict[str, int]:
        """Frequency of each (stemmed) content term — the raw content
        signature. ``stems`` is the caller's word → stem memo (see
        :meth:`TermExtractor.extract`); it never changes the result."""
        if self._term_counts is None:
            self._term_counts = self._extractor.extract_counts(
                self.tree.text(), stems
            )
        return self._term_counts

    def distinct_terms_count(self) -> int:
        """Number of distinct content terms (cluster-ranking criterion)."""
        return len(self.term_counts())

    def max_fanout(self) -> int:
        """Largest fanout of any node (cluster-ranking criterion)."""
        if self._max_fanout is None:
            self._max_fanout = max_fanout(self.tree)
        return self._max_fanout
