"""Page-level artifacts: one page pack per site.

THOR works on one site's probe sample at a time, so the store keeps a
site's pages together: one JSON object in the site's ``pages/`` slot
(:func:`~repro.artifacts.keys.page_pack_key`), last-writer-wins like
the site model. It maps each page's content key (the SHA-256 of its
HTML, :func:`~repro.incremental.model.page_content_key`) to that
page's bundle:

- ``tag_counts`` and ``term_counts``, the clustering signatures (JSON
  keeps dict insertion order, and vocabulary order is load-bearing for
  the bitwise invariant), and ``max_fanout``;
- ``fingerprint``, the page's template fingerprint (sorted ints), which
  the site model unions per cluster for its drift gate;
- ``tree``, the lossless tree codec (:func:`tree_to_payload`) as a
  JSON string. It is decoded on the first ``page.tree`` of that page,
  so a tree no stage reads is never decoded.

A run reads its pack once (:class:`PagePack`) and publishes it once,
after the site model, and only when some surviving page missed it; the
new pack then holds exactly that run's surviving pages. A torn pack is
one counted store miss, and a malformed entry misses only its page.

The tag-tree codec is lossless with respect to the parser's output:
``payload_to_tree(tree_to_payload(parse(html)))`` reproduces the exact
node structure (tags, attributes, text, order), so a warm load is
interchangeable with a cold parse — which is what lets the pipeline's
bitwise warm == cold invariant extend all the way down to the DOM.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.artifacts.keys import page_pack_key
from repro.artifacts.store import KIND_PAGES, ArtifactStore
from repro.html.tree import ContentNode, Node, TagNode, TagTree
from repro.text.terms import DEFAULT_EXTRACTOR

if TYPE_CHECKING:
    from repro.core.page import Page

#: Payload schema: a tag node is ``[tag, [[attr, value], ...], [child,
#: ...]]``; a content node is a plain string. Chosen for compact JSON.


def tree_to_payload(tree: TagTree) -> list:
    """Serialize a parsed tag tree to a JSON-ready nested list."""

    def encode(node: Node):
        if isinstance(node, ContentNode):
            return node.text
        assert isinstance(node, TagNode)
        return [
            node.tag,
            [list(pair) for pair in node.attrs],
            [encode(child) for child in node.children],
        ]

    return encode(tree.root)


def payload_to_tree(payload, source_size: int = 0, url: str = "") -> TagTree:
    """Rebuild a tag tree from :func:`tree_to_payload` output."""

    def decode(item) -> Node:
        if isinstance(item, str):
            return ContentNode(item)
        tag, attrs, children = item
        node = TagNode(tag, tuple(tuple(pair) for pair in attrs))
        for child in children:
            node.append(decode(child))
        return node

    root = decode(payload)
    if not isinstance(root, TagNode):
        raise ValueError("tree payload root must be a tag node")
    return TagTree(root, source_size=source_size, url=url)


def _bundle(page: "Page", fingerprint: frozenset[int]) -> dict:
    """The pack entry of one analysed page."""
    return {
        "tag_counts": page.tag_counts(),
        "term_counts": page.term_counts(),
        "max_fanout": page.max_fanout(),
        "fingerprint": sorted(fingerprint),
        "tree": json.dumps(
            tree_to_payload(page.tree), ensure_ascii=False, separators=(",", ":")
        ),
    }


def _counts(value) -> dict:
    """``value`` when it is a JSON count map, else ``ValueError``."""
    if not isinstance(value, dict) or not all(
        type(count) is int for count in value.values()
    ):
        raise ValueError("malformed count map")
    return value


class PagePack:
    """One run's view of its site's ``pages/`` slot.

    Reads the slot once on construction. :meth:`prime` warms a page
    from its entry; :meth:`publish` rewrites the slot when a page
    missed.
    """

    def __init__(self, store: ArtifactStore, site: str) -> None:
        self.store = store
        self.key = page_pack_key(site)
        payload = store.get_json(KIND_PAGES, self.key)
        self._entries: dict = payload if isinstance(payload, dict) else {}
        #: Content key → the stored entry of every page it primed.
        self._served: dict[str, dict] = {}

    def prime(self, page: "Page", key: str) -> Optional[frozenset[int]]:
        """Warm ``page`` from the entry under its content ``key``.

        Injects the signatures and installs a lazy tree loader; returns
        the page's template fingerprint, or ``None`` when the page
        misses (no entry, a malformed one, or a page whose terms another
        extractor counts).
        """
        if page.extractor is not DEFAULT_EXTRACTOR:
            return None
        entry = self._entries.get(key)
        try:
            tag_counts = _counts(entry["tag_counts"])
            term_counts = _counts(entry["term_counts"])
            max_fanout = entry["max_fanout"]
            fingerprint = entry["fingerprint"]
            tree = entry["tree"]
            if (
                type(max_fanout) is not int
                or not isinstance(tree, str)
                or not all(type(value) is int for value in fingerprint)
            ):
                raise ValueError("malformed page bundle")
        except (KeyError, TypeError, ValueError):
            return None
        page.prime_signature(
            tag_counts=tag_counts, term_counts=term_counts, max_fanout=max_fanout
        )
        page.set_tree_loader(self._tree_loader(key, tree))
        self._served[key] = entry
        return frozenset(fingerprint)

    def _tree_loader(self, key: str, text: str):
        served = self._served

        def load(page: "Page") -> Optional[TagTree]:
            try:
                return payload_to_tree(
                    json.loads(text), source_size=len(page.html), url=page.url
                )
            except (ValueError, TypeError, IndexError):
                # The page parses instead, and the next publish
                # re-encodes its entry from the parsed tree.
                served.pop(key, None)
                return None

        return load

    def publish(
        self,
        pages: Sequence["Page"],
        content_key: Callable[["Page"], str],
        fingerprint: Callable[["Page"], frozenset[int]],
    ) -> bool:
        """Publish the pack of ``pages`` if one of them missed.

        Pages that recur share one entry; pages another extractor
        counts are left out. ``content_key(page)`` gives a page's
        content key and ``fingerprint(page)`` a missed page's template
        fingerprint. Returns whether the slot was written.
        """
        bundles: dict[str, dict] = {}
        missed = False
        for page in pages:
            if page.extractor is not DEFAULT_EXTRACTOR:
                continue
            key = content_key(page)
            if key in bundles:
                continue
            entry = self._served.get(key)
            if entry is None:
                missed = True
                entry = _bundle(page, fingerprint(page))
            bundles[key] = entry
        if missed:
            self.store.put_json(KIND_PAGES, self.key, bundles)
        return missed


__all__ = [
    "PagePack",
    "payload_to_tree",
    "tree_to_payload",
]
