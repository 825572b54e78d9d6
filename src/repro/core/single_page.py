"""Phase 2, step 1a: single-page candidate-subtree filtering.

For each page of a top-ranked cluster, prune the subtrees that cannot
correspond to QA-Pagelets (Section 3.2.1):

1. drop subtrees that contain no content at all;
2. drop subtrees that contain *equivalent content but are not minimal*
   — a node whose entire content comes from exactly one child subtree
   duplicates that child and only the (smaller) child is kept;
3. (optional) require the subtree to contain a branching node. The
   paper's phrasing of this rule is ambiguous ("for any descendant w of
   u, the fanout(w) is greater than one" cannot hold literally for
   leaves); we expose it as ``require_branching`` and leave it off by
   default, since QA-Pagelets of single-match pages need not branch.

The page root itself is never a candidate: the paper's selection step
explicitly discourages "the subtree corresponding to the entire page".

Two output forms exist. :func:`candidate_subtrees` returns live
:class:`~repro.html.tree.TagNode` handles into the page tree (the
wrapper and the record builder use it).
:func:`candidate_records_for_cluster` — the form Phase 2 runs on —
snapshots the same candidates into node-free :class:`CandidateRecord`
values (paths, shape quadruples, subtree term counts, sibling shapes)
that pickle across process boundaries and serialize into the artifact
cache; the records carry everything downstream Phase-2 steps read from
a node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.config import ExecutionConfig, resolve_cache_dir, resolve_n_jobs
from repro.core.page import Page
from repro.html.metrics import subtree_shape
from repro.html.paths import node_tag_sequence
from repro.html.tree import ContentNode, TagNode
from repro.text.terms import DEFAULT_EXTRACTOR


def _content_profile(root: TagNode) -> dict[int, tuple[int, int]]:
    """For every tag node (by id): (direct content children,
    content-bearing tag children). Computed in one postorder pass."""
    profile: dict[int, tuple[int, int]] = {}
    has_content: dict[int, bool] = {}
    stack: list[tuple[TagNode, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            stack.append((node, True))
            for child in node.children:
                if isinstance(child, TagNode):
                    stack.append((child, False))
            continue
        direct = 0
        bearing = 0
        for child in node.children:
            if isinstance(child, ContentNode):
                if child.text.strip():
                    direct += 1
            elif has_content.get(id(child), False):
                bearing += 1
        profile[id(node)] = (direct, bearing)
        has_content[id(node)] = (direct + bearing) > 0
    return profile


def _contains_branching(node: TagNode) -> bool:
    """True when some tag node in the subtree has fanout > 1."""
    return any(n.fanout > 1 for n in node.iter_tags())


def candidate_subtrees(
    page: Page, require_branching: bool = False
) -> list[TagNode]:
    """The page's candidate subtrees after single-page filtering.

    Results are in document (pre-order) order.

    >>> page = Page("<html><body><div><p>hello</p></div><div></div></body></html>")
    >>> [n.tag for n in candidate_subtrees(page)]
    ['p']

    (``body`` and the first ``div`` duplicate ``p``'s content and are
    non-minimal; the second ``div`` is empty.)
    """
    root = page.tree.root
    profile = _content_profile(root)
    candidates: list[TagNode] = []
    for node in root.iter_tags():
        if node is root:
            continue
        direct, bearing = profile[id(node)]
        if direct + bearing == 0:
            continue  # rule 1: no content
        if direct == 0 and bearing == 1:
            continue  # rule 2: equivalent to its single content child
        if require_branching and not _contains_branching(node):
            continue  # rule 3 (optional)
        candidates.append(node)
    return candidates


def candidate_subtrees_for_cluster(
    pages: Sequence[Page], require_branching: bool = False
) -> list[list[TagNode]]:
    """Single-page analysis over a whole page cluster, as live nodes."""
    return [candidate_subtrees(p, require_branching) for p in pages]


# ---------------------------------------------------------------------------
# Node-free candidate records (parallel + cacheable form)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CandidateRecord:
    """A node-free snapshot of one candidate subtree.

    Holds exactly what downstream Phase-2 steps need from a live node:
    the shape quadruple ⟨P, F, D, N⟩, the raw root→node tag sequence
    (q-letter simplification happens at grouping time, in the codec
    code-assignment order a walk over the nodes would give), the subtree's term
    counts under the default extractor (dict insertion order is
    load-bearing: it fixes vocabulary column order in the TFIDF
    ranking), and the shapes of the member's DOM siblings (the
    repeating-unit check in selection). Records pickle across process
    boundaries and round-trip through JSON losslessly.
    """

    #: Path expression from the page root (the quadruple's P).
    path: str
    #: Raw tag names root→node, inclusive (pre-simplification).
    tags: tuple[str, ...]
    fanout: int
    depth: int
    nodes: int
    #: Stemmed term counts of the subtree content (insertion-ordered).
    term_counts: Mapping[str, int]
    #: ``(tag, fanout, nodes)`` of each *other* tag child of the
    #: member's parent, in document order. Sibling depth equals the
    #: member's own depth (same parent), so it is not stored.
    siblings: tuple[tuple[str, int, int], ...]


def candidate_record(node: TagNode) -> CandidateRecord:
    """Snapshot one candidate node into a :class:`CandidateRecord`."""
    shape = subtree_shape(node)
    siblings: list[tuple[str, int, int]] = []
    parent = node.parent
    if parent is not None:
        for child in parent.tag_children():
            if child is node:
                continue
            siblings.append((child.tag, child.fanout, child.size()))
    return CandidateRecord(
        path=shape.path,
        tags=tuple(node_tag_sequence(node)),
        fanout=shape.fanout,
        depth=shape.depth,
        nodes=shape.nodes,
        term_counts=DEFAULT_EXTRACTOR.extract_counts(node.text()),
        siblings=tuple(siblings),
    )


def record_to_payload(record: CandidateRecord) -> dict:
    """JSON-ready form of a record (see :mod:`repro.artifacts`)."""
    return {
        "path": record.path,
        "tags": list(record.tags),
        "fanout": record.fanout,
        "depth": record.depth,
        "nodes": record.nodes,
        "terms": dict(record.term_counts),
        "siblings": [list(s) for s in record.siblings],
    }


def payload_to_record(payload) -> Optional[CandidateRecord]:
    """Rebuild a record from JSON, or ``None`` if malformed."""
    try:
        return CandidateRecord(
            path=payload["path"],
            tags=tuple(payload["tags"]),
            fanout=int(payload["fanout"]),
            depth=int(payload["depth"]),
            nodes=int(payload["nodes"]),
            term_counts={
                str(term): int(count)
                for term, count in payload["terms"].items()
            },
            siblings=tuple(
                (str(tag), int(fanout), int(nodes))
                for tag, fanout, nodes in payload["siblings"]
            ),
        )
    except (KeyError, TypeError, ValueError, AttributeError):
        return None


def _payloads_to_records(payload) -> Optional[list[CandidateRecord]]:
    """Decode a cached per-page record list; ``None`` on any defect."""
    if not isinstance(payload, list):
        return None
    records = []
    for item in payload:
        record = payload_to_record(item)
        if record is None:
            return None
        records.append(record)
    return records


def _records_for_html(
    store, html: str, require_branching: bool, page: Optional[Page] = None
) -> list[CandidateRecord]:
    """Candidate records for one page, through the artifact cache.

    On a cache miss the page is parsed once (or an already-parsed
    ``page`` is reused) and both the records and the parsed tree are
    persisted — the tree saves the re-parse when a warm run later
    resolves winner paths back to nodes.
    """
    from repro.artifacts.keys import candidate_records_key
    from repro.artifacts.store import KIND_RECORDS

    key = None
    if store is not None:
        key = candidate_records_key(html, require_branching)
        cached = _payloads_to_records(store.get_json(KIND_RECORDS, key))
        if cached is not None:
            return cached
    if page is None:
        page = Page(html)
    records = [
        candidate_record(node)
        for node in candidate_subtrees(page, require_branching)
    ]
    if store is not None:
        from repro.artifacts.pages import put_tree

        store.put_json(
            KIND_RECORDS, key, [record_to_payload(r) for r in records]
        )
        put_tree(store, html, page.tree)
    return records


def _records_worker(payload, htmls: Sequence[str]) -> list[list[CandidateRecord]]:
    """Process-pool worker: records for a chunk of page HTML strings."""
    require_branching, cache_root = payload
    store = None
    if cache_root is not None:
        from repro.runtime import artifact_store_for

        store = artifact_store_for(ExecutionConfig(cache_dir=cache_root))
    results = [
        _records_for_html(store, html, require_branching) for html in htmls
    ]
    if store is not None:
        store.flush_stats()
    return results


def _columnar_records_worker(payload, htmls: Sequence[str]) -> bytes:
    """Process-pool worker returning its chunk as columnar npz bytes.

    Same computation as :func:`_records_worker`; only the wire format
    differs — the chunk's record lists are packed into one compressed
    column bundle (:mod:`repro.core.columnar`), cutting per-worker
    serialized bytes by roughly an order of magnitude versus pickling
    the record objects.
    """
    from repro.core.columnar import pack_records

    return pack_records(_records_worker(payload, htmls))


def candidate_records_for_cluster(
    pages: Sequence[Page],
    require_branching: bool = False,
    execution: Optional[ExecutionConfig] = None,
) -> list[list[CandidateRecord]]:
    """Single-page analysis as records, parallel and cache-backed.

    With ``execution.n_jobs > 1`` the cluster's pages fan out over a
    process pool (each worker ships only HTML strings and returns
    node-free records packed into columnar npz bytes, see
    :mod:`repro.core.columnar`); with a configured cache
    directory each page's records are served from — or published to —
    the persistent store. Output order follows ``pages``, and per-page
    record order is the document order of :func:`candidate_subtrees`.
    """
    n_jobs = resolve_n_jobs(execution)
    cache_root = resolve_cache_dir(execution)
    if n_jobs > 1 and len(pages) > 1:
        from repro.core.columnar import unpack_records
        from repro.runtime import run_chunked

        return run_chunked(
            _columnar_records_worker,
            (require_branching, cache_root),
            [page.html for page in pages],
            n_jobs,
            label="phase2-records",
            execution=execution,
            unpack=unpack_records,
        )
    from repro.runtime import artifact_store_for

    store = artifact_store_for(execution)
    results = []
    for page in pages:
        if store is None:
            # No cache: derive from the page's own (possibly already
            # parsed) tree without hashing anything.
            results.append(
                [
                    candidate_record(node)
                    for node in candidate_subtrees(page, require_branching)
                ]
            )
        else:
            results.append(
                _records_for_html(store, page.html, require_branching, page)
            )
    return results
