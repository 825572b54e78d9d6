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

One postorder pass per page (:func:`_walk`) computes everything the
rules and the records read: each tag node's size and content profile,
and its subtree's term counts. Each content node is
tokenized and stemmed once; a tag node's counts are its children's
counts summed in document order. That equals extracting
``node.text()`` afresh, insertion order included, because ``text()``
joins the content nodes with a space and no token contains one. A
caller-owned stem memo (in a run, the run's own) stems each distinct
word once.

Two output forms exist. :func:`candidate_subtrees` returns live
:class:`~repro.html.tree.TagNode` handles into the page tree (the
wrapper uses it). :func:`candidate_records_for_cluster` — the form
Phase 2 runs on — turns the same candidates into node-free
:class:`CandidateRecord` values (paths, shape quadruples, subtree term
counts, sibling shapes); the records carry everything downstream
Phase-2 steps read from a node. Both apply one set of pruning rules
(:func:`_keeps`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.core.page import Page
from repro.html.paths import child_steps
from repro.html.tree import TagNode
from repro.text.terms import DEFAULT_EXTRACTOR

#: Per tag node: (subtree size, direct content children,
#: content-bearing tag children, term counts or ``None`` when the
#: subtree has no terms).
_Stats = tuple[int, int, int, Optional[dict[str, int]]]


def _walk(
    root: TagNode,
    stems: Optional[dict[str, str]] = None,
    count_terms: bool = True,
) -> tuple[list[TagNode], dict[int, list[TagNode]], dict[int, _Stats]]:
    """One pass over a page tree.

    Returns the tag nodes in document (pre-)order, each node's tag
    children (by node id), and each node's :data:`_Stats` (by node id),
    filled in postorder. Term counts are shared, never copied, when a
    node's terms all come from one child; they are never mutated once
    built. The root's own counts are never needed (it is never a
    candidate) and are not summed.
    """
    order: list[TagNode] = []
    kids_of: dict[int, list[TagNode]] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        kids = [c for c in node.children if isinstance(c, TagNode)]
        kids_of[id(node)] = kids
        stack.extend(reversed(kids))
    extract = DEFAULT_EXTRACTOR.extract
    stats: dict[int, _Stats] = {}
    for node in reversed(order):  # every child before its parent
        size = 1
        direct = bearing = 0
        counts: Optional[dict[str, int]] = None
        owned = False
        merge = count_terms and node is not root
        for child in node.children:
            if isinstance(child, TagNode):
                child_size, c_direct, c_bearing, child_counts = stats[id(child)]
                size += child_size
                if c_direct or c_bearing:
                    bearing += 1
            else:
                size += 1
                text = child.text
                if not text.strip():
                    continue  # no content, hence no terms
                direct += 1
                if not merge:
                    continue
                child_counts = {}
                for term in extract(text, stems):
                    child_counts[term] = child_counts.get(term, 0) + 1
            if not merge or not child_counts:
                continue
            if counts is None:
                counts = child_counts
                continue
            if not owned:
                counts = dict(counts)
                owned = True
            for term, count in child_counts.items():
                counts[term] = counts.get(term, 0) + count
        stats[id(node)] = (size, direct, bearing, counts)
    return order, kids_of, stats


def _keeps(node: TagNode, stats: _Stats, require_branching: bool) -> bool:
    """The single-page pruning rules for one non-root tag node."""
    _, direct, bearing, _ = stats
    if direct + bearing == 0:
        return False  # rule 1: no content
    if direct == 0 and bearing == 1:
        return False  # rule 2: equivalent to its single content child
    # Rule 3 (optional): some node of the subtree branches. A node that
    # passed rules 1 and 2 with one child has only a content child, so
    # its subtree branches exactly when the node itself does.
    if require_branching and len(node.children) < 2:
        return False
    return True


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
    order, _, stats = _walk(page.tree.root, count_terms=False)
    return [
        node
        for node in order[1:]
        if _keeps(node, stats[id(node)], require_branching)
    ]


def candidate_subtrees_for_cluster(
    pages: Sequence[Page], require_branching: bool = False
) -> list[list[TagNode]]:
    """Single-page analysis over a whole page cluster, as live nodes."""
    return [candidate_subtrees(p, require_branching) for p in pages]


# ---------------------------------------------------------------------------
# Node-free candidate records (the form Phase 2 runs on)
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
    repeating-unit check in selection).
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


def page_candidate_records(
    page: Page,
    require_branching: bool = False,
    stems: Optional[dict[str, str]] = None,
) -> list[CandidateRecord]:
    """The records of :func:`candidate_subtrees`, in the same order,
    from one :func:`_walk` over the page.

    ``stems`` is the caller's word → stem memo; without one, the call
    keeps its own for this page.

    >>> page = Page("<html><body><p>Cats <b>cat</b></p><p>dog</p></body></html>")
    >>> [(r.path, r.nodes, r.term_counts) for r in page_candidate_records(page)]
    ... # doctest: +NORMALIZE_WHITESPACE
    [('html/body', 7, {'cat': 2, 'dog': 1}), ('html/body/p[1]', 4, {'cat': 2}),
     ('html/body/p[1]/b', 2, {'cat': 1}), ('html/body/p[2]', 2, {'dog': 1})]
    """
    root = page.tree.root
    order, kids_of, stats = _walk(
        root, stems if stems is not None else {}
    )
    # (path, tags, the parent's tag-child shapes, index among them) of
    # each node, filled in when its parent is visited.
    placed: dict[int, tuple[str, tuple[str, ...], list, int]] = {}
    path, tags = root.tag, (root.tag,)
    records: list[CandidateRecord] = []
    for node in order:
        if node is not root:
            path, tags, shapes, index = placed.pop(id(node))
            node_stats = stats[id(node)]
            if _keeps(node, node_stats, require_branching):
                records.append(
                    CandidateRecord(
                        path=path,
                        tags=tags,
                        fanout=len(node.children),
                        depth=len(tags) - 1,
                        nodes=node_stats[0],
                        term_counts=node_stats[3] or {},
                        siblings=tuple(shapes[:index] + shapes[index + 1 :]),
                    )
                )
        kids = kids_of[id(node)]
        if not kids:
            continue
        shapes = [(kid.tag, len(kid.children), stats[id(kid)][0]) for kid in kids]
        for index, (kid, step) in enumerate(zip(kids, child_steps(kids))):
            placed[id(kid)] = (f"{path}/{step}", tags + (kid.tag,), shapes, index)
    return records


def candidate_records_for_cluster(
    pages: Sequence[Page],
    require_branching: bool = False,
    stems: Optional[dict[str, str]] = None,
) -> list[list[CandidateRecord]]:
    """Single-page analysis over a whole page cluster, as records.

    Each page's records come from its own tree: in a run, the tree the
    quarantine scan parsed, or the one a warm run decodes from the
    site's page pack. Output order follows ``pages``, and per-page
    record order is the document order of :func:`candidate_subtrees`.
    ``stems`` is the caller's word → stem memo (a run passes the one
    its quarantine scan filled); without one, the pages of the call
    share their own. No worker process is involved: one would re-parse
    each page and ship its records back, which costs more than the
    whole pass does here (DESIGN.md §10).
    """
    if stems is None:
        stems = {}
    return [
        page_candidate_records(page, require_branching, stems)
        for page in pages
    ]
