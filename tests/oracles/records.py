"""Reference single-page analysis: one snapshot per candidate node.

Production (:func:`repro.core.single_page.page_candidate_records`)
builds a page's candidate records in one postorder pass, stemming each
content node once and summing term counts up the tree. This reference
is the per-node formulation it replaced: the pruning rules read a
``(direct, bearing)`` content profile, the branching rule walks each
candidate's subtree, and every record re-reads its subtree's text,
size, path and depth from the live node. The two must agree record
for record, term-count insertion order included.
"""

from __future__ import annotations

from repro.core.page import Page
from repro.core.single_page import CandidateRecord
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
    """The page's candidate subtrees after single-page filtering, in
    document (pre-order) order."""
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


def page_records(
    page: Page, require_branching: bool = False
) -> list[CandidateRecord]:
    """One page's candidate records, one node at a time."""
    return [
        candidate_record(node)
        for node in candidate_subtrees(page, require_branching)
    ]
