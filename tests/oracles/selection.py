"""Reference sibling vote of QA-Pagelet selection, on the live DOM.

:func:`repro.core.selection._has_similar_dom_siblings` replays the
repeating-unit check from the sibling shapes each candidate record
snapshotted. This reference walks the member's parent in the page
tree instead, as selection did before Phase 2 ran on records only.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.page import Page
from repro.core.subtree_ranking import RankedSubtreeSet
from repro.core.subtree_sets import make_candidate, shape_distance
from repro.html.paths import TagCodec, resolve_path


def has_similar_dom_siblings(
    ranked: RankedSubtreeSet,
    pages: Sequence[Page],
    threshold: float,
    sample_pages: int = 3,
) -> bool:
    """Majority vote over sampled member pages: does the member's
    parent hold another tag child of similar shape? Each member is
    resolved to its live node in ``pages[page_index]``."""
    codec = TagCodec()
    votes = 0
    sampled = 0
    for page_index in sorted(ranked.subtree_set.members)[:sample_pages]:
        member = ranked.subtree_set.members[page_index]
        sampled += 1
        node = resolve_path(pages[page_index].tree, member.shape.path)
        parent = node.parent
        if parent is None:
            continue
        target = make_candidate(page_index, node, codec)
        similar = 0
        for child in parent.tag_children():
            if child is node:
                continue
            other = make_candidate(page_index, child, codec)
            if shape_distance(target, other) <= threshold:
                similar += 1
                break
        if similar:
            votes += 1
    return sampled > 0 and votes * 2 > sampled
