"""Reference steps of QA-Pagelet selection.

:func:`repro.core.selection._has_similar_dom_siblings` replays the
repeating-unit check from the sibling shapes each candidate record
snapshotted. :func:`has_similar_dom_siblings` walks the member's
parent in the page tree instead, as selection did before Phase 2 ran
on records only.

:func:`repro.core.selection._containment_relation` counts shared
pages with a membership-matrix product and enclosure votes by
ancestor-prefix lookup. :func:`containment_relation` is the loop it
replaced: it visits every ordered pair of sets on every page, and its
dict of pair counts fixes the order in which each contained set
receives its members.
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


def containment_relation(
    candidates: Sequence[RankedSubtreeSet],
) -> list[set[int]]:
    """``contained[a]`` = indices of sets that set ``a`` contains: a's
    member strictly encloses b's on a strict majority of the pages
    where both have members, judged pair by pair on every page."""
    n_sets = len(candidates)
    # Per page: set index -> member path expression.
    page_paths: dict[int, dict[int, str]] = {}
    for set_index, ranked in enumerate(candidates):
        for page_index, member in ranked.subtree_set.members.items():
            page_paths.setdefault(page_index, {})[set_index] = member.shape.path

    enclosure_votes: dict[tuple[int, int], int] = {}
    shared_pages: dict[tuple[int, int], int] = {}
    for members in page_paths.values():
        set_indices = list(members)
        for a in set_indices:
            prefix = members[a] + "/"
            for b in set_indices:
                if a == b:
                    continue
                key = (a, b)
                shared_pages[key] = shared_pages.get(key, 0) + 1
                if members[b].startswith(prefix):
                    enclosure_votes[key] = enclosure_votes.get(key, 0) + 1

    contained: list[set[int]] = [set() for _ in range(n_sets)]
    for (a, b), shared in shared_pages.items():
        if enclosure_votes.get((a, b), 0) * 2 > shared:
            contained[a].add(b)
    return contained
