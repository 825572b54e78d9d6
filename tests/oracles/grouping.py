"""Reference cross-page grouping: greedy matching over sorted tuples.

Production (:func:`repro.core.subtree_sets.find_common_subtree_sets`)
orders each page's thresholded distance cells with one stable argsort
over row-major flat indices and stops once every set or every
candidate is taken. This reference is the loop it replaced: it builds
every ``(distance, set, candidate)`` tuple within the threshold, sorts
the list by distance with Python's stable sort, and walks all of it.
Both must return the same sets, in the same order, with the same
members per page.
"""

from __future__ import annotations

import random
from typing import Any, Optional, Sequence

import numpy as np

from repro.config import ExecutionConfig
from repro.core.subtree_sets import (
    CommonSubtreeSet,
    make_candidate_from_record,
    set_quad_matrix_memo_limit,
    shape_distance_matrix,
)
from repro.errors import ExtractionError
from repro.html.paths import TagCodec


def find_common_subtree_sets(
    candidates_per_page: Sequence[Sequence[Any]],
    weights: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25),
    max_assign_distance: float = 0.5,
    path_code_length: int = 1,
    prototype_index: Optional[int] = None,
    seed: Optional[int] = None,
    execution: Optional[ExecutionConfig] = None,
) -> list[CommonSubtreeSet]:
    """Group candidate subtrees across pages by greedy matching over
    the full, sorted list of within-threshold pairs."""
    if not candidates_per_page:
        raise ExtractionError("no pages given to cross-page analysis")
    if execution is not None:
        set_quad_matrix_memo_limit(execution.distance_memo_entries)
    rng = random.Random(seed)
    codec = TagCodec(path_code_length)

    if prototype_index is None:
        counts = [len(c) for c in candidates_per_page]
        best = max(counts)
        if best == 0:
            raise ExtractionError("no candidate subtrees in any page")
        rich = [i for i, c in enumerate(counts) if c >= 0.8 * best]
        prototype_index = rng.choice(rich)
    prototype_records = candidates_per_page[prototype_index]
    if not prototype_records:
        raise ExtractionError(f"prototype page {prototype_index} has no candidates")

    sets = []
    for record in prototype_records:
        candidate = make_candidate_from_record(prototype_index, record, codec)
        sets.append(CommonSubtreeSet(candidate, {prototype_index: candidate}))

    prototypes = [subtree_set.prototype for subtree_set in sets]
    for page_index, records in enumerate(candidates_per_page):
        if page_index == prototype_index or not records:
            continue
        page_candidates = [
            make_candidate_from_record(page_index, record, codec)
            for record in records
        ]
        distances = shape_distance_matrix(prototypes, page_candidates, weights)
        set_rows, cand_cols = np.nonzero(distances <= max_assign_distance)
        pairs = [
            (float(distances[s, c]), int(s), int(c))
            for s, c in zip(set_rows, cand_cols)
        ]
        pairs.sort(key=lambda t: t[0])
        used_sets: set[int] = set()
        used_candidates: set[int] = set()
        for distance, set_index, cand_index in pairs:
            if set_index in used_sets or cand_index in used_candidates:
                continue
            sets[set_index].members[page_index] = page_candidates[cand_index]
            used_sets.add(set_index)
            used_candidates.add(cand_index)
    return sets
