"""Phase 2, step 1b: finding common subtree sets (cross-page analysis).

Candidate subtrees from the pages of one cluster are grouped into
*common subtree sets*, each holding at most one subtree per page and
representing one type of content region (navigation bar, ad block,
QA-Pagelet, …). Grouping uses the paper's content-neutral,
structure-sensitive distance over the quadruple ⟨P, F, D, N⟩::

    distance(i, j) = w1 · EditDist(P_i, P_j) / max(len(P_i), len(P_j))
                   + w2 · |F_i − F_j| / max(F_i, F_j)
                   + w3 · |D_i − D_j| / max(D_i, D_j)
                   + w4 · |N_i − N_j| / max(N_i, N_j)

with paths simplified to q-letter tag codes before the edit distance.
The algorithm picks a random *prototype page*; each of its candidates
seeds one set, and every other page contributes its closest candidate
to each set (greedy one-to-one matching, bounded by
``max_assign_distance``).
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.cluster.editdist import cached_normalized_levenshtein
from repro.config import ExecutionConfig
from repro.errors import ExtractionError
from repro.html.metrics import SubtreeShape, subtree_shape
from repro.html.paths import TagCodec, node_tag_sequence
from repro.html.tree import TagNode

#: Memoized normalized edit distance between simplified paths.
#: Candidate code paths are heavily repeated (every result row shares
#: one), so the memo turns distance-matrix construction from the
#: dominant cost of cross-page analysis into a dictionary lookup.
_cached_path_distance = cached_normalized_levenshtein


@dataclass(frozen=True)
class SubtreeCandidate:
    """One candidate subtree with its precomputed shape features.

    ``node`` is ``None`` for candidates built from node-free
    :class:`~repro.core.single_page.CandidateRecord` snapshots — the
    form Phase 2 runs on; those carry the record's term counts, raw tag
    sequence, and sibling shapes instead, which is everything
    downstream ranking and selection read. Node-backed candidates
    (:func:`make_candidate`) serve the wrapper and Stage 3, which work
    on one live page tree.
    """

    page_index: int
    node: Optional[TagNode]
    shape: SubtreeShape
    #: The root→node tag sequence simplified to q-letter codes.
    code_path: str
    #: Subtree term counts (record-backed candidates only).
    term_counts: Optional[Mapping[str, int]] = field(default=None, compare=False)
    #: Raw root→node tag names (record-backed candidates only).
    tags: Optional[tuple[str, ...]] = field(default=None, compare=False)
    #: ``(tag, fanout, nodes)`` of the member's other DOM siblings
    #: (record-backed candidates only).
    siblings: Optional[tuple[tuple[str, int, int], ...]] = field(
        default=None, compare=False
    )


def make_candidate(
    page_index: int, node: TagNode, codec: TagCodec
) -> SubtreeCandidate:
    """Wrap a tag node with its shape quadruple and simplified path."""
    return SubtreeCandidate(
        page_index=page_index,
        node=node,
        shape=subtree_shape(node),
        code_path=codec.simplify(node_tag_sequence(node)),
    )


def make_candidate_from_record(
    page_index: int, record, codec: TagCodec
) -> SubtreeCandidate:
    """Wrap a node-free candidate record for cross-page analysis.

    The codec simplifies the record's raw tag sequence exactly where
    :func:`make_candidate` would simplify the node's, so first-come
    code assignment — and therefore every path distance — matches a
    node-backed candidate bitwise.
    """
    return SubtreeCandidate(
        page_index=page_index,
        node=None,
        shape=SubtreeShape(
            path=record.path,
            fanout=record.fanout,
            depth=record.depth,
            nodes=record.nodes,
        ),
        code_path=codec.simplify(list(record.tags)),
        term_counts=record.term_counts,
        tags=tuple(record.tags),
        siblings=tuple(record.siblings),
    )


def _ratio_term(a: int, b: int) -> float:
    """|a − b| / max(a, b), with 0/0 defined as 0."""
    largest = max(a, b)
    if largest == 0:
        return 0.0
    return abs(a - b) / largest


def shape_distance(
    a: SubtreeCandidate,
    b: SubtreeCandidate,
    weights: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25),
) -> float:
    """The paper's four-term subtree distance, in [0, 1] when the
    weights sum to 1."""
    w1, w2, w3, w4 = weights
    total = 0.0
    if w1:
        total += w1 * _cached_path_distance(a.code_path, b.code_path)
    if w2:
        total += w2 * _ratio_term(a.shape.fanout, b.shape.fanout)
    if w3:
        total += w3 * _ratio_term(a.shape.depth, b.shape.depth)
    if w4:
        total += w4 * _ratio_term(a.shape.nodes, b.shape.nodes)
    return total


#: One distance quadruple: (code path, fanout, depth, nodes). The
#: distance function reads nothing else from a candidate, so a matrix
#: over unique quadruples determines the full candidate matrix.
_Quad = tuple[str, int, int, int]

#: Memoized *compact* distance matrices keyed by (weights, unique row
#: quads, unique column quads). Result pages inside one cluster repeat
#: the same candidate shapes page after page, so whole prototype × page
#: matrices recur verbatim across the matching loop. The memo is LRU:
#: its entry cap defaults to :data:`_QUAD_MATRIX_MEMO_DEFAULT_LIMIT`
#: and is wired to ``ExecutionConfig.distance_memo_entries`` (fleet
#: runs visiting many sites would otherwise grow it without bound).
_QUAD_MATRIX_MEMO: "OrderedDict[tuple, Any]" = OrderedDict()
_QUAD_MATRIX_MEMO_DEFAULT_LIMIT = 256
_QUAD_MATRIX_MEMO_LIMIT = _QUAD_MATRIX_MEMO_DEFAULT_LIMIT
_QUAD_MATRIX_MEMO_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def _candidate_quad(candidate: SubtreeCandidate) -> _Quad:
    shape = candidate.shape
    return (candidate.code_path, shape.fanout, shape.depth, shape.nodes)


def clear_quad_matrix_memo() -> None:
    """Drop memoized compact distance matrices (tests, benchmarks)."""
    _QUAD_MATRIX_MEMO.clear()
    for field_name in _QUAD_MATRIX_MEMO_STATS:
        _QUAD_MATRIX_MEMO_STATS[field_name] = 0


def set_quad_matrix_memo_limit(limit: Optional[int]) -> None:
    """Cap the quadruple-matrix memo at ``limit`` entries (LRU).

    ``None`` restores the default. ``0`` disables memoization (every
    matrix recomputes). Shrinking the cap evicts oldest entries
    immediately. Called by :func:`find_common_subtree_sets` with
    ``ExecutionConfig.distance_memo_entries``, so the bound follows
    the active execution plan.
    """
    global _QUAD_MATRIX_MEMO_LIMIT
    if limit is None:
        limit = _QUAD_MATRIX_MEMO_DEFAULT_LIMIT
    if limit < 0:
        raise ValueError(f"memo limit must be >= 0, got {limit}")
    _QUAD_MATRIX_MEMO_LIMIT = limit
    while len(_QUAD_MATRIX_MEMO) > limit:
        _QUAD_MATRIX_MEMO.popitem(last=False)
        _QUAD_MATRIX_MEMO_STATS["evictions"] += 1


def quad_matrix_memo_stats() -> dict[str, int]:
    """Hit/miss/eviction counters plus size and cap (diagnostics)."""
    return {
        **_QUAD_MATRIX_MEMO_STATS,
        "size": len(_QUAD_MATRIX_MEMO),
        "limit": _QUAD_MATRIX_MEMO_LIMIT,
    }


def _quad_columns(quads: tuple[_Quad, ...]):
    """Columnar view of a quadruple batch: paths + an (n × 3) numeric
    matrix (fanout, depth, nodes), built once per unique batch."""
    paths = [quad[0] for quad in quads]
    numbers = np.array(
        [quad[1:] for quad in quads], dtype=np.float64
    ).reshape(len(quads), 3)
    return paths, numbers


def _compact_distance_matrix(
    a_quads: tuple[_Quad, ...],
    b_quads: tuple[_Quad, ...],
    weights: tuple[float, float, float, float],
):
    """Distance matrix over unique quadruples (memoized, LRU-bounded).

    Every entry is a pure function of its own (row, column) quadruple
    pair — the batched Levenshtein kernel and the broadcast ratio
    terms are all elementwise — so computing over deduplicated
    quadruple *columns* and expanding applies the exact float
    operations of the full matrix: the four weighted terms accumulate
    in the same order as the scalar :func:`shape_distance`.
    """
    from repro.vsm.matrix import pairwise_normalized_levenshtein

    memo_key = (weights, a_quads, b_quads)
    if _QUAD_MATRIX_MEMO_LIMIT:
        cached = _QUAD_MATRIX_MEMO.get(memo_key)
        if cached is not None:
            _QUAD_MATRIX_MEMO.move_to_end(memo_key)
            _QUAD_MATRIX_MEMO_STATS["hits"] += 1
            return cached
    _QUAD_MATRIX_MEMO_STATS["misses"] += 1

    w1, w2, w3, w4 = weights
    a_paths, a_numbers = _quad_columns(a_quads)
    b_paths, b_numbers = _quad_columns(b_quads)
    total = np.zeros((len(a_quads), len(b_quads)), dtype=np.float64)
    if w1:
        total += w1 * pairwise_normalized_levenshtein(a_paths, b_paths)
    for weight, column in ((w2, 0), (w3, 1), (w4, 2)):
        if not weight:
            continue
        a_values = a_numbers[:, column]
        b_values = b_numbers[:, column]
        largest = np.maximum(a_values[:, None], b_values[None, :])
        difference = np.abs(a_values[:, None] - b_values[None, :])
        total += weight * np.divide(
            difference,
            largest,
            out=np.zeros_like(difference),
            where=largest > 0.0,
        )
    if _QUAD_MATRIX_MEMO_LIMIT:
        total.setflags(write=False)  # memoized value is shared: freeze it
        _QUAD_MATRIX_MEMO[memo_key] = total
        while len(_QUAD_MATRIX_MEMO) > _QUAD_MATRIX_MEMO_LIMIT:
            _QUAD_MATRIX_MEMO.popitem(last=False)
            _QUAD_MATRIX_MEMO_STATS["evictions"] += 1
    return total


def shape_distance_matrix(
    a_candidates: Sequence[SubtreeCandidate],
    b_candidates: Sequence[SubtreeCandidate],
    weights: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25),
):
    """All :func:`shape_distance` values between two candidate batches
    as one numpy matrix.

    The path term runs through the vectorized, memoized Levenshtein
    kernel (:func:`repro.vsm.matrix.pairwise_normalized_levenshtein`);
    the three scalar ratio terms are broadcast subtractions. The
    computation itself is deduplicated to *unique* distance quadruples
    (result rows repeat the same ⟨P, F, D, N⟩ dozens of times per
    page) and the compact matrix is memoized across calls, then
    expanded back by fancy indexing. Entries equal the scalar
    :func:`shape_distance` bitwise — every path computes the identical
    sequence of float operations per quadruple pair.
    """
    a_quads = [_candidate_quad(c) for c in a_candidates]
    b_quads = [_candidate_quad(c) for c in b_candidates]
    a_unique = tuple(dict.fromkeys(a_quads))
    b_unique = tuple(dict.fromkeys(b_quads))
    compact = _compact_distance_matrix(a_unique, b_unique, tuple(weights))
    a_index = {quad: i for i, quad in enumerate(a_unique)}
    b_index = {quad: i for i, quad in enumerate(b_unique)}
    rows = [a_index[quad] for quad in a_quads]
    columns = [b_index[quad] for quad in b_quads]
    return compact[np.ix_(rows, columns)]


@dataclass
class CommonSubtreeSet:
    """One cross-page group of structurally similar subtrees."""

    #: The prototype-page candidate that seeded this set.
    prototype: SubtreeCandidate
    #: page_index → that page's member (at most one per page).
    members: dict[int, SubtreeCandidate]

    def candidates(self) -> list[SubtreeCandidate]:
        """Members in page order."""
        return [self.members[i] for i in sorted(self.members)]

    @property
    def support(self) -> int:
        """Number of pages contributing a member."""
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)


def find_common_subtree_sets(
    candidates_per_page: Sequence[Sequence[Any]],
    weights: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25),
    max_assign_distance: float = 0.5,
    path_code_length: int = 1,
    prototype_index: Optional[int] = None,
    seed: Optional[int] = None,
    execution: Optional[ExecutionConfig] = None,
) -> list[CommonSubtreeSet]:
    """Group candidate subtrees across the cluster's pages.

    ``candidates_per_page[i]`` holds page i's node-free
    :class:`~repro.core.single_page.CandidateRecord` snapshots from
    single-page analysis. The prototype page is chosen at random
    (seeded) unless ``prototype_index`` pins it. Pages other than the
    prototype are matched greedily: every (set, candidate) pair within
    ``max_assign_distance`` is visited in ascending distance, and a
    pair is accepted when both the set's slot for that page and the
    candidate are still free. The full prototype × candidate distance
    matrix for each page is built by :func:`shape_distance_matrix` in
    a handful of array operations; ``execution`` bounds its memo
    (``distance_memo_entries``).

    The visiting order decides which of two equally close pairs wins,
    so it is fixed exactly: the thresholded cells are taken as
    row-major flat indices and ordered by one stable argsort on their
    distances — equal distances keep row-major (set, then candidate)
    order, as a stable sort of ``(distance, set, candidate)`` tuples
    keyed on distance would. NaN distances fail ``<=`` and never
    match. Once every set or every candidate is taken no later pair
    can be accepted, so the walk stops there.
    (``tests/oracles/grouping.py`` keeps the tuple-sorting loop as the
    reference.)

    Raises :class:`ExtractionError` when there are no pages, when
    ``prototype_index`` is not a page index in
    ``[0, len(candidates_per_page))``, or when the chosen prototype
    page has no candidates.
    """
    if not candidates_per_page:
        raise ExtractionError("no pages given to cross-page analysis")
    if prototype_index is not None and not (
        0 <= prototype_index < len(candidates_per_page)
    ):
        raise ExtractionError(
            f"prototype page {prototype_index} is not a page index"
            f" in [0, {len(candidates_per_page)})"
        )
    if execution is not None:
        # The execution plan bounds the quadruple-matrix memo.
        set_quad_matrix_memo_limit(execution.distance_memo_entries)
    rng = random.Random(seed)
    codec = TagCodec(path_code_length)

    if prototype_index is None:
        # The paper chooses the prototype page at random. We restrict
        # the draw to candidate-rich pages (≥ 80% of the maximum
        # candidate count): a junk page swept into the cluster — an
        # error page merged in by a tight k — has only a handful of
        # subtrees, and seeding the common sets from it would leave the
        # real content regions of every other page unmatched.
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
        flat = shape_distance_matrix(prototypes, page_candidates, weights).ravel()
        cells = np.flatnonzero(flat <= max_assign_distance)
        cells = cells[np.argsort(flat[cells], kind="stable")]
        n_candidates = len(page_candidates)
        used_sets = [False] * len(sets)
        used_candidates = [False] * n_candidates
        remaining = min(len(sets), n_candidates)
        for cell in cells.tolist():
            set_index, cand_index = divmod(cell, n_candidates)
            if used_sets[set_index] or used_candidates[cand_index]:
                continue
            sets[set_index].members[page_index] = page_candidates[cand_index]
            used_sets[set_index] = True
            used_candidates[cand_index] = True
            remaining -= 1
            if not remaining:
                break
    return sets
