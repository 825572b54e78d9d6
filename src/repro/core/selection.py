"""Phase 2, step 3: selecting the minimal subtrees with QA-Pagelets.

The paper's selection criterion favours subtrees that (1) contain many
other dynamically generated subtrees (their QA-Objects) and (2) are
deep in the tag tree — "to discourage the selection of overly large
(and broad) subtrees, say, the subtree corresponding to the entire
page". The section title makes the intent precise: select the
*minimal* subtree that still holds the query-answer content.

We realise this as a coverage-guided descent over the dynamic sets'
containment order:

1. Build the containment relation between surviving dynamic sets (set
   A contains set B when A's member encloses B's member on a strict
   majority of their shared pages). Shared-page counts come from one
   product of a pages × sets membership matrix, enclosure votes from
   looking each member's ancestor path prefixes up among its page's
   member paths. Each set's contained sets are inserted in a fixed
   order (first shared page, then set index), because the descent
   below sums and breaks ties in their iteration order.
2. Start from the set containing the most other dynamic sets (a
   page-level wrapper).
3. Descend into the contained set with the highest own containment as
   long as it still *covers* at least ``coverage_ratio`` of the current
   set's dynamic content. A results container covers all the object
   subtrees, so the descent passes wrappers (which also hold dynamic
   headers/ads — low marginal loss) and stops exactly above the
   individual objects (each row covers only its own cells — a large
   loss).

The stop point is the deepest subtree still containing (nearly) all
the dynamic content: the QA-Pagelet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.subtree_ranking import RankedSubtreeSet


@dataclass(frozen=True)
class ScoredSet:
    """A dynamic subtree set with its QA-Pagelet selection features."""

    ranked: RankedSubtreeSet
    #: Support-weighted count of other dynamic sets this set contains
    #: (majority vote over shared pages; each contained set counts its
    #: support fraction).
    contained_count: float
    #: Average depth of the members in their page trees.
    avg_depth: float
    #: Average subtree size (nodes) of the members.
    avg_nodes: float
    #: True when this set lies on the selection descent path.
    on_path: bool
    #: Reported score: contained count normalized by the max, averaged
    #: with normalized depth (for diagnostics/ordering of non-path
    #: sets).
    score: float


def _has_similar_dom_siblings(
    ranked: RankedSubtreeSet,
    threshold: float,
    sample_pages: int = 3,
) -> bool:
    """Majority vote over sampled member pages: does the member's
    parent hold another tag child of similar shape?

    Each member's candidate record snapshotted its DOM siblings'
    shapes, so the vote replays the live-DOM comparison without the
    page tree — same fresh codec, same code-assignment order, same
    float operations.
    """
    from repro.core.subtree_sets import SubtreeCandidate, shape_distance
    from repro.html.metrics import SubtreeShape
    from repro.html.paths import TagCodec

    codec = TagCodec()
    votes = 0
    sampled = 0
    for page_index in sorted(ranked.subtree_set.members)[:sample_pages]:
        member = ranked.subtree_set.members[page_index]
        sampled += 1
        target = SubtreeCandidate(
            page_index=page_index,
            node=None,
            shape=member.shape,
            code_path=codec.simplify(list(member.tags)),
        )
        parent_tags = list(member.tags[:-1])
        for tag, fanout, nodes in member.siblings:
            other = SubtreeCandidate(
                page_index=page_index,
                node=None,
                # DOM siblings share the member's parent, hence its
                # depth; the path expression plays no role in the
                # distance.
                shape=SubtreeShape(
                    path="",
                    fanout=fanout,
                    depth=member.shape.depth,
                    nodes=nodes,
                ),
                code_path=codec.simplify(parent_tags + [tag]),
            )
            if shape_distance(target, other) <= threshold:
                votes += 1
                break
    return sampled > 0 and votes * 2 > sampled


def _containment_relation(
    candidates: Sequence[RankedSubtreeSet],
) -> list[set[int]]:
    """``contained[a]`` = indices of sets that set ``a`` contains.

    Set a contains set b when, on a strict majority of the pages where
    both have members, a's member strictly encloses b's member.
    Enclosure is decided on path expressions: within one page tree a
    node's path strictly extends every ancestor's path, and the
    trailing ``"/"`` guard keeps ``div[1]`` from matching ``div[10]``
    — exactly the descendant relation, without touching the DOM
    (members are node-free records).

    Shared-page counts are one product of a pages × sets membership
    matrix. An enclosure vote for (a, b) on a page means a's member
    path is b's member path cut at one of its ``"/"``, so each member
    looks its ancestor prefixes up among that page's member paths:
    pages × sets × depth work instead of pages × sets².

    Each ``contained[a]`` receives its sets in a fixed order — by the
    first page (in first-seen page order) on which both sets have
    members, then by ``b`` — because a Python set of ints iterates by
    hash slot, and once indices outgrow the table the slot depends on
    insertion order. :func:`score_sets` sums and breaks ties in that
    iteration order. (``tests/oracles/selection.py`` keeps the
    pair-counting loop that first fixed this order.)
    """
    n_sets = len(candidates)
    # Per page, in first-seen page order: (set index, member path).
    page_members: dict[int, list[tuple[int, str]]] = {}
    for set_index, ranked in enumerate(candidates):
        for page_index, member in ranked.subtree_set.members.items():
            page_members.setdefault(page_index, []).append(
                (set_index, member.shape.path)
            )

    membership = np.zeros((len(page_members), n_sets), dtype=bool)
    vote_cells: list[int] = []
    for row, members in enumerate(page_members.values()):
        membership[row, [set_index for set_index, _ in members]] = True
        owners: dict[str, list[int]] = {}
        for set_index, path in members:
            owners.setdefault(path, []).append(set_index)
        for b, path in members:
            cut = path.find("/")
            while cut >= 0:
                for a in owners.get(path[:cut], ()):
                    vote_cells.append(a * n_sets + b)
                cut = path.find("/", cut + 1)

    contained: list[set[int]] = [set() for _ in range(n_sets)]
    if not vote_cells:
        return contained
    # shared[a, b] = pages on which both a and b have members.
    present = membership.astype(np.float64)
    shared = present.T @ present
    votes = np.bincount(vote_cells, minlength=n_sets * n_sets).reshape(
        n_sets, n_sets
    )
    a_indices, b_indices = np.nonzero(votes * 2 > shared)
    first_shared = np.argmax(
        membership[:, a_indices] & membership[:, b_indices], axis=0
    )
    order = np.lexsort((b_indices, first_shared, a_indices))
    for a, b in zip(a_indices[order].tolist(), b_indices[order].tolist()):
        contained[a].add(b)
    return contained


def score_sets(
    candidates: Sequence[RankedSubtreeSet],
    selection_weights: tuple[float, float] = (0.5, 0.5),
    coverage_ratio: float = 0.3,
    sibling_threshold: float = 0.2,
) -> list[ScoredSet]:
    """Order the dynamic sets, the selected QA-Pagelet set first.

    The descent path (wrapper → … → pagelet) is computed as described
    in the module docstring; the selected set leads the result,
    followed by the other sets ordered by containment then depth.
    When no set contains any other (single-region clusters), the
    largest dynamic region wins.

    A set's containment count sums the support weights of the sets it
    contains, and the descent keeps the first of equally good
    children, both in the iteration order of the sets
    :func:`_containment_relation` builds. Float addition is not
    associative, so that order reaches ``ScoredSet.score`` — the
    pagelet score the result digest hashes — and must not change.
    """
    if not candidates:
        return []
    contained = _containment_relation(candidates)
    # Weight each contained set by its cross-page support: a region
    # present on every page (the answer rows) counts fully; jitter
    # blocks appearing on a fraction of pages count proportionally.
    # This keeps per-page noise from diluting the results container's
    # coverage.
    supports = [r.subtree_set.support for r in candidates]
    max_support = max(supports) or 1
    weight = [s / max_support for s in supports]
    counts = [sum(weight[j] for j in contained[i]) for i in range(len(candidates))]

    features: list[tuple[float, float]] = []  # (avg_depth, avg_nodes)
    for ranked in candidates:
        members = ranked.subtree_set.members.values()
        count = max(1, len(ranked.subtree_set.members))
        features.append(
            (
                sum(m.shape.depth for m in members) / count,
                sum(m.shape.nodes for m in members) / count,
            )
        )

    max_count = max(counts)
    if max_count == 0:
        # No containment signal: prefer the largest dynamic region.
        order = sorted(range(len(candidates)), key=lambda i: -features[i][1])
        selected = order[0]
        path = {selected}
    else:
        # A set is a *repeating unit* (one QA-Object among its DOM
        # siblings — a result row, a field value) when, on its pages,
        # the member's parent holds two or more shape-similar
        # children. The descent must stop above those, never inside
        # one of them. Repetition is always judged with the standard
        # combined shape distance: it is an internal mechanism of
        # selection, not part of the (possibly ablated) matching
        # distance.
        repeating_cache: dict[int, bool] = {}

        def is_repeating_unit(index: int) -> bool:
            cached = repeating_cache.get(index)
            if cached is None:
                cached = _has_similar_dom_siblings(
                    candidates[index], sibling_threshold
                )
                repeating_cache[index] = cached
            return cached

        # Start at the root-most set; break ties toward the shallowest.
        start = min(
            range(len(candidates)),
            key=lambda i: (-counts[i], features[i][0]),
        )
        path = {start}
        current = start
        while True:
            best = None
            for child in contained[current]:
                denominator = max(1.0, counts[current] - 1.0)
                coverage = counts[child] / denominator
                if coverage < coverage_ratio:
                    continue
                if is_repeating_unit(child):
                    continue
                if best is None or (counts[child], features[child][0]) > (
                    counts[best], features[best][0]
                ):
                    best = child
            # `best in path` guards against cycles: the per-pair
            # majority vote cannot produce 2-cycles, but noisy
            # matching (e.g. a single-feature distance) can produce
            # longer ones.
            if best is None or best in path:
                break
            path.add(best)
            current = best
        selected = current

    max_depth = max((f[0] for f in features), default=0.0) or 1.0
    w_contained, w_depth = selection_weights
    scored_by_index = {}
    for index, ranked in enumerate(candidates):
        contained_norm = counts[index] / max_count if max_count else 0.0
        scored_by_index[index] = ScoredSet(
            ranked=ranked,
            contained_count=counts[index],
            avg_depth=features[index][0],
            avg_nodes=features[index][1],
            on_path=index in path,
            score=(
                w_contained * contained_norm
                + w_depth * (features[index][0] / max_depth)
            ),
        )

    rest = [i for i in range(len(candidates)) if i != selected]
    # After the winner: deeper path members (closer alternates), then
    # by containment/depth score.
    rest.sort(
        key=lambda i: (
            i in path,
            scored_by_index[i].contained_count,
            scored_by_index[i].avg_depth,
        ),
        reverse=True,
    )
    return [scored_by_index[selected]] + [scored_by_index[i] for i in rest]
