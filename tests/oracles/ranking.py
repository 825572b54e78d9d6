"""Reference content ranking: one ``SparseVector`` per set member.

Production (:mod:`repro.core.subtree_ranking`) weights a whole common
subtree set in one dense :func:`repro.vsm.matrix.weighted_space`
batch. This reference vectorizes each member's record term counts with
:class:`~repro.vsm.weighting.CorpusWeighter` (or raw term
frequencies) and sums sparse vectors; the similarities agree well past
``_SORT_PRECISION`` decimal places, so the ranked orders agree exactly.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.subtree_ranking import (
    _SORT_PRECISION,
    RankedSubtreeSet,
    _clamp_unit,
)
from repro.core.subtree_sets import CommonSubtreeSet
from repro.vsm.centroid import vector_sum
from repro.vsm.vector import SparseVector
from repro.vsm.weighting import CorpusWeighter, raw_tf_vector


def set_content_vectors(
    subtree_set: CommonSubtreeSet, use_tfidf: bool = True
) -> list[SparseVector]:
    """Vectorize the content of each member of a set.

    With ``use_tfidf=False`` raw (normalized) term frequencies are
    used — the ablation shown in Figure 9's left histogram.
    """
    counts = [c.term_counts for c in subtree_set.candidates()]
    if not use_tfidf:
        return [raw_tf_vector(c) for c in counts]
    weighter = CorpusWeighter.fit(counts)
    return weighter.transform_all(counts)


def intra_set_similarity(
    subtree_set: CommonSubtreeSet, use_tfidf: bool = True
) -> float:
    """Mean pairwise cosine similarity of the set's member contents."""
    vectors = set_content_vectors(subtree_set, use_tfidf)
    n = len(vectors)
    if n <= 1:
        return 1.0
    # The member vectors are unit length (or zero), so the mean
    # pairwise cosine has a closed form: Σ_{i<j} v_i·v_j =
    # (‖Σv‖² − #non-zero) / 2, making this O(n·dims) instead of the
    # naive O(n²·dims).
    composite = vector_sum(vectors)
    non_zero = sum(1 for v in vectors if not v.is_zero())
    pair_sum = (composite.norm**2 - non_zero) / 2.0
    pairs = n * (n - 1) / 2.0
    return _clamp_unit(pair_sum / pairs)


def rank_subtree_sets(
    sets: Sequence[CommonSubtreeSet],
    n_pages: int,
    static_similarity_threshold: float = 0.5,
    min_support: float = 0.5,
    use_tfidf: bool = True,
) -> list[RankedSubtreeSet]:
    """:func:`repro.core.subtree_ranking.rank_subtree_sets` over the
    sparse-vector similarity above."""
    min_pages = max(1, int(min_support * n_pages))
    ranked = []
    for subtree_set in sets:
        if subtree_set.support < min_pages:
            continue
        similarity = intra_set_similarity(subtree_set, use_tfidf)
        ranked.append(
            RankedSubtreeSet(
                subtree_set=subtree_set,
                similarity=similarity,
                is_static=similarity > static_similarity_threshold,
            )
        )
    ranked.sort(key=lambda r: round(r.similarity, _SORT_PRECISION))
    return ranked
