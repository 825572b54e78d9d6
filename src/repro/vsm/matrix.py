"""Dense matrix kernels for the clustering hot paths.

The paper's formulation works over sparse vectors — one
``cosine_similarity`` call per (page, center) pair, one scalar
Levenshtein per subtree pair. Run that way, the headline scalability
claims (Figs. 5/7) are bottlenecked on Python interpreter overhead
rather than on the algorithms themselves. (The pure-python
formulation survives as the test-only reference in ``tests/oracles/``,
which the equivalence tests and the Figure-5 bench compare against.)

This module interns the feature vocabulary of a vector collection into
a dense ``numpy`` matrix (:class:`VectorSpace`) and provides the three
batched kernels the pipeline needs:

- :func:`cosine_matrix` — all pairwise cosines in one matmul,
- :func:`group_sums` / :func:`centroid_matrix` — per-cluster segment
  sums via ``np.add.at``,
- :func:`pairwise_normalized_levenshtein` — the Phase-2 path-distance
  term, with the DP inner loop vectorized over numpy rows plus an
  exact-match / length-band early exit and an interned-pair memo.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.vsm.vector import SparseVector


class VectorSpace:
    """A collection of sparse vectors interned into a dense matrix.

    Feature names are assigned column indices in first-seen order, so
    building a space is deterministic for a given vector sequence.
    ``matrix`` has one row per input vector and ``norms`` holds the
    precomputed Euclidean row norms (zero rows keep norm 0).
    """

    __slots__ = ("vocabulary", "features", "matrix", "norms")

    def __init__(self, vocabulary: dict[str, int], matrix, norms) -> None:
        self.vocabulary = vocabulary
        self.features: list[str] = list(vocabulary)
        self.matrix = matrix
        self.norms = norms

    @classmethod
    def build(cls, vectors: Sequence[SparseVector]) -> "VectorSpace":
        """Intern ``vectors`` into a dense (n × |vocabulary|) matrix."""
        vocabulary: dict[str, int] = {}
        for vector in vectors:
            for feature in vector:
                if feature not in vocabulary:
                    vocabulary[feature] = len(vocabulary)
        matrix = np.zeros((len(vectors), len(vocabulary)), dtype=np.float64)
        for row, vector in enumerate(vectors):
            for feature, weight in vector.items():
                matrix[row, vocabulary[feature]] = weight
        norms = np.linalg.norm(matrix, axis=1)
        return cls(vocabulary, matrix, norms)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def dimensions(self) -> int:
        return self.matrix.shape[1]

    def encode(self, vectors: Sequence[SparseVector]):
        """Project ``vectors`` into this space (unknown features drop)."""
        out = np.zeros((len(vectors), self.dimensions), dtype=np.float64)
        vocabulary = self.vocabulary
        for row, vector in enumerate(vectors):
            for feature, weight in vector.items():
                column = vocabulary.get(feature)
                if column is not None:
                    out[row, column] = weight
        return out

    def to_sparse(self, row) -> SparseVector:
        """Decode one matrix row back into a :class:`SparseVector`."""
        features = self.features
        nonzero = np.flatnonzero(row)
        return SparseVector({features[j]: float(row[j]) for j in nonzero})


def weighted_space(count_maps, weighting: str = "tfidf") -> "VectorSpace":
    """Vectorized fit+transform: frequency maps straight into a space.

    Mirrors :class:`repro.vsm.weighting.CorpusWeighter` fit+transform
    (``weighting="tfidf"``) or :func:`repro.vsm.weighting.raw_tf_vector`
    (``weighting="raw"``) without materializing a ``SparseVector`` per
    document — the weighting itself was the dominant cost once the
    clustering iterations moved to matmuls. Weights agree with the
    scalar path to float rounding (``np.log`` vs ``math.log`` may
    differ in the last ulp).
    """
    vocabulary: dict[str, int] = {}
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for row, counts in enumerate(count_maps):
        for feature, count in counts.items():
            if count <= 0:
                continue
            col = vocabulary.get(feature)
            if col is None:
                col = vocabulary[feature] = len(vocabulary)
            rows.append(row)
            cols.append(col)
            vals.append(count)
    matrix = np.zeros((len(count_maps), len(vocabulary)), dtype=np.float64)
    # One fancy-index scatter instead of a numpy scalar write per cell.
    matrix[rows, cols] = vals
    if weighting == "tfidf":
        doc_freq = (matrix > 0.0).sum(axis=0)
        idf = np.log(
            (len(count_maps) + 1)
            / np.maximum(doc_freq, 1)  # empty vocabulary guard only
        )
        matrix = np.log(matrix + 1.0) * idf
    elif weighting != "raw":
        raise ValueError(f"unknown weighting {weighting!r} (use 'raw' or 'tfidf')")
    norms = np.linalg.norm(matrix, axis=1)
    nonzero = norms > 0.0
    matrix[nonzero] /= norms[nonzero, None]
    return VectorSpace(vocabulary, matrix, np.linalg.norm(matrix, axis=1))


def tfidf_statistics(count_maps):
    """The fitted parameters of a tf-idf space: ``(vocabulary, idf)``.

    Mirrors the ``weighting="tfidf"`` branch of :func:`weighted_space`
    exactly (same first-seen column order, same smoothing), but returns
    the reusable fit state instead of the transformed matrix. The
    incremental model (:mod:`repro.incremental.model`) persists these
    so a later run can encode *new* pages into the stored space without
    refitting — see :func:`encode_tfidf`.
    """
    vocabulary: dict[str, int] = {}
    doc_freq: list[int] = []
    for counts in count_maps:
        for feature, count in counts.items():
            if count <= 0:
                continue
            col = vocabulary.get(feature)
            if col is None:
                vocabulary[feature] = len(vocabulary)
                doc_freq.append(1)
            else:
                doc_freq[col] += 1
    idf = np.log(
        (len(count_maps) + 1)
        / np.maximum(np.asarray(doc_freq, dtype=np.float64), 1)
    )
    return vocabulary, idf


def encode_tfidf(count_maps, vocabulary: dict[str, int], idf):
    """Encode documents into a *stored* tf-idf space (assign, don't fit).

    Applies the exact transform of :func:`weighted_space`'s tfidf
    branch — ``log(count + 1) * idf`` then L2 row normalization — using
    a previously fitted ``(vocabulary, idf)`` pair from
    :func:`tfidf_statistics`. Features outside the stored vocabulary
    drop (a genuinely new tag contributes nothing to similarity, which
    is what pulls drifted pages *away* from every stored centroid).
    Returns a dense ``(len(count_maps) × |vocabulary|)`` matrix.
    """
    matrix = np.zeros((len(count_maps), len(vocabulary)), dtype=np.float64)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for row, counts in enumerate(count_maps):
        for feature, count in counts.items():
            if count <= 0:
                continue
            col = vocabulary.get(feature)
            if col is not None:
                rows.append(row)
                cols.append(col)
                vals.append(count)
    matrix[rows, cols] = vals
    matrix = np.log(matrix + 1.0) * np.asarray(idf, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    nonzero = norms > 0.0
    matrix[nonzero] /= norms[nonzero, None]
    return matrix


def cosine_matrix(a, b, norms_a=None, norms_b=None):
    """All pairwise cosine similarities between the rows of ``a`` and
    ``b`` in a single matmul.

    Rows with zero norm are orthogonal to everything (similarity 0),
    matching :func:`repro.vsm.similarity.cosine_similarity`; values are
    clipped into [-1, 1] against floating-point drift.
    """
    if norms_a is None:
        norms_a = np.linalg.norm(a, axis=1)
    if norms_b is None:
        norms_b = np.linalg.norm(b, axis=1)
    sims = a @ b.T
    denom = np.outer(norms_a, norms_b)
    nonzero = denom > 0.0
    sims = np.divide(sims, denom, out=np.zeros_like(sims), where=nonzero)
    np.clip(sims, -1.0, 1.0, out=sims)
    return sims


def group_sums(matrix, labels, k):
    """Segment sums: per-cluster componentwise sums and member counts.

    Returns ``(sums, counts)`` where ``sums`` is (k × d) and ``counts``
    is the cluster-size histogram. One ``np.add.at`` scatter replaces
    the per-member dict merging of :func:`repro.vsm.centroid.vector_sum`.

    ``matrix`` is re-viewed with the canonical float64 dtype first: an
    unpickled array (a stored model, a payload sent to a worker
    process) carries its own copy of the descriptor, and numpy skips
    ``ufunc.at``'s fast path for it, which made the scatter ~5× slower.
    """
    labels = np.asarray(labels)
    sums = np.zeros((k, matrix.shape[1]), dtype=np.float64)
    np.add.at(sums, labels, np.asarray(matrix, dtype=np.float64))
    counts = np.bincount(labels, minlength=k)
    return sums, counts


def centroid_matrix(matrix, labels, k):
    """Per-cluster centroids (k × d); empty clusters get zero rows.

    Returns ``(centroids, counts)`` so the caller can detect and
    re-seed empty clusters.
    """
    sums, counts = group_sums(matrix, labels, k)
    divisor = np.maximum(counts, 1).astype(np.float64)
    return sums / divisor[:, None], counts


# ---------------------------------------------------------------------------
# Vectorized Levenshtein
# ---------------------------------------------------------------------------

#: Below this |a|·|b| area the scalar two-row DP beats numpy's
#: per-operation overhead (short simplified tag paths live here).
_SCALAR_DP_AREA = 1024

#: Interned-pair memo shared by every call site; simplified code paths
#: and probe URLs repeat heavily, so most lookups hit.
_PAIR_MEMO: dict[tuple[str, str], float] = {}
_PAIR_MEMO_LIMIT = 1 << 17


def _levenshtein_rowwise(a: str, b: str) -> int:
    """Edit distance with the DP inner loop vectorized over numpy rows.

    Each outer step computes a whole DP row with array ops; the
    insertion recurrence (a left-to-right running minimum) is resolved
    with ``np.minimum.accumulate`` over ``row - index`` offsets.
    """
    b_codes = np.fromiter(map(ord, b), dtype=np.int64, count=len(b))
    offsets = np.arange(len(b) + 1, dtype=np.int64)
    previous = offsets.copy()
    current = np.empty(len(b) + 1, dtype=np.int64)
    for i, ca in enumerate(a, start=1):
        substitution = previous[:-1] + (b_codes != ord(ca))
        deletion = previous[1:] + 1
        current[0] = i
        np.minimum(substitution, deletion, out=current[1:])
        # Insertions: current[j] = min_{k<=j}(current[k] + (j - k)).
        np.minimum.accumulate(current - offsets, out=current)
        current += offsets
        previous, current = current, previous
    return int(previous[-1])


def _normalized_distance(a: str, b: str) -> float:
    """Memoized normalized edit distance with early exits."""
    if a == b:  # exact-match early exit (distance 0, no DP)
        return 0.0
    len_a, len_b = len(a), len(b)
    longest = max(len_a, len_b)
    if min(len_a, len_b) == 0:
        # Length-band early exit: |len(a)-len(b)| / max = 1, the DP
        # can only confirm the maximal distance.
        return 1.0
    if a > b:  # the distance is symmetric; normalize the memo key
        a, b = b, a
    key = (a, b)
    cached = _PAIR_MEMO.get(key)
    if cached is not None:
        return cached
    if len_a * len_b < _SCALAR_DP_AREA:
        # Imported lazily: editdist lives in repro.cluster, whose
        # __init__ imports the clusterers, which import this module.
        from repro.cluster.editdist import levenshtein

        distance = levenshtein(a, b)
    else:
        distance = _levenshtein_rowwise(a, b)
    value = distance / longest
    if len(_PAIR_MEMO) >= _PAIR_MEMO_LIMIT:  # pragma: no cover - bound only
        _PAIR_MEMO.clear()
    _PAIR_MEMO[key] = value
    return value


def _memo_store(key: tuple[str, str], value: float) -> float:
    if len(_PAIR_MEMO) >= _PAIR_MEMO_LIMIT:  # pragma: no cover - bound only
        _PAIR_MEMO.clear()
    _PAIR_MEMO[key] = value
    return value


def pairwise_normalized_levenshtein(
    a_strings: Sequence[str], b_strings: Optional[Sequence[str]] = None
):
    """Matrix of normalized edit distances between two string batches.

    With ``b_strings=None`` the (symmetric) self-distance matrix of
    ``a_strings`` is returned and only the upper triangle is computed.
    Equals :func:`repro.cluster.editdist.normalized_levenshtein` entry
    for entry — the kernels compute exact integer edit distances and
    perform the same final division, so the two agree bitwise.

    Cells are served from the interned-pair memo where possible; every
    cell the memo (and the equal/empty early exits) cannot answer is
    collected and dispatched to
    :func:`repro.cluster.editdist.batch_normalized_levenshtein` in one
    batched int-code DP call, instead of one scalar DP per pair — the
    Phase-2 cold path runs thousands of short-path comparisons per
    cluster, and the per-pair interpreter overhead used to dominate.
    """
    symmetric = b_strings is None
    if symmetric:
        b_strings = a_strings
    out = np.zeros((len(a_strings), len(b_strings)), dtype=np.float64)
    #: Cells the memo cannot answer, keyed by order-normalized pair —
    #: insertion-ordered, so the batch call dedupes repeated pairs.
    pending: dict[tuple[str, str], list[tuple[int, int]]] = {}
    for i, a in enumerate(a_strings):
        for j in range(i + 1 if symmetric else 0, len(b_strings)):
            b = b_strings[j]
            if a == b:
                continue  # exact-match early exit: the cell stays 0.0
            if not a or not b:
                out[i, j] = 1.0  # length-band early exit
                continue
            key = (a, b) if a <= b else (b, a)
            cached = _PAIR_MEMO.get(key)
            if cached is not None:
                out[i, j] = cached
            else:
                pending.setdefault(key, []).append((i, j))
    if pending:
        keys = list(pending)
        if len(keys) == 1:
            # A single miss: the scalar kernel skips batch setup.
            distances = [_normalized_distance(*keys[0])]
        else:
            from repro.cluster.editdist import batch_normalized_levenshtein

            distances = batch_normalized_levenshtein(
                [key[0] for key in keys], [key[1] for key in keys]
            )
        for key, value in zip(keys, distances):
            _memo_store(key, value)
            for i, j in pending[key]:
                out[i, j] = value
    if symmetric:
        upper = np.triu_indices(len(a_strings), k=1)
        out[(upper[1], upper[0])] = out[upper]
    return out


def clear_levenshtein_memo() -> None:
    """Drop the interned-pair memo (tests and long-lived processes)."""
    _PAIR_MEMO.clear()


__all__ = [
    "VectorSpace",
    "weighted_space",
    "tfidf_statistics",
    "encode_tfidf",
    "cosine_matrix",
    "group_sums",
    "centroid_matrix",
    "pairwise_normalized_levenshtein",
    "clear_levenshtein_memo",
]
