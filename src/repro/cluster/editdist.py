"""String edit distance (Levenshtein 1966).

Used in two places: comparing simplified subtree paths in the Phase-2
distance function, and comparing URLs in the URL-based clustering
baseline. The scalar implementation is the standard two-row dynamic
program, O(|a|·|b|) time and O(min(|a|,|b|)) space; it is the tested
oracle for the batched kernel below.

:func:`batch_normalized_levenshtein` is the Phase-2 cold-path kernel:
it runs *many* pair DPs at once, over int-coded characters, with the
whole batch advanced one DP row per numpy operation (the same
band-early-exit + int-code design as the row-vectorized rewrite in
:mod:`repro.vsm.matrix`, extended across the pair axis). Simplified
q-letter tag paths are short — typically under 20 codes — so the win
comes from amortizing interpreter overhead across the batch, not from
vectorizing within one pair.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

import numpy as np


def levenshtein(a: str, b: str) -> int:
    """Number of single-character edits transforming ``a`` into ``b``.

    >>> levenshtein("cat", "cake")
    2
    >>> levenshtein("", "abc")
    3
    """
    if a == b:
        return 0
    # Keep the shorter string in the inner dimension.
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(
                    previous[j] + 1,  # deletion
                    current[j - 1] + 1,  # insertion
                    previous[j - 1] + cost,  # substitution
                )
            )
        previous = current
    return previous[-1]


def normalized_levenshtein(a: str, b: str) -> float:
    """Edit distance scaled by max(len) into [0, 1].

    This is the paper's path-distance term: ``EditDist(P_i, P_j) /
    max(len(P_i), len(P_j))``. Two empty strings have distance 0.

    Two fast paths skip the DP entirely: equal strings are at distance
    0, and when the length gap alone saturates the bound
    (``abs(len(a) - len(b)) / max >= 1.0``, i.e. one string is empty)
    the distance is already maximal.

    >>> normalized_levenshtein("he", "het")
    0.3333333333333333
    >>> normalized_levenshtein("table", "table")
    0.0
    >>> normalized_levenshtein("", "tr")
    1.0
    """
    if a == b:  # covers the two-empty-strings case
        return 0.0
    longest = max(len(a), len(b))
    if abs(len(a) - len(b)) >= longest:
        # Length-band early exit: edit distance >= the length gap, and
        # here the gap equals the normalizer — distance is maximal.
        return 1.0
    return levenshtein(a, b) / longest


def batch_normalized_levenshtein(
    a_strings: Sequence[str], b_strings: Sequence[str]
) -> list[float]:
    """Normalized edit distances for *parallel* string pairs.

    ``result[i] == normalized_levenshtein(a_strings[i], b_strings[i])``
    bitwise, for every ``i``. The whole batch runs through one
    int-coded dynamic program (:func:`_batched_dp_numpy`) — the kernel
    behind the Phase-2 quadruple distance matrices — after the same two
    early exits as the scalar function (equal strings,
    empty-vs-nonempty).

    >>> batch_normalized_levenshtein(["he", "table"], ["het", "table"])
    [0.3333333333333333, 0.0]
    """
    if len(a_strings) != len(b_strings):
        raise ValueError(
            f"batch length mismatch: {len(a_strings)} vs {len(b_strings)}"
        )
    out: list[Optional[float]] = [None] * len(a_strings)
    hard: list[int] = []
    for index, (a, b) in enumerate(zip(a_strings, b_strings)):
        if a == b:
            out[index] = 0.0
        elif not a or not b:
            # Length-band early exit: the gap equals the normalizer.
            out[index] = 1.0
        else:
            hard.append(index)
    if hard:
        distances = _batched_dp_numpy(
            [a_strings[i] for i in hard], [b_strings[i] for i in hard]
        )
        for index, value in zip(hard, distances):
            out[index] = value
    return out  # type: ignore[return-value]


def _batched_dp_numpy(
    a_strings: Sequence[str], b_strings: Sequence[str]
) -> list[float]:
    """One dynamic program over a whole batch of non-trivial pairs.

    Strings are int-coded over the batch alphabet (distinct pad codes
    for the two sides, so padding can never spell an accidental match)
    and right-padded into two dense matrices; every DP step then
    advances *all* pairs one row with a handful of array operations.
    Row ``i`` of a finished pair is frozen by masking, and because each
    DP column depends only on columns to its left, the padded tail of
    a short inner string can never contaminate its answer cell. The
    integer edit distances are exact, and the final division matches
    :func:`normalized_levenshtein` operation for operation — which is
    what makes the batch bitwise-interchangeable with the scalar path.
    """
    # Keep the longer string of each pair on the outer (row) axis: the
    # outer loop runs max-outer-length times and the arrays are
    # (batch × max-inner-length), the smaller footprint.
    pairs: list[tuple[str, str]] = []
    for a, b in zip(a_strings, b_strings):
        pairs.append((a, b) if len(a) >= len(b) else (b, a))
    codes: dict[str, int] = {}
    encoded = [
        (
            [codes.setdefault(ch, len(codes)) for ch in outer],
            [codes.setdefault(ch, len(codes)) for ch in inner],
        )
        for outer, inner in pairs
    ]
    size = len(pairs)
    outer_lengths = np.array([len(p[0]) for p in pairs], dtype=np.int64)
    inner_lengths = np.array([len(p[1]) for p in pairs], dtype=np.int64)
    max_outer = int(outer_lengths.max())
    max_inner = int(inner_lengths.max())
    outer_codes = np.full((size, max_outer), -1, dtype=np.int64)
    inner_codes = np.full((size, max_inner), -2, dtype=np.int64)
    for row, (outer, inner) in enumerate(encoded):
        outer_codes[row, : len(outer)] = outer
        inner_codes[row, : len(inner)] = inner

    offsets = np.arange(max_inner + 1, dtype=np.int64)
    previous = np.broadcast_to(offsets, (size, max_inner + 1)).copy()
    current = np.empty_like(previous)
    for step in range(1, max_outer + 1):
        step_codes = outer_codes[:, step - 1]
        substitution = previous[:, :-1] + (inner_codes != step_codes[:, None])
        deletion = previous[:, 1:] + 1
        current[:, 0] = step
        np.minimum(substitution, deletion, out=current[:, 1:])
        # Insertions: current[j] = min_{k<=j}(current[k] + (j - k)),
        # a running minimum over offset-shifted values.
        current -= offsets
        np.minimum.accumulate(current, axis=1, out=current)
        current += offsets
        finished = step > outer_lengths
        if finished.any():
            # Freeze rows whose outer string already ended.
            np.copyto(current, previous, where=finished[:, None])
        previous, current = current, previous
    distances = previous[np.arange(size), inner_lengths]
    return [
        int(distance) / len(outer)
        for distance, (outer, _) in zip(distances, pairs)
    ]


@lru_cache(maxsize=65536)
def cached_normalized_levenshtein(a: str, b: str) -> float:
    """Memoized :func:`normalized_levenshtein` over unordered pairs.

    Phase-2 candidate paths are heavily repeated (every result row of a
    page shares one simplified path), so memoizing per pair turns the
    distance-matrix construction from the dominant cost of cross-page
    analysis into a dictionary lookup. The distance is symmetric, so
    arguments are order-normalized to double the hit rate.

    >>> cached_normalized_levenshtein("tr", "trt")
    0.3333333333333333
    """
    if a > b:
        a, b = b, a
    return normalized_levenshtein(a, b)
