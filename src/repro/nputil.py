"""Small shared numpy helpers used by the hot-path kernels.

Kept dependency-free (numpy only) so both the graph substrates and the
core kernels can use them without layering cycles.
"""

from __future__ import annotations

import numpy as np


def concatenated_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices of ``concat(arange(s, s + c) for s, c in zip(starts, counts))``.

    This is the vectorised "multi-slice" gather used everywhere a batch of
    CSR rows must be pulled out in one shot: ``data[concatenated_ranges(
    indptr[rows], indptr[rows + 1] - indptr[rows])]`` concatenates the row
    slices without a Python loop.
    """
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    # Offset of each range's first element inside the output, repeated over
    # the range, plus a running arange — the standard segment trick.
    first = np.repeat(starts - (ends - counts), counts)
    return first + np.arange(total, dtype=np.int64)


def segment_sums(
    values: np.ndarray, segments: np.ndarray, num_segments: int
) -> np.ndarray:
    """Sum ``values`` grouped by segment id (a thin bincount wrapper)."""
    return np.bincount(
        segments, weights=values, minlength=num_segments
    )[:num_segments]


def top_k_indices(
    scores: np.ndarray, tiebreak: np.ndarray, k: int
) -> np.ndarray:
    """Indices of the ``k`` largest scores; ties go to the smaller tiebreak.

    The result depends only on the multiset of ``(score, tiebreak)``
    pairs — never on the input *order* — which is what makes the final
    top-k ranking agree across expansion schedules: their local-id
    orders differ, but the global node ids used as ``tiebreak`` do not.  Selection stays O(n): an argpartition bounds the k-th score,
    and only entries at or beyond that score (the k best plus anything
    tied with the k-th) are sorted.  Smaller-is-closer callers pass
    negated scores; negation is exact, so the order is unchanged.
    """
    keys = -scores
    if k >= len(scores):
        return np.lexsort((tiebreak, keys))
    kth = np.partition(keys, k - 1)[k - 1]
    pool = np.flatnonzero(keys <= kth)
    order = np.lexsort((tiebreak[pool], keys[pool]))
    return pool[order[:k]]
