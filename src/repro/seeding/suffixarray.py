"""Suffix array construction (prefix doubling) and pattern search.

The seeding substrate's foundation: the FM-index derives its BWT from
this suffix array, and :func:`sa_interval`'s binary search is the
oracle its backward search is held to.  Prefix doubling with numpy
argsort is O(n log^2 n) — comfortably fast for the multi-hundred-kilobase
synthetic references the experiments use.

A unique sentinel is appended internally so that all suffixes are
totally ordered; it sorts *first* (smaller than any base code), the
convention the FM-index's C-array arithmetic assumes, and the one
:func:`_compare_suffix` mirrors (a suffix that is a proper prefix of
the pattern sorts before the pattern).
"""

from __future__ import annotations

import numpy as np

SENTINEL = -1


def build_suffix_array(text: np.ndarray) -> np.ndarray:
    """Suffix array of ``text`` (codes), excluding the sentinel suffix.

    Returns the start positions of the ``len(text)`` suffixes in
    lexicographic order.
    """
    text = np.asarray(text, dtype=np.int64)
    n = len(text)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if text.size and text.min() <= SENTINEL:
        raise ValueError("text codes must be non-negative")
    padded = np.concatenate([text, [SENTINEL]])
    rank = padded.copy()
    sa = np.argsort(rank, kind="stable")
    k = 1
    tmp = np.empty(n + 1, dtype=np.int64)
    while True:
        # Sort by (rank[i], rank[i + k]) pairs.
        second = np.full(n + 1, -1, dtype=np.int64)
        second[: n + 1 - k] = rank[k:]
        order = np.lexsort((second, rank))
        # Re-rank.
        sa = order
        tmp[sa[0]] = 0
        prev = sa[:-1]
        cur = sa[1:]
        changed = (rank[cur] != rank[prev]) | (second[cur] != second[prev])
        tmp[cur] = np.cumsum(changed)
        rank, tmp = tmp.copy(), rank
        if rank[sa[-1]] == n:
            break
        k *= 2
        if k > n + 1:
            break
    # Drop the sentinel suffix (it is the lone suffix starting at n).
    return sa[sa < n].astype(np.int64)


def _compare_suffix(
    text: np.ndarray, start: int, pattern: np.ndarray
) -> int:
    """-1/0/+1 comparison of text[start:] against ``pattern`` as prefix.

    0 means the pattern is a prefix of the suffix.
    """
    n = len(text)
    m = len(pattern)
    length = min(n - start, m)
    seg = text[start : start + length]
    diff = seg != pattern[:length]
    if diff.any():
        k = int(np.argmax(diff))
        return -1 if seg[k] < pattern[k] else 1
    if length == m:
        return 0
    return -1  # suffix is a proper prefix of the pattern: sorts before


def sa_interval(
    text: np.ndarray, sa: np.ndarray, pattern: np.ndarray
) -> tuple[int, int]:
    """Half-open SA interval [lo, hi) of suffixes starting with pattern."""
    pattern = np.asarray(pattern)
    if len(pattern) == 0:
        return (0, len(sa))
    lo, hi = 0, len(sa)
    while lo < hi:
        mid = (lo + hi) // 2
        if _compare_suffix(text, int(sa[mid]), pattern) < 0:
            lo = mid + 1
        else:
            hi = mid
    first = lo
    lo, hi = first, len(sa)
    while lo < hi:
        mid = (lo + hi) // 2
        if _compare_suffix(text, int(sa[mid]), pattern) <= 0:
            lo = mid + 1
        else:
            hi = mid
    return (first, lo)
