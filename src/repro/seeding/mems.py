"""Maximal-exact-match seeding (the SMEM-style front end).

BWA-MEM seeds alignment with supermaximal exact matches; this module
produces the equivalent seed set from the FM-index: for every query
end position, the longest exact match ending there, filtered to the
matches not contained in a longer one.

The classic monotonicity makes this linear-ish: if ``s(e)`` is the
smallest start such that ``query[s:e]`` occurs in the reference, then
``s`` is non-decreasing in ``e``, so matches ending at successive
positions can only shrink from the left.  A match ``[s(e), e)`` is
supermaximal exactly when ``s(e+1) > s(e)`` (or ``e`` is the query
end) — extending right forces giving up the left edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import MIN_SEED_LENGTH
from repro.seeding.fmindex import FMIndex, Interval


@dataclass(frozen=True)
class Seed:
    """One exact match: query [qbegin, qend) == reference
    [rbegin, rbegin + length)."""

    qbegin: int
    qend: int
    rbegin: int

    @property
    def length(self) -> int:
        """Length of the exact match."""
        return self.qend - self.qbegin

    @property
    def diagonal(self) -> int:
        """Reference diagonal; co-linear seeds share it."""
        return self.rbegin - self.qbegin


@dataclass(frozen=True)
class Mem:
    """A supermaximal match and its FM interval (before placement)."""

    qbegin: int
    qend: int
    interval: Interval

    @property
    def length(self) -> int:
        """Length of the supermaximal match."""
        return self.qend - self.qbegin


def find_smems(
    index: FMIndex,
    query: np.ndarray,
    min_seed_length: int = MIN_SEED_LENGTH,
) -> list[Mem]:
    """Supermaximal exact matches of ``query`` against the index.

    ``min_seed_length`` defaults to BWA-MEM's 19; shorter matches are
    noise and dropped.
    """
    query = np.asarray(query, dtype=np.int64)
    qlen = len(query)
    out: list[Mem] = []
    prev_start = None
    for e in range(1, qlen + 1):
        start, iv = _longest_backward(index, query, e)
        if start is None:
            continue
        is_supermaximal = False
        if e == qlen:
            is_supermaximal = True
        else:
            nxt, _ = _longest_backward(index, query, e + 1)
            is_supermaximal = nxt is None or nxt > start
        if is_supermaximal and e - start >= min_seed_length:
            if prev_start is None or start > prev_start:
                out.append(Mem(start, e, iv))
                prev_start = start
    return out


def _longest_backward(
    index: FMIndex, query: np.ndarray, end: int
) -> tuple[int | None, Interval]:
    """Smallest start s such that query[s:end] occurs; its interval."""
    iv = index.whole()
    start = end
    best: Interval | None = None
    for s in range(end - 1, -1, -1):
        c = int(query[s])
        if c >= 4:
            break  # ambiguous base ends the match
        nxt = index.backward_extend(iv, c)
        if nxt.is_empty:
            break
        iv = nxt
        start = s
        best = iv
    if best is None:
        return None, Interval(0, 0)
    return start, best


def place_seeds(
    index: FMIndex,
    mems: list[Mem],
    max_occurrences: int = 32,
) -> list[Seed]:
    """Resolve MEM intervals to reference positions.

    MEMs hitting more than ``max_occurrences`` places are dropped, as
    BWA-MEM does: ubiquitous repeats are useless anchors.
    """
    seeds = []
    for mem in mems:
        if mem.interval.width > max_occurrences:
            continue
        for pos in index.locate(mem.interval):
            seeds.append(Seed(mem.qbegin, mem.qend, pos))
    seeds.sort(key=lambda s: (s.qbegin, s.rbegin))
    return seeds


def seed_read(
    index: FMIndex,
    query: np.ndarray,
    min_seed_length: int = MIN_SEED_LENGTH,
    max_occurrences: int = 32,
) -> list[Seed]:
    """SMEM generation + placement in one call."""
    return place_seeds(
        index,
        find_smems(index, query, min_seed_length),
        max_occurrences,
    )
