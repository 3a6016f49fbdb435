"""Hash-based k-mer seeding (the ERT stand-in).

The paper pairs SeedEx with the ERT seeding accelerator; this module
is the software stand-in with the same role: produce anchor seeds fast
at the cost of a bigger index.  Fixed-length k-mers are hashed to
reference positions; query k-mers look up anchors which are then
greedily extended to maximal matches so the chaining stage sees seeds
comparable to SMEMs.

Seeding has no dependency across reads, so :meth:`KmerIndex.seed_reads`
seeds a whole window as arrays: one lookup for every anchor of every
query, one mismatch scan per distinct (query, diagonal) the anchors
hit, one dedup.
"""

from __future__ import annotations

import numpy as np

from repro.constants import MIN_SEED_LENGTH, InputError
from repro.seeding.mems import Seed

SEED_CHUNK = 128
"""Queries seeded per vectorised pass: a pass's anchor and hit arrays
grow with its queries, not with the window.  One pass over a whole
2,400-read window raised an aligner run's peak RSS by 29-39%."""

SCAN_CELLS = 1 << 17
"""Most mismatch-row cells one pass scans.

A pass scans one row per distinct (query, diagonal) its hits land on,
each as long as its query, at about 20 bytes of scratch per cell; a
pass over more cells is split into passes over fewer queries.  Short
reads stay far below it (~9,000 cells per 128 queries); long reads,
whose indels spread each read over a dozen diagonals, reach it.
"""

_EDGE = 255
"""Query-side pad around every query.  It equals no reference base, so
the cells before a query's start and past its end stop extension."""


class KmerIndex:
    """Exact k-mer hash index over an encoded, N-free reference."""

    def __init__(
        self, reference: np.ndarray, k: int = MIN_SEED_LENGTH
    ) -> None:
        reference = np.asarray(reference, dtype=np.int64)
        if k < 1 or k > 31:
            raise ValueError("k must be in [1, 31]")
        if len(reference) < k:
            raise InputError(f"reference shorter than k={k}")
        if reference.max(initial=0) >= 4:
            raise InputError("reference must be N-free for k-mer packing")
        self.k = k
        self.reference = reference.astype(np.uint8)
        keys = _pack_kmers(reference, k)
        order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[order]
        self._positions = order.astype(np.int64)

    @classmethod
    def from_tables(
        cls,
        reference: np.ndarray,
        k: int,
        sorted_keys: np.ndarray,
        positions: np.ndarray,
    ) -> "KmerIndex":
        """Adopt prebuilt sorted-key/position tables without repacking.

        The persistent index store (:mod:`repro.index`) hands the
        tables over as ``numpy.memmap`` views after CRC verification;
        lookups binary-search them in place, zero-copy.
        """
        self = cls.__new__(cls)
        self.k = int(k)
        self.reference = reference
        self._sorted_keys = sorted_keys
        self._positions = positions
        return self

    def tables(self) -> dict[str, np.ndarray]:
        """The index's array-valued tables, keyed for serialization."""
        return {
            "sorted_keys": self._sorted_keys,
            "positions": self._positions,
        }

    def lookup(self, kmer: np.ndarray) -> np.ndarray:
        """Reference start positions of an exact k-mer (sorted)."""
        kmer = np.asarray(kmer, dtype=np.int64)
        if len(kmer) != self.k:
            raise ValueError(f"need a {self.k}-mer, got {len(kmer)}")
        if kmer.max(initial=0) >= 4:
            return np.zeros(0, dtype=np.int64)
        key = _pack_kmers(kmer, self.k)[0]
        lo = np.searchsorted(self._sorted_keys, key, side="left")
        hi = np.searchsorted(self._sorted_keys, key, side="right")
        return np.sort(self._positions[lo:hi])

    def seed_read(
        self,
        query: np.ndarray,
        stride: int = 4,
        max_occurrences: int = 32,
    ) -> list[Seed]:
        """Anchor + extend seeding for one read: :meth:`seed_reads` of
        a one-query window."""
        return self.seed_reads([query], stride, max_occurrences)[0]

    def seed_reads(
        self,
        queries,
        stride: int = 4,
        max_occurrences: int = 32,
    ) -> list[list[Seed]]:
        """Anchor + extend seeding for a window of reads.

        Query k-mers every ``stride`` bases (and the last one) are
        anchors; an anchor with an ambiguous base, or with more than
        ``max_occurrences`` reference hits, is skipped.  Each hit is
        extended left and right to a maximal exact match, duplicates
        (the same seed reached from different anchors) are merged, and
        each query's seeds come back ordered by ``(qbegin, rbegin)``.
        """
        queries = [np.asarray(q, dtype=np.uint8) for q in queries]
        return self._seed_chunks(queries, SEED_CHUNK, stride, max_occurrences)

    def _seed_chunks(
        self,
        queries: list[np.ndarray],
        size: int,
        stride: int,
        max_occurrences: int,
    ) -> list[list[Seed]]:
        """:meth:`_seed_chunk` over consecutive runs of ``size`` queries."""
        return [
            seeds
            for lo in range(0, len(queries), size)
            for seeds in self._seed_chunk(
                queries[lo : lo + size], stride, max_occurrences
            )
        ]

    def _seed_chunk(
        self, queries: list[np.ndarray], stride: int, max_occurrences: int
    ) -> list[list[Seed]]:
        """One vectorised pass of :meth:`seed_reads` over ``queries``."""
        k, ref = self.k, self.reference
        lens = np.array([len(q) for q in queries], dtype=np.int64)
        # [edge, q0, edge, q1, ..., edge]; query i's bases start at starts[i].
        edge = np.full(1, _EDGE, dtype=np.uint8)
        seq = np.concatenate([p for q in queries for p in (edge, q)] + [edge])
        starts = np.cumsum(lens + 1) - lens

        # Anchors: every stride-th k-mer of every query, plus the last.
        last = lens - k
        per_query = np.where(last >= 0, -(-last // stride) + 1, 0)
        owner = np.repeat(np.arange(len(queries)), per_query)
        anchor_qb = np.minimum(_ranks(per_query) * stride, last[owner])
        at = starts[owner] + anchor_qb
        ambiguous = np.concatenate(([0], np.cumsum(seq >= 4)))
        keys = _pack_kmers(seq, k)[at]
        lo = np.searchsorted(self._sorted_keys, keys, side="left")
        hi = np.searchsorted(self._sorted_keys, keys, side="right")
        usable = (ambiguous[at + k] == ambiguous[at]) & (
            hi - lo <= max_occurrences
        )
        n_hits = np.where(usable, hi - lo, 0)

        # Hits: every reference position of every usable anchor.
        anchor = np.repeat(np.arange(len(n_hits)), n_hits)
        hit_q = owner[anchor]
        hit_qb = anchor_qb[anchor]
        diagonal = self._positions[lo[anchor] + _ranks(n_hits)] - hit_qb

        # One mismatch row per distinct (query, diagonal), over query
        # positions -1 .. len: the pads, cells off the reference and
        # unequal bases are the row's stops.
        _, first, row = np.unique(
            hit_q * (len(ref) + len(seq)) + diagonal + len(seq),
            return_index=True,
            return_inverse=True,
        )
        row_q = hit_q[first]
        width = lens[row_q] + 2
        cells = int(width.sum())
        if cells > SCAN_CELLS and len(queries) > 1:
            size = max(1, len(queries) * SCAN_CELLS // cells)
            return self._seed_chunks(queries, size, stride, max_occurrences)
        base = np.cumsum(width) - width
        qpos = np.arange(cells)
        qpos += np.repeat(starts[row_q] - 1 - base, width)
        rpos = np.repeat(diagonal[first] - starts[row_q], width)
        rpos += qpos
        stop = np.take(seq, qpos) != np.take(ref, rpos, mode="clip")
        del qpos
        stop |= (rpos < 0) | (rpos >= len(ref))
        del rpos
        stops = np.flatnonzero(stop)

        # A hit's seed runs between the stops either side of its anchor
        # (anchor cells all match, so one search finds both).
        after = np.searchsorted(stops, base[row] + 1 + hit_qb)
        qbegin = stops[after - 1] - base[row]
        qend = stops[after] - base[row] - 1
        rbegin = qbegin + diagonal

        # (query, qbegin, rbegin) fixes the seed; sorting by it is the
        # output order.
        _, keep = np.unique(
            (hit_q * (lens.max(initial=0) + 1) + qbegin) * len(ref) + rbegin,
            return_index=True,
        )
        seeds = list(
            map(
                Seed,
                qbegin[keep].tolist(),
                qend[keep].tolist(),
                rbegin[keep].tolist(),
            )
        )
        bounds = np.searchsorted(hit_q[keep], np.arange(len(queries) + 1))
        return [seeds[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _ranks(counts: np.ndarray) -> np.ndarray:
    """``0 .. c - 1`` for each count ``c``, concatenated."""
    firsts = np.cumsum(counts) - counts
    return np.arange(counts.sum()) - np.repeat(firsts, counts)


def _pack_kmers(seq: np.ndarray, k: int) -> np.ndarray:
    """2-bit pack every k-mer of ``seq`` into one integer key."""
    seq = np.asarray(seq, dtype=np.int64)
    n = len(seq) - k + 1
    if n <= 0:
        return np.zeros(0, dtype=np.int64)
    keys = np.zeros(n, dtype=np.int64)
    for offset in range(k):
        keys = (keys << 2) | seq[offset : offset + n]
    return keys
