"""FM-index: BWT-based backward search with sampled-SA locate.

BWA-MEM's seeding walks an FM-index of the reference; this is the
from-scratch substrate equivalent.  Supports the standard operations:

* :meth:`FMIndex.backward_extend` — one backward-search step,
  prepending a character to the current match;
* :meth:`FMIndex.count` / :meth:`FMIndex.interval` — occurrences of a
  pattern;
* :meth:`FMIndex.locate` — reference positions of an interval via the
  sampled suffix array and LF-mapping walks.

The alphabet is the 4 base codes; references must be N-free (the
synthetic references are).  A sentinel (code 4 here, sorting *before*
the bases as in the classic construction) terminates the text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALPHABET = 4


@dataclass(frozen=True)
class Interval:
    """Half-open BWT interval; ``width`` is the occurrence count."""

    lo: int
    hi: int

    @property
    def width(self) -> int:
        """Number of occurrences in the interval."""
        return self.hi - self.lo

    @property
    def is_empty(self) -> bool:
        """True when the interval matches nothing."""
        return self.hi <= self.lo


class FMIndex:
    """FM-index over an encoded, N-free reference."""

    def __init__(
        self,
        text: np.ndarray,
        sa_sample_rate: int = 8,
        sa: np.ndarray | None = None,
    ) -> None:
        text = np.asarray(text, dtype=np.uint8)
        if text.size == 0:
            raise ValueError("cannot index an empty reference")
        if text.max(initial=0) >= ALPHABET:
            raise ValueError("reference must be N-free for FM indexing")
        if sa_sample_rate < 1:
            raise ValueError("sa_sample_rate must be >= 1")
        self.n = len(text)
        self._sample_rate = sa_sample_rate

        # Full SA (kept only long enough to build BWT + samples); the
        # index artifact builder passes its own copy in so the array is
        # computed once and also serialized.
        if sa is None:
            # Imported here: the k-mer path loads this module for its
            # types and never builds an FM-index.
            from repro.seeding.suffixarray import build_suffix_array

            sa = build_suffix_array(text)
        # Conceptual rotation order: sentinel suffix first, then sa.
        # BWT[r] = text[sa_full[r] - 1]; sentinel occupies row 0.
        sa_full = np.concatenate([[self.n], sa])
        prev = sa_full - 1
        self._sentinel_row = int(np.flatnonzero(prev == -1)[0])
        bwt = np.where(prev >= 0, text[np.clip(prev, 0, None)], 0)
        self._bwt = bwt.astype(np.uint8)

        # C array: C[c] = number of rotations starting with a symbol
        # strictly smaller than c (sentinel counts as the smallest).
        counts = np.bincount(text, minlength=ALPHABET)
        self._c = np.zeros(ALPHABET + 1, dtype=np.int64)
        self._c[0] = 1
        for c in range(1, ALPHABET + 1):
            self._c[c] = self._c[c - 1] + counts[c - 1]

        # Occ checkpoints: cumulative counts per symbol, prefix form.
        occ = np.zeros((self.n + 2, ALPHABET), dtype=np.int64)
        onehot = np.zeros((self.n + 1, ALPHABET), dtype=np.int64)
        rows = np.arange(self.n + 1)
        mask = rows != self._sentinel_row
        onehot[rows[mask], self._bwt[mask]] = 1
        np.cumsum(onehot, axis=0, out=occ[1:])
        self._occ = occ

        # Sampled SA for locate(): parallel sorted (row -> position)
        # arrays rather than a dict, so the tables serialize into the
        # persistent index artifact and load back zero-copy.
        rows_sampled = np.flatnonzero(sa_full % sa_sample_rate == 0)
        self._sample_rows = rows_sampled.astype(np.int64)
        self._sample_pos = sa_full[rows_sampled].astype(np.int64)

    @classmethod
    def from_tables(
        cls,
        *,
        n: int,
        sample_rate: int,
        sentinel_row: int,
        bwt: np.ndarray,
        c: np.ndarray,
        occ: np.ndarray,
        sample_rows: np.ndarray,
        sample_pos: np.ndarray,
    ) -> "FMIndex":
        """Adopt prebuilt tables without recomputing anything.

        The persistent index store (:mod:`repro.index`) loads the
        tables as ``numpy.memmap`` views; every query operation reads
        them in place, so a loaded index never copies the artifact's
        pages.  Callers are responsible for table consistency — the
        store verifies per-section CRCs before handing tables over.
        """
        self = cls.__new__(cls)
        self.n = int(n)
        self._sample_rate = int(sample_rate)
        self._sentinel_row = int(sentinel_row)
        self._bwt = bwt
        self._c = c
        self._occ = occ
        self._sample_rows = sample_rows
        self._sample_pos = sample_pos
        return self

    def tables(self) -> dict[str, np.ndarray]:
        """The index's array-valued tables, keyed for serialization."""
        return {
            "bwt": self._bwt,
            "c": self._c,
            "occ": self._occ,
            "sample_rows": self._sample_rows,
            "sample_pos": self._sample_pos,
        }

    def scalars(self) -> dict[str, int]:
        """The index's scalar parameters, keyed for serialization."""
        return {
            "n": self.n,
            "sample_rate": self._sample_rate,
            "sentinel_row": self._sentinel_row,
        }

    def whole(self) -> Interval:
        """The interval of the empty pattern (all rotations)."""
        return Interval(0, self.n + 1)

    def _occ_at(self, row: int, c: int) -> int:
        return int(self._occ[row][c])

    def backward_extend(self, interval: Interval, c: int) -> Interval:
        """Prepend symbol ``c``: interval of ``c + current pattern``."""
        if not 0 <= c < ALPHABET:
            raise ValueError(f"symbol {c} outside alphabet")
        lo = self._c[c] + self._occ_at(interval.lo, c)
        hi = self._c[c] + self._occ_at(interval.hi, c)
        return Interval(int(lo), int(hi))

    def interval(self, pattern: np.ndarray) -> Interval:
        """Backward-search a whole pattern."""
        iv = self.whole()
        for c in reversed(np.asarray(pattern, dtype=np.int64)):
            iv = self.backward_extend(iv, int(c))
            if iv.is_empty:
                return iv
        return iv

    def count(self, pattern: np.ndarray) -> int:
        """Occurrences of a pattern in the reference."""
        return self.interval(pattern).width

    def _lf(self, row: int) -> int:
        """One LF-mapping step (row of the preceding character)."""
        if row == self._sentinel_row:
            return 0
        c = int(self._bwt[row])
        return int(self._c[c] + self._occ_at(row, c))

    def _sampled_pos(self, row: int) -> int | None:
        """Sampled SA position of ``row``, or ``None`` if unsampled."""
        idx = int(np.searchsorted(self._sample_rows, row))
        if idx < len(self._sample_rows) and int(
            self._sample_rows[idx]
        ) == row:
            return int(self._sample_pos[idx])
        return None

    def locate(self, interval: Interval, limit: int | None = None) -> list[int]:
        """Reference positions of an interval's occurrences (sorted)."""
        out = []
        for row in range(interval.lo, interval.hi):
            if limit is not None and len(out) >= limit:
                break
            r = row
            steps = 0
            sampled = self._sampled_pos(r)
            while sampled is None:
                r = self._lf(r)
                steps += 1
                sampled = self._sampled_pos(r)
            pos = sampled + steps
            if pos < self.n:  # skip the sentinel pseudo-position
                out.append(pos)
        return sorted(out)

    def find(self, pattern: np.ndarray, limit: int | None = None) -> list[int]:
        """All start positions of ``pattern`` in the reference."""
        iv = self.interval(pattern)
        if iv.is_empty:
            return []
        return self.locate(iv, limit)
