"""Banded seed-extension kernel (the BSW algorithm of paper Section II).

This is the production implementation: a row-vectorized banded DP with
the exact semantics of the dense oracle in
:mod:`repro.align.fullmatrix` (the two are tested bit-equivalent).  It
adds the three things the SeedEx architecture needs beyond plain
scores:

* the **band** parameter ``w`` — only cells with ``|i - j| <= w`` are
  computed, giving the ``O(N*w)`` complexity of Figure 3/4;
* the **boundary E-scores**: the E-channel values that would flow from
  the band's lower edge into the below-band "shaded" region, consumed
  by the E-score check of Section III-C;
* BWA-MEM-style **early termination**: the live column window shrinks
  as rows go dead and the row loop stops when nothing is live.  Unlike
  the paper's speculative hardware rendition (modelled in
  :mod:`repro.hw.bsw_core`), this software version is lossless — it
  carries trailing F-gap runs explicitly, so pruned and unpruned runs
  produce identical scores.

``extend(query, target, scoring, h0)`` with ``w=None`` computes the
full band and is the "full-band rerun" kernel of the paper's workflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.align.scoring import AffineGap
from repro.genome.sequence import AMBIGUOUS_CODE


class BatchShapeError(ValueError):
    """A batch call's ``queries``/``targets``/``h0s`` lists disagree.

    Every batch kernel promises results *in input order, one per
    job* — a silent ``zip`` truncation would break that contract
    invisibly, so mismatched list lengths raise this typed error
    instead.  Subclasses :class:`ValueError` so pre-existing callers
    that caught the old untyped error keep working.
    """


def check_batch_shapes(queries, targets, h0s) -> int:
    """Validate the parallel batch lists; return the job count."""
    n = len(queries)
    if not (n == len(targets) == len(h0s)):
        raise BatchShapeError(
            "queries, targets, h0s must align: got "
            f"{n}/{len(targets)}/{len(h0s)} entries"
        )
    return n


@dataclass(frozen=True)
class ExtensionResult:
    """Scores and check inputs produced by one banded extension.

    ``lscore``/``lpos`` are the best local extension score and its cell;
    ``gscore``/``gpos`` the best to-end (semi-global) score and its
    target row, with ``gpos = -1`` when no in-band path consumes the
    whole query.  ``boundary_e[j]`` is the E-score entering the shaded
    region at query column ``j`` (empty when the band covers the whole
    matrix).  ``max_off`` is the band-demand proxy BWA-MEM reports.
    """

    lscore: int
    lpos: tuple[int, int]
    gscore: int
    gpos: int
    max_off: int
    band: int
    h0: int
    qlen: int
    tlen: int
    boundary_e: np.ndarray
    cells_computed: int
    terminated_early: bool
    boundary_f: np.ndarray | None = None
    """Upper-boundary F caps; ``None`` only transiently at construction
    — ``__post_init__`` replaces it with a zero array of the right
    length, so consumers always see an ``np.ndarray``."""

    def __post_init__(self) -> None:
        if self.boundary_f is None:
            object.__setattr__(
                self,
                "boundary_f",
                np.zeros(
                    upper_boundary_length(self.qlen, self.tlen, self.band),
                    dtype=np.int64,
                ),
            )

    @property
    def is_full_band(self) -> bool:
        """True when the band covered every cell of the matrix."""
        return self.band >= max(self.qlen, self.tlen)

    def scores(self) -> tuple[int, tuple[int, int], int, int]:
        """The bit-equivalence tuple: (lscore, lpos, gscore, gpos)."""
        return (self.lscore, self.lpos, self.gscore, self.gpos)


def full_band_for(qlen: int, tlen: int) -> int:
    """The band that makes a banded run identical to the dense oracle."""
    return max(qlen, tlen)


def boundary_length(qlen: int, tlen: int, band: int) -> int:
    """Number of columns on the shaded region's top boundary.

    The shaded region is ``{(i, j): i - j > band}``; its top boundary
    cells sit on the diagonal ``i - j = band + 1`` at columns
    ``j = 0 .. min(qlen, tlen - band - 1)``.
    """
    if tlen <= band:
        return 0
    return min(qlen, tlen - band - 1) + 1


def upper_boundary_length(qlen: int, tlen: int, band: int) -> int:
    """Rows on the above-band region's left boundary (the mirror).

    The above region is ``{(i, j): j - i > band}``; it is entered at
    cells ``(i, i + band + 1)`` for rows ``i = 0 .. min(tlen, qlen -
    band - 1)``.
    """
    if qlen <= band:
        return 0
    return min(tlen, qlen - band - 1) + 1


def extend(
    query: np.ndarray,
    target: np.ndarray,
    scoring: AffineGap,
    h0: int,
    w: int | None = None,
    prune: bool = True,
) -> ExtensionResult:
    """Run one banded seed extension.

    ``w=None`` (or any ``w >= max(qlen, tlen)``) computes the full
    matrix.  ``prune=False`` disables the live-window optimization; the
    result is identical either way (the optimization is lossless).
    """
    if h0 < 0:
        raise ValueError("h0 must be non-negative")
    query = np.asarray(query, dtype=np.int64)
    target = np.asarray(target, dtype=np.int64)
    qlen = len(query)
    tlen = len(target)
    if w is None:
        w = full_band_for(qlen, tlen)
    if w < 0:
        raise ValueError("band must be non-negative")

    go = scoring.gap_open
    ge_i = scoring.gap_extend_ins
    ge_d = scoring.gap_extend_del
    m = scoring.match
    x = scoring.mismatch

    n_boundary = boundary_length(qlen, tlen, w)
    boundary_e = np.zeros(n_boundary, dtype=np.int64)
    if n_boundary > 0 and w == 0:
        # Degenerate band: the first shaded cell is (1, 0) and its
        # incoming E extends row 0's seed cell — the row loop below
        # captures at bj = i - w from i >= 1 only, so row 0's capture
        # must happen here (mirrors globalband.global_align).
        boundary_e[0] = max(0, h0 - go - ge_d)
    n_upper = upper_boundary_length(qlen, tlen, w)
    boundary_f = np.zeros(n_upper, dtype=np.int64)
    if n_upper > 0:
        # Row 0: the F value entering (0, w+1) extends the init gap.
        boundary_f[0] = max(0, h0 - go - (w + 1) * ge_i)

    # Row 0: decaying F-gap from the seed score, clamped dead at zero.
    h_prev = np.zeros(qlen + 1, dtype=np.int64)
    e_prev = np.zeros(qlen + 1, dtype=np.int64)
    h_prev[0] = h0
    row0_hi = min(qlen, w)
    if row0_hi >= 1:
        j_idx = np.arange(1, row0_hi + 1, dtype=np.int64)
        h_prev[1 : row0_hi + 1] = np.maximum(0, h0 - go - j_idx * ge_i)

    lscore = h0
    lpos = (0, 0)
    gscore = 0
    gpos = -1
    max_off = 0
    cells = row0_hi + 1
    if qlen <= w and h_prev[qlen] > gscore:
        gscore = int(h_prev[qlen])
        gpos = 0

    live = np.flatnonzero(h_prev > 0)
    beg = int(live[0]) if live.size else 1
    end = min(qlen, int(live[-1]) + 1) if live.size else 0

    terminated_early = False
    h_row = np.zeros(qlen + 1, dtype=np.int64)
    e_row = np.zeros(qlen + 1, dtype=np.int64)

    for i in range(1, tlen + 1):
        lo = max(0, i - w)
        hi = min(qlen, i + w)
        lo2 = max(lo, beg)
        hi2 = min(hi, end)
        init_col = lo == 0 and i <= w
        if lo2 > hi2 and not init_col:
            terminated_early = True
            break

        h_row.fill(0)
        e_row.fill(0)

        if init_col:
            init = max(0, h0 - go - i * ge_d)
            h_row[0] = init
            e_row[0] = init

        if lo2 <= hi2:
            # E channel: vertical moves from the previous row.
            seg = slice(lo2, hi2 + 1)
            e_row[seg] = np.maximum(
                0, np.maximum(h_prev[seg] - go, e_prev[seg]) - ge_d
            )
            if init_col and lo2 == 0:
                e_row[0] = h_row[0]

            # Diagonal contribution; dead predecessors stay dead.
            scan_lo = 0 if init_col else lo2
            width = hi2 + 1 - scan_lo
            g = np.zeros(width, dtype=np.int64)
            d_lo = max(1, scan_lo)
            if d_lo <= hi2:
                pred = h_prev[d_lo - 1 : hi2]
                # N never matches anything, itself included — the same
                # semantics as AffineGap.substitution and the dense
                # oracle.
                tc = target[i - 1]
                sub = np.where(
                    (tc == query[d_lo - 1 : hi2]) & (tc != AMBIGUOUS_CODE),
                    m,
                    -x,
                )
                g[d_lo - scan_lo :] = np.where(pred > 0, pred + sub, 0)
            np.maximum(g, e_row[scan_lo : hi2 + 1], out=g)
            if init_col:
                g[0] = max(int(g[0]), int(h_row[0]))

            # F channel as a running max-plus scan over G (lossless; see
            # DESIGN.md for the dominance argument).
            cols = np.arange(scan_lo, hi2 + 1, dtype=np.int64)
            run = np.maximum.accumulate(g - go + cols * ge_i)
            f = np.zeros(width, dtype=np.int64)
            if width > 1:
                f[1:] = np.maximum(0, run[:-1] - cols[1:] * ge_i)
            h_row[scan_lo : hi2 + 1] = np.maximum(np.maximum(g, f), 0)
            cells += width

            # Lossless trailing-F carry: if the live window ended before
            # the band edge, a positive F gap may still run rightward.
            if hi2 < hi:
                src = max(int(g[-1]) - go, int(f[-1]))
                if src > 0:
                    if ge_i == 0:
                        reach = hi - hi2
                    else:
                        reach = min(hi - hi2, (src - 1) // ge_i + 1)
                    if reach >= 1:
                        steps = np.arange(1, reach + 1, dtype=np.int64)
                        vals = src - steps * ge_i
                        vals = vals[vals > 0]
                        h_row[hi2 + 1 : hi2 + 1 + vals.size] = vals
                        cells += int(vals.size)

        # Boundary E-score: the value entering shaded cell (i+1, j) at
        # column j = i - w, derived from this row's H/E channels.
        bj = i - w
        if 0 <= bj < n_boundary and i + 1 <= tlen:
            boundary_e[bj] = max(
                0, max(int(h_row[bj]) - go, int(e_row[bj])) - ge_d
            )

        # Upper-boundary F: a (slightly conservative, hence still
        # admissible) cap on the F channel entering above-band cell
        # (i, i + w + 1), reconstructed from the row's H values.
        if 1 <= i < n_upper:
            seg_h = h_row[lo : hi + 1]
            cols = np.arange(lo, hi + 1, dtype=np.int64)
            best_src = int(np.max(seg_h + cols * ge_i)) if seg_h.size else 0
            boundary_f[i] = max(
                0, best_src - go - (i + w + 1) * ge_i
            )

        # Score accumulators (strict improvement => earliest position).
        row_slice = h_row[lo : hi + 1]
        if row_slice.size:
            best = int(row_slice.max())
            if best > lscore:
                best_j = lo + int(np.argmax(row_slice))
                lscore = best
                lpos = (i, best_j)
                max_off = max(max_off, abs(best_j - i))
        if hi == qlen and h_row[qlen] > gscore:
            gscore = int(h_row[qlen])
            gpos = i

        h_prev, h_row = h_row, h_prev
        e_prev, e_row = e_row, e_prev

        if prune:
            live = np.flatnonzero(h_prev > 0)
            if live.size == 0:
                if i < tlen:
                    terminated_early = True
                break
            beg = int(live[0])
            end = min(qlen, int(live[-1]) + 1)
        else:
            beg, end = 0, qlen

    return ExtensionResult(
        lscore=lscore,
        lpos=lpos,
        gscore=gscore,
        gpos=gpos,
        max_off=max_off,
        band=w,
        h0=h0,
        qlen=qlen,
        tlen=tlen,
        boundary_e=boundary_e,
        cells_computed=cells,
        terminated_early=terminated_early,
        boundary_f=boundary_f,
    )
