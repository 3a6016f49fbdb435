"""Banded global (Needleman-Wunsch, affine gap) alignment.

The second alignment mode SeedEx targets (paper footnote 1): fully
end-to-end alignment, the kernel minimap2-style long-read aligners use
to *fill* the gaps between chained seeds (paper Section VII-D, "Long
Reads").  Unlike extension mode there are no dead cells — scores may
go negative — and the only score of interest is the corner
``H[tlen][qlen]``.

For the global optimality checks the kernel records, along both band
edges, the exact channel values a band-leaving path must carry:

* ``lower_e[j]`` — the E value entering below-band cell ``(j+w+1, j)``;
* ``upper_f[i]`` — the F value entering above-band cell ``(i, i+w+1)``.

Bit-equivalence with the dense oracle
(:func:`repro.align.globalbatch.fill_global_scalar` at full band) is
property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.align.fullmatrix import NEG_INF
from repro.align.scoring import AffineGap
from repro.genome.sequence import AMBIGUOUS_CODE


@dataclass(frozen=True)
class GlobalResult:
    """One banded global alignment and its check inputs."""

    score: int
    band: int
    h0: int
    qlen: int
    tlen: int
    lower_e: np.ndarray
    upper_f: np.ndarray
    cells_computed: int

    @property
    def is_full_band(self) -> bool:
        """True when the band covered every cell of the matrix."""
        return self.band >= max(self.qlen, self.tlen)


def lower_boundary_length(qlen: int, tlen: int, band: int) -> int:
    """Columns on the below-band region's top boundary (as extension)."""
    if tlen <= band:
        return 0
    return min(qlen, tlen - band - 1) + 1


def upper_boundary_length(qlen: int, tlen: int, band: int) -> int:
    """Rows on the above-band region's left boundary (the mirror)."""
    if qlen <= band:
        return 0
    return min(tlen, qlen - band - 1) + 1


def global_align(
    query: np.ndarray,
    target: np.ndarray,
    scoring: AffineGap,
    h0: int = 0,
    w: int | None = None,
) -> GlobalResult:
    """Banded global alignment score with boundary-channel capture.

    ``w=None`` computes the full matrix.  The configuration is
    rejected when the corner lies outside the band (no global path
    would fit).
    """
    query = np.asarray(query, dtype=np.int64)
    target = np.asarray(target, dtype=np.int64)
    qlen = len(query)
    tlen = len(target)
    if w is None:
        w = max(qlen, tlen)
    if w < 0:
        raise ValueError("band must be non-negative")
    if abs(tlen - qlen) > w:
        raise ValueError(
            "global endpoint outside the band; increase the band"
        )
    go = scoring.gap_open
    ge_i = scoring.gap_extend_ins
    ge_d = scoring.gap_extend_del
    m = scoring.match
    x = scoring.mismatch

    n_lower = lower_boundary_length(qlen, tlen, w)
    n_upper = upper_boundary_length(qlen, tlen, w)
    lower_e = np.full(n_lower, NEG_INF, dtype=np.int64)
    upper_f = np.full(n_upper, NEG_INF, dtype=np.int64)

    h_prev = np.full(qlen + 1, NEG_INF, dtype=np.int64)
    e_prev = np.full(qlen + 1, NEG_INF, dtype=np.int64)
    h_prev[0] = h0
    hi0 = min(qlen, w)
    if hi0 >= 1:
        j_idx = np.arange(1, hi0 + 1, dtype=np.int64)
        h_prev[1 : hi0 + 1] = h0 - go - j_idx * ge_i
    cells = hi0 + 1

    # Row 0's upper-edge F capture: F entering cell (0, w+1) comes from
    # extending the initialization gap.
    if n_upper > 0:
        upper_f[0] = h0 - go - (w + 1) * ge_i
    if n_lower > 0 and w == 0:
        # Degenerate band: the below-region boundary starts at row 1.
        lower_e[0] = h0 - go - ge_d

    h_row = np.full(qlen + 1, NEG_INF, dtype=np.int64)
    e_row = np.full(qlen + 1, NEG_INF, dtype=np.int64)
    for i in range(1, tlen + 1):
        lo = max(0, i - w)
        hi = min(qlen, i + w)
        h_row.fill(NEG_INF)
        e_row.fill(NEG_INF)

        if lo == 0 and i <= w:
            h_row[0] = h0 - go - i * ge_d
            e_row[0] = h_row[0]

        lo2 = max(lo, 1)
        if lo2 <= hi:
            seg = slice(lo2, hi + 1)
            e_row[seg] = np.maximum(h_prev[seg] - go, e_prev[seg]) - ge_d
            tc = target[i - 1]
            # N never matches anything, itself included.
            sub = np.where(
                (tc == query[lo2 - 1 : hi]) & (tc != AMBIGUOUS_CODE), m, -x
            )
            diag = h_prev[lo2 - 1 : hi] + sub
            g = np.maximum(diag, e_row[seg])
            # F scan: the only possible left influx into the segment is
            # the init column (lo == 0); out-of-band columns carry none.
            src = np.empty(hi - lo2 + 2, dtype=np.int64)
            src[0] = h_row[lo2 - 1] if lo2 - 1 == 0 and i <= w else NEG_INF
            src[1:] = g
            cols = np.arange(lo2 - 1, hi + 1, dtype=np.int64)
            run = np.maximum.accumulate(src - go + cols * ge_i)
            f = run[:-1] - cols[1:] * ge_i
            h_row[seg] = np.maximum(g, f)
            cells += hi - lo2 + 1

        # Boundary captures.
        bj = i - w
        if 0 <= bj < n_lower and i + 1 <= tlen:
            lower_e[bj] = max(
                int(h_row[bj]) - go, int(e_row[bj])
            ) - ge_d
        bi = i
        if bi < n_upper and i + w + 1 <= qlen:
            # F entering (i, i+w+1) extends from band cell (i, i+w).
            f_at_edge = _f_value_at(h_row, i, i + w, go, ge_i, w)
            upper_f[bi] = f_at_edge

        h_prev, h_row = h_row, h_prev
        e_prev, e_row = e_row, e_prev

    score = int(h_prev[qlen])
    return GlobalResult(
        score=score,
        band=w,
        h0=h0,
        qlen=qlen,
        tlen=tlen,
        lower_e=lower_e,
        upper_f=upper_f,
        cells_computed=cells,
    )


def _f_value_at(
    h_row: np.ndarray, i: int, j_edge: int, go: int, ge_i: int, w: int
) -> int:
    """F entering the cell right of ``(i, j_edge)``.

    Reconstructed from the row's H values: the F channel into column
    ``j_edge + 1`` is the best ``H[i][k] - go - (j_edge + 1 - k)*ge_i``
    over in-band columns ``k <= j_edge``.
    """
    lo = max(0, i - w)
    best = NEG_INF
    for k in range(lo, j_edge + 1):
        if h_row[k] <= NEG_INF // 2:
            continue
        cand = int(h_row[k]) - go - (j_edge + 1 - k) * ge_i
        if cand > best:
            best = cand
    return best
