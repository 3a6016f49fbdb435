"""Anti-diagonal (wavefront) NumPy kernels.

The banded extension recurrence has a data dependence structure that
makes anti-diagonals the natural vector unit: every predecessor of
cell ``(i, j)`` — ``(i-1, j)`` for the E channel, ``(i, j-1)`` for the
F channel, ``(i-1, j-1)`` for the substitution — lies on diagonal
``d-1`` or ``d-2`` where ``d = i + j``.  A whole diagonal is therefore
data-parallel, which is exactly how SALoBa-style GPU aligners and the
systolic array of the paper's BSW cores schedule the fill.  This
module is the software rendition: the fill advances one diagonal per
step and vectorizes across **jobs x diagonal slots**, fusing the
batch dimension with the wavefront the way the accelerator fuses its
PE columns.

Layout.  Diagonal ``d`` holds band cells ``(i, d - i)`` for ``i`` in
``[i_lo(d), i_hi(d)]`` where the band ``|i - j| <= w`` clamps
``ceil((d-w)/2) <= i <= floor((d+w)/2)`` and the matrix clamps
``max(0, d - max_q) <= i <= min(max_t, d)``.  A cell's slot is
``s = i - i_lo(d)``; predecessors on earlier diagonals are reached by
shifting slot indices by the difference of the diagonals' ``i_lo``
values (:func:`_shift`).  All state for one diagonal is an
``(n_jobs, width)`` array, so every ufunc touches the whole batch.

Semantics are bit-identical to :func:`repro.align.banded.extend`
(``prune=False``) and :func:`repro.align.lockstep.extend_batch`,
including the boundary E/F channel captures and tie-breaking —
property-tested against both in ``tests/kernels/test_conformance.py``.
The backend's overlap entry points share the striped backend's
inter-sequence lockstep fill
(:func:`repro.align.overlapdp.overlap_batch_lockstep`).
"""

from __future__ import annotations

import numpy as np

from repro.align.banded import (
    ExtensionResult,
    check_batch_shapes,
    full_band_for,
)
from repro.align.overlapdp import OverlapResult, overlap_batch_lockstep
from repro.align.scoring import AffineGap
from repro.genome.sequence import AMBIGUOUS_CODE

_PAD = 64
"""Query pad code (outside the 3-bit alphabet, never equal to a base)."""

_NEG = -(10**15)
"""Sentinel for masked cells in max-reductions."""


def _shift(arr: np.ndarray, k: int, width: int) -> np.ndarray:
    """``out[:, s] = arr[:, s + k]``, zero-filled outside ``arr``.

    Aligns a predecessor diagonal's slots onto the current diagonal's:
    ``k`` is the difference of the two diagonals' ``i_lo`` values (plus
    the row offset of the dependence).  Zero fill is the dead-cell
    value, so out-of-band and out-of-matrix predecessors contribute
    nothing — the same convention as the row kernels' zero-filled
    arrays.
    """
    n = arr.shape[0]
    out = np.zeros((n, width), dtype=np.int64)
    lo = max(0, -k)
    hi = min(width, arr.shape[1] - k)
    if hi > lo:
        out[:, lo:hi] = arr[:, lo + k : hi + k]
    return out


def extend_batch(
    queries: list[np.ndarray],
    targets: list[np.ndarray],
    h0s: list[int],
    scoring: AffineGap,
    w: int | None = None,
) -> list[ExtensionResult]:
    """Anti-diagonal banded extension for a batch of jobs.

    Returns results in input order, each bit-identical to
    ``banded.extend(query, target, scoring, h0, w=w, prune=False)``
    except for the execution-shape fields (``cells_computed`` uses the
    lockstep formula; ``terminated_early`` is always ``False``) —
    exactly the contract of :func:`repro.align.lockstep.extend_batch`.
    Mismatched input list lengths raise
    :class:`~repro.align.banded.BatchShapeError`.
    """
    n = check_batch_shapes(queries, targets, h0s)
    if n == 0:
        return []
    for h0 in h0s:
        if h0 < 0:
            raise ValueError("h0 must be non-negative")

    qlens = np.array([len(q) for q in queries], dtype=np.int64)
    tlens = np.array([len(t) for t in targets], dtype=np.int64)
    max_q = int(qlens.max())
    max_t = int(tlens.max())
    if w is None:
        w = full_band_for(max_q, max_t)
    if w < 0:
        raise ValueError("band must be non-negative")

    go = scoring.gap_open
    ge_i = scoring.gap_extend_ins
    ge_d = scoring.gap_extend_del
    m = scoring.match
    x = scoring.mismatch

    qpad = np.full((n, max_q), _PAD, dtype=np.int64)
    tpad = np.full((n, max_t), _PAD - 1, dtype=np.int64)
    for k, (q, t) in enumerate(zip(queries, targets)):
        qpad[k, : len(q)] = q
        tpad[k, : len(t)] = t
    h0v = np.array(h0s, dtype=np.int64)

    # Per-row accumulators, finalized after the sweep: the in-band row
    # maximum (leftmost column on ties — columns arrive in increasing
    # diagonal order, so strict-improvement updates resolve ties the
    # same way the row kernels' argmax does) and the F-cap source
    # max(H + j*ge_i) the upper-boundary capture reads.
    row_best = np.zeros((n, max_t + 1), dtype=np.int64)
    row_argj = np.zeros((n, max_t + 1), dtype=np.int64)
    fsrc = np.full((n, max_t + 1), _NEG, dtype=np.int64)

    gscore = np.zeros(n, dtype=np.int64)
    gpos = np.full(n, -1, dtype=np.int64)

    n_bound = np.minimum(qlens, tlens - w - 1) + 1
    np.clip(n_bound, 0, None, out=n_bound)
    n_bound[tlens <= w] = 0
    boundary_e = np.zeros(
        (n, max(1, int(n_bound.max(initial=0)))), dtype=np.int64
    )
    n_upper = np.minimum(tlens, qlens - w - 1) + 1
    np.clip(n_upper, 0, None, out=n_upper)
    n_upper[qlens <= w] = 0
    boundary_f = np.zeros(
        (n, max(1, int(n_upper.max(initial=0)))), dtype=np.int64
    )
    has_upper = n_upper > 0
    boundary_f[has_upper, 0] = np.maximum(
        0, h0v[has_upper] - go - (w + 1) * ge_i
    )

    jobs_idx = np.arange(n)

    # Diagonal state, tagged with the diagonal it belongs to: empty
    # diagonals are skipped (w = 0 leaves every odd one without a band
    # cell), so a predecessor may be missing — its cells are then all
    # dead or out of band and contribute zeros.
    h_p1 = e_p1 = f_p1 = h_p2 = None
    i_lo_p1 = i_lo_p2 = 0
    d_p1 = d_p2 = -9

    for d in range(0, max_t + max_q + 1):
        i_lo = max(0, d - max_q, -((w - d) // 2) if d > w else 0)
        i_hi = min(max_t, d, (d + w) // 2)
        if i_lo > i_hi:
            continue
        width = i_hi - i_lo + 1
        i_cells = np.arange(i_lo, i_hi + 1, dtype=np.int64)
        j_cells = d - i_cells
        valid = (i_cells[None, :] <= tlens[:, None]) & (
            j_cells[None, :] <= qlens[:, None]
        )

        if d == 0:
            h_cur = h0v[:, None].copy()
            e_cur = np.zeros((n, 1), dtype=np.int64)
            f_cur = np.zeros((n, 1), dtype=np.int64)
        else:
            # E channel: vertical from (i-1, j) on diagonal d-1.
            # F channel: horizontal from (i, j-1) on diagonal d-1.
            if d_p1 == d - 1:
                up_h = _shift(h_p1, i_lo - 1 - i_lo_p1, width)
                up_e = _shift(e_p1, i_lo - 1 - i_lo_p1, width)
                left_h = _shift(h_p1, i_lo - i_lo_p1, width)
                left_f = _shift(f_p1, i_lo - i_lo_p1, width)
            else:
                up_h = np.zeros((n, width), dtype=np.int64)
                up_e = left_h = left_f = up_h
            e_cur = np.maximum(0, np.maximum(up_h - go, up_e) - ge_d)
            f_cur = np.maximum(0, np.maximum(left_h - go, left_f) - ge_i)

            # Substitution from (i-1, j-1) on diagonal d-2.  The
            # target slice is contiguous in i; the query slice runs
            # backward (j = d - i decreases as i grows).
            if d_p1 == d - 2:
                diag_src, diag_src_lo = h_p1, i_lo_p1
            elif d_p2 == d - 2:
                diag_src, diag_src_lo = h_p2, i_lo_p2
            else:
                diag_src, diag_src_lo = None, 0
            if diag_src is not None and i_hi >= 1 and d - i_lo >= 1:
                diag_h = _shift(diag_src, i_lo - 1 - diag_src_lo, width)
                tlo = max(i_lo, 1)
                tchars = np.full((n, width), _PAD - 1, dtype=np.int64)
                tchars[:, tlo - i_lo :] = tpad[:, tlo - 1 : i_hi]
                qchars = np.full((n, width), _PAD, dtype=np.int64)
                jhi = d - i_lo  # j of slot 0
                jlo = d - i_hi  # j of the last slot
                qlo = max(jlo, 1)
                # slots with j >= qlo: s <= d - qlo - i_lo.
                s_hi = d - qlo - i_lo
                qchars[:, : s_hi + 1] = qpad[:, qlo - 1 : jhi][:, ::-1]
                sub = np.where(
                    (tchars == qchars) & (tchars != AMBIGUOUS_CODE), m, -x
                )
                diag = np.where(diag_h > 0, diag_h + sub, 0)
            else:
                diag = np.zeros((n, width), dtype=np.int64)

            h_cur = np.maximum(np.maximum(diag, e_cur), f_cur)

            # Special cells override the generic recurrence.
            if i_lo == 0:
                # Row 0 (slot 0): the decaying init-row F gap.
                top = np.where(
                    d <= qlens, np.maximum(0, h0v - go - d * ge_i), 0
                )
                h_cur[:, 0] = top
                e_cur[:, 0] = 0
                f_cur[:, 0] = top
            if i_hi == d:
                # Column 0 (last slot): the init column, E := H as in
                # the row kernels.
                init = np.where(
                    d <= tlens, np.maximum(0, h0v - go - d * ge_d), 0
                )
                h_cur[:, -1] = init
                e_cur[:, -1] = init
                f_cur[:, -1] = 0

        h_cur[~valid] = 0
        e_cur[~valid] = 0
        f_cur[~valid] = 0

        # Row-max accumulators: each row appears once per diagonal.
        seg_best = row_best[:, i_lo : i_hi + 1]
        imp = h_cur > seg_best
        seg_best[imp] = h_cur[imp]
        seg_arg = row_argj[:, i_lo : i_hi + 1]
        seg_arg[imp] = np.broadcast_to(j_cells, imp.shape)[imp]

        # F-cap source: in-band cells contribute H + j*ge_i (dead
        # cells included, matching the row kernels).
        cand = np.where(valid, h_cur + j_cells[None, :] * ge_i, _NEG)
        seg_src = fsrc[:, i_lo : i_hi + 1]
        np.maximum(seg_src, cand, out=seg_src)

        # Semi-global capture at column qlen: cell (d - qlen, qlen).
        gi = d - qlens
        g_ok = (gi >= i_lo) & (gi <= i_hi) & (gi <= tlens)
        if g_ok.any():
            rows = jobs_idx[g_ok]
            vals = h_cur[rows, gi[g_ok] - i_lo]
            better = vals > gscore[rows]
            rows = rows[better]
            gscore[rows] = vals[better]
            gpos[rows] = gi[g_ok][better]

        # Boundary-E capture: the band's lower-edge cell (bj + w, bj)
        # sits on diagonal d = 2*bj + w.
        if d >= w and (d - w) % 2 == 0:
            bj = (d - w) // 2
            bi = bj + w
            if i_lo <= bi <= i_hi:
                s = bi - i_lo
                cap = bj < n_bound
                if cap.any():
                    vals = np.maximum(
                        0,
                        np.maximum(h_cur[:, s] - go, e_cur[:, s]) - ge_d,
                    )
                    boundary_e[cap, bj] = vals[cap]

        h_p2, i_lo_p2, d_p2 = h_p1, i_lo_p1, d_p1
        h_p1, e_p1, f_p1, i_lo_p1, d_p1 = h_cur, e_cur, f_cur, i_lo, d

    # Upper-boundary F caps from the accumulated row sources.
    max_upper = int(n_upper.max(initial=0))
    if max_upper > 1:
        iu = np.arange(max_upper, dtype=np.int64)
        mask = (iu[None, :] >= 1) & (iu[None, :] < n_upper[:, None])
        caps = np.maximum(
            0, fsrc[:, :max_upper] - go - (iu[None, :] + w + 1) * ge_i
        )
        boundary_f[:, :max_upper][mask] = caps[mask]

    # Degenerate band: row 0's boundary-E capture at (1, 0) (see the
    # matching special case in the row kernels).
    if w == 0:
        first = n_bound > 0
        boundary_e[first, 0] = np.maximum(0, h0v[first] - go - ge_d)

    # Local-score post-pass: the strict-improvement row scan,
    # vectorized across jobs (same accumulator semantics as the
    # scalar fullmatrix.scan_scores).
    running = np.maximum.accumulate(
        np.maximum(row_best, h0v[:, None]), axis=1
    )
    prev = np.empty_like(running)
    prev[:, 0] = h0v
    prev[:, 1:] = running[:, :-1]
    improved = row_best > prev
    any_imp = improved.any(axis=1)
    last = max_t - np.argmax(improved[:, ::-1], axis=1)
    last = np.where(any_imp, last, 0)
    lscore = np.where(any_imp, row_best[jobs_idx, last], h0v)
    lpos_i = np.where(any_imp, last, 0)
    lpos_j = np.where(any_imp, row_argj[jobs_idx, last], 0)
    rows_i = np.arange(max_t + 1, dtype=np.int64)
    offs = np.where(improved, np.abs(row_argj - rows_i[None, :]), 0)
    max_off = offs.max(axis=1)

    out = []
    for k in range(n):
        out.append(
            ExtensionResult(
                lscore=int(lscore[k]),
                lpos=(int(lpos_i[k]), int(lpos_j[k])),
                gscore=int(gscore[k]),
                gpos=int(gpos[k]),
                max_off=int(max_off[k]),
                band=w,
                h0=int(h0s[k]),
                qlen=int(qlens[k]),
                tlen=int(tlens[k]),
                boundary_e=boundary_e[k, : n_bound[k]].copy(),
                boundary_f=boundary_f[k, : n_upper[k]].copy(),
                cells_computed=int(
                    min(2 * w + 1, qlens[k] + 1) * tlens[k]
                ),
                terminated_early=False,
            )
        )
    return out


def extend(
    query: np.ndarray,
    target: np.ndarray,
    scoring: AffineGap,
    h0: int,
    w: int | None = None,
) -> ExtensionResult:
    """Single-job wavefront extension (the batch kernel with n=1)."""
    return extend_batch([np.asarray(query)], [np.asarray(target)],
                        [h0], scoring, w=w)[0]


class WavefrontKernel:
    """The anti-diagonal NumPy backend (``--kernel numpy``)."""

    name = "numpy"

    def extend(
        self,
        query: np.ndarray,
        target: np.ndarray,
        scoring: AffineGap,
        h0: int,
        w: int | None = None,
    ) -> ExtensionResult:
        """One banded extension through the wavefront kernel."""
        return extend(query, target, scoring, h0, w=w)

    def extend_batch(
        self,
        queries: list[np.ndarray],
        targets: list[np.ndarray],
        h0s: list[int],
        scoring: AffineGap,
        w: int | None = None,
    ) -> list[ExtensionResult]:
        """A batch of extensions fused across jobs x diagonal slots."""
        return extend_batch(queries, targets, h0s, scoring, w=w)

    def overlap(
        self,
        query: np.ndarray,
        target: np.ndarray,
        scoring: AffineGap,
        w: int | None = None,
    ) -> OverlapResult:
        """One banded overlap fill (the lockstep kernel with n = 1)."""
        return overlap_batch_lockstep(
            [np.asarray(query)], [np.asarray(target)], scoring, w=w
        )[0]

    def overlap_batch(
        self,
        queries: list[np.ndarray],
        targets: list[np.ndarray],
        scoring: AffineGap,
        w: int | None = None,
    ) -> list[OverlapResult]:
        """A shape-bucketed batch of overlap fills in lockstep."""
        return overlap_batch_lockstep(queries, targets, scoring, w=w)
