"""Dense dynamic-programming oracle.

This module is the single source of truth for the DP semantics used
throughout the repository (see DESIGN.md, "DP semantics").  It fills the
whole ``(tlen+1) x (qlen+1)`` matrix with explicit loops and keeps the
H/E/F channels, so it is slow but obviously correct.  The production
kernels in :mod:`repro.align.banded` are tested for bit-equivalence
against this oracle.

Extension mode (the BWA-MEM ``ksw_extend`` convention):

* rows ``i = 0..tlen`` index the reference/target, columns
  ``j = 0..qlen`` the query; cell ``(0, 0)`` carries the seed score
  ``h0``;
* a cell with ``H <= 0`` is *dead* — scores never restart from zero, so
  every positive score traces back to the seed at the origin;
* ``lscore`` is the best score over all cells (the local / soft-clip
  extension score) and ``gscore`` the best score in the last column
  (query fully consumed; the semi-global "to-end" score);
* ties break toward the smallest ``i``, then smallest ``j`` (row-major
  first strict improvement), matching the accelerator's accumulators.

Global mode is plain Needleman-Wunsch with affine gaps: no dead cells,
scores may go negative, and the score of interest is ``H[tlen][qlen]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.align.cigar import Cigar
from repro.align.scoring import AffineGap

NEG_INF = -(10**9)
"""Effectively minus infinity for integer DP (safe from overflow)."""


@dataclass(frozen=True)
class DenseMatrices:
    """Full H/E/F channels plus derived scores for one extension."""

    h: np.ndarray
    e: np.ndarray
    f: np.ndarray
    lscore: int
    lpos: tuple[int, int]
    gscore: int
    gpos: int
    max_off: int

    @property
    def tlen(self) -> int:
        """Target (reference) length of this matrix."""
        return self.h.shape[0] - 1

    @property
    def qlen(self) -> int:
        """Query length of this matrix."""
        return self.h.shape[1] - 1


def fill_extension(
    query: np.ndarray,
    target: np.ndarray,
    scoring: AffineGap,
    h0: int,
) -> DenseMatrices:
    """Fill the full extension matrix (reference oracle, no pruning).

    ``query`` and ``target`` are encoded base arrays.  ``h0`` is the
    incoming seed score; it must be positive for any extension to be
    live.
    """
    if h0 < 0:
        raise ValueError("h0 must be non-negative")
    qlen = len(query)
    tlen = len(target)
    go = scoring.gap_open
    ge_i = scoring.gap_extend_ins
    ge_d = scoring.gap_extend_del
    m = scoring.match

    h = np.zeros((tlen + 1, qlen + 1), dtype=np.int64)
    e = np.zeros((tlen + 1, qlen + 1), dtype=np.int64)
    f = np.zeros((tlen + 1, qlen + 1), dtype=np.int64)

    h[0][0] = h0
    for j in range(1, qlen + 1):
        f[0][j] = max(0, h0 - go - j * ge_i)
        h[0][j] = f[0][j]
    for i in range(1, tlen + 1):
        e[i][0] = max(0, h0 - go - i * ge_d)
        h[i][0] = e[i][0]

    for i in range(1, tlen + 1):
        for j in range(1, qlen + 1):
            diag = 0
            if h[i - 1][j - 1] > 0:
                diag = h[i - 1][j - 1] + scoring.substitution(
                    int(target[i - 1]), int(query[j - 1])
                )
            e[i][j] = max(0, max(h[i - 1][j] - go, e[i - 1][j]) - ge_d)
            f[i][j] = max(0, max(h[i][j - 1] - go, f[i][j - 1]) - ge_i)
            h[i][j] = max(diag, e[i][j], f[i][j], 0)

    lscore, lpos, gscore, gpos, max_off = scan_scores(h, h0, qlen, m)
    return DenseMatrices(h, e, f, lscore, lpos, gscore, gpos, max_off)


def _substitution_table(
    scoring: AffineGap, max_code: int
) -> np.ndarray:
    """Dense ``(code, code) -> score`` lookup built from the scoring
    scheme's own :meth:`~repro.align.scoring.AffineGap.substitution`,
    so vectorized fills cannot drift from the scalar oracle."""
    size = max_code + 1
    table = np.empty((size, size), dtype=np.int64)
    for a in range(size):
        for b in range(size):
            table[a, b] = scoring.substitution(a, b)
    return table


def _scan_scores_vectorized(
    h: np.ndarray, h0: int
) -> tuple[int, tuple[int, int], int, int, int]:
    """Vectorized :func:`scan_scores` (same accumulator semantics).

    Each row contributes at most one update — its max at the first
    column achieving it, taken only when it strictly beats the running
    best — exactly like the scalar loop, so ties resolve identically.
    """
    qlen = h.shape[1] - 1
    row_best = h.max(axis=1)
    row_arg = h.argmax(axis=1)
    running = np.maximum.accumulate(np.maximum(row_best, h0))
    prev = np.empty_like(running)
    prev[0] = h0
    prev[1:] = running[:-1]
    improved = np.flatnonzero(row_best > prev)
    if improved.size:
        last = int(improved[-1])
        lscore = int(row_best[last])
        lpos = (last, int(row_arg[last]))
        max_off = int(np.abs(row_arg[improved] - improved).max())
    else:
        lscore, lpos, max_off = h0, (0, 0), 0
    col = h[:, qlen]
    gscore = int(col.max())
    if gscore > 0:
        gpos = int(col.argmax())
    else:
        gscore, gpos = 0, -1
    return lscore, lpos, gscore, gpos, max_off


TRACEBACK_CHUNK_CELLS = 100_000
"""Padded cells per lockstep fill chunk (3 x int64 channels each).

The one bound on traceback memory: the wave scheduler fills a chunk,
walks its winners and drops it, so a window's peak does not grow with
its read count.
"""


def chunk_spans(
    queries: list[np.ndarray],
    targets: list[np.ndarray],
    max_cells: int | None = None,
) -> list[tuple[int, int]]:
    """``(start, stop)`` job spans of at most ``max_cells`` padded cells.

    Jobs stay in order; a span always holds at least one job, so a job
    larger than the bound is filled alone.  ``None`` means
    :data:`TRACEBACK_CHUNK_CELLS`.
    """
    if max_cells is None:
        max_cells = TRACEBACK_CHUNK_CELLS
    n = len(queries)
    spans: list[tuple[int, int]] = []
    start = 0
    while start < n:
        stop = start + 1
        max_q = len(queries[start]) + 1
        max_t = len(targets[start]) + 1
        while stop < n:
            grow_q = max(max_q, len(queries[stop]) + 1)
            grow_t = max(max_t, len(targets[stop]) + 1)
            if (stop + 1 - start) * grow_q * grow_t > max_cells:
                break
            max_q, max_t = grow_q, grow_t
            stop += 1
        spans.append((start, stop))
        start = stop
    return spans


def fill_extension_batch(
    queries: list[np.ndarray],
    targets: list[np.ndarray],
    scoring: AffineGap,
    h0s: list[int],
    max_cells: int | None = None,
) -> list[DenseMatrices]:
    """Fill many extension matrices in lockstep (host traceback wave).

    The paper's host runs traceback for each read's winning extension
    only; the batched pipeline collects those winners into a wave and
    fills their dense matrices together, vectorizing across jobs x
    columns.  Per-job H/E/F channels and derived scores are
    bit-identical to :func:`fill_extension` (property-tested in
    ``tests/align/test_fullmatrix_batch.py``); jobs are chunked by
    :func:`chunk_spans` so no more than ``max_cells`` padded cells are
    in flight at once.  The returned channels are views into their
    chunk's arrays: drop them to release the chunk.
    """
    n = len(queries)
    if not (n == len(targets) == len(h0s)):
        raise ValueError("queries, targets, h0s must align")
    out: list[DenseMatrices] = []
    for start, stop in chunk_spans(queries, targets, max_cells):
        out.extend(
            _fill_chunk(
                queries[start:stop],
                targets[start:stop],
                scoring,
                h0s[start:stop],
            )
        )
    return out


def _fill_chunk(
    queries: list[np.ndarray],
    targets: list[np.ndarray],
    scoring: AffineGap,
    h0s: list[int],
) -> list[DenseMatrices]:
    """One lockstep fill over jobs padded to a shared matrix shape.

    Padded cells sit strictly right of / below every job's real
    matrix, and the recurrence only looks left and up, so they can
    never influence a real cell; each job's channels are sliced back
    out at the end.
    """
    for h0 in h0s:
        if h0 < 0:
            raise ValueError("h0 must be non-negative")
    n = len(queries)
    qlens = np.array([len(q) for q in queries], dtype=np.int64)
    tlens = np.array([len(t) for t in targets], dtype=np.int64)
    max_q = int(qlens.max())
    max_t = int(tlens.max())
    go = scoring.gap_open
    ge_i = scoring.gap_extend_ins
    ge_d = scoring.gap_extend_del

    qpad = np.zeros((n, max(1, max_q)), dtype=np.int64)
    tpad = np.zeros((n, max(1, max_t)), dtype=np.int64)
    for k, (q, t) in enumerate(zip(queries, targets)):
        qpad[k, : len(q)] = q
        tpad[k, : len(t)] = t
    max_code = int(max(qpad.max(initial=0), tpad.max(initial=0)))
    sub_table = _substitution_table(scoring, max_code)
    h0v = np.array(h0s, dtype=np.int64)

    big_h = np.zeros((n, max_t + 1, max_q + 1), dtype=np.int64)
    big_e = np.zeros((n, max_t + 1, max_q + 1), dtype=np.int64)
    big_f = np.zeros((n, max_t + 1, max_q + 1), dtype=np.int64)

    cols = np.arange(max_q + 1, dtype=np.int64)
    if max_q:
        row0 = np.maximum(0, h0v[:, None] - go - cols[None, 1:] * ge_i)
        big_f[:, 0, 1:] = row0
        big_h[:, 0, 1:] = row0
    big_h[:, 0, 0] = h0v
    if max_t:
        rows = np.arange(1, max_t + 1, dtype=np.int64)
        col0 = np.maximum(0, h0v[:, None] - go - rows[None, :] * ge_d)
        big_e[:, 1:, 0] = col0
        big_h[:, 1:, 0] = col0

    for i in range(1, max_t + 1):
        h_prev = big_h[:, i - 1, :]
        e_prev = big_e[:, i - 1, :]
        init = big_h[:, i, 0]

        e_row = np.maximum(0, np.maximum(h_prev - go, e_prev) - ge_d)
        e_row[:, 0] = init

        # G = the non-F part of H: diagonal (dead predecessors stay
        # dead) vs the E channel; column 0 is the init value.
        sub = sub_table[tpad[:, i - 1][:, None], qpad]
        g = np.empty((n, max_q + 1), dtype=np.int64)
        g[:, 0] = init
        g[:, 1:] = np.maximum(
            np.where(h_prev[:, :-1] > 0, h_prev[:, :-1] + sub, 0),
            e_row[:, 1:],
        )

        # F channel as a running max-plus scan over G.  Exact, not
        # just dominant: f[j] = max(0, max_{k<j} G[k] - go - (j-k)*ge)
        # is the closed form of the per-cell recurrence because the
        # 0-clamp and the H-vs-F max both collapse (see banded.extend).
        run = np.maximum.accumulate(g - go + cols[None, :] * ge_i, axis=1)
        f_row = big_f[:, i, :]
        f_row[:, 1:] = np.maximum(0, run[:, :-1] - cols[None, 1:] * ge_i)
        f_row[:, 0] = 0

        h_row = np.maximum(np.maximum(g, f_row), 0)
        h_row[:, 0] = init
        big_e[:, i, :] = e_row
        big_h[:, i, :] = h_row

    out: list[DenseMatrices] = []
    for k in range(n):
        tl = int(tlens[k])
        ql = int(qlens[k])
        h = big_h[k, : tl + 1, : ql + 1]
        e = big_e[k, : tl + 1, : ql + 1]
        f = big_f[k, : tl + 1, : ql + 1]
        lscore, lpos, gscore, gpos, max_off = _scan_scores_vectorized(
            h, int(h0v[k])
        )
        out.append(
            DenseMatrices(h, e, f, lscore, lpos, gscore, gpos, max_off)
        )
    return out


def scan_scores(
    h: np.ndarray, h0: int, qlen: int, match: int
) -> tuple[int, tuple[int, int], int, int, int]:
    """Derive lscore/gscore/positions with the canonical tie-breaking.

    Row-major scan; updates only on strict improvement, so ties resolve
    to the smallest ``i`` then smallest ``j``.  ``max_off`` tracks the
    largest diagonal offset ``|j - i|`` at which the running local best
    improved — the same band-demand proxy BWA-MEM's kernel reports.
    """
    tlen = h.shape[0] - 1
    lscore = h0
    lpos = (0, 0)
    gscore = 0
    gpos = -1
    max_off = 0
    for i in range(tlen + 1):
        row = h[i]
        best_j = -1
        best = lscore
        for j in range(qlen + 1):
            if row[j] > best:
                best = int(row[j])
                best_j = j
        if best_j >= 0:
            lscore = best
            lpos = (i, best_j)
            max_off = max(max_off, abs(best_j - i))
        if row[qlen] > gscore:
            gscore = int(row[qlen])
            gpos = i
    return lscore, lpos, gscore, gpos, max_off


def fill_global(
    query: np.ndarray,
    target: np.ndarray,
    scoring: AffineGap,
    h0: int = 0,
) -> np.ndarray:
    """Fill the full global (Needleman-Wunsch, affine gap) matrix.

    Returns the H channel; the global score is ``h[tlen][qlen]``.
    Unreachable E/F states are ``NEG_INF``.
    """
    qlen = len(query)
    tlen = len(target)
    go = scoring.gap_open
    ge_i = scoring.gap_extend_ins
    ge_d = scoring.gap_extend_del

    h = np.full((tlen + 1, qlen + 1), NEG_INF, dtype=np.int64)
    e = np.full((tlen + 1, qlen + 1), NEG_INF, dtype=np.int64)
    f = np.full((tlen + 1, qlen + 1), NEG_INF, dtype=np.int64)

    h[0][0] = h0
    for j in range(1, qlen + 1):
        f[0][j] = h0 - go - j * ge_i
        h[0][j] = f[0][j]
    for i in range(1, tlen + 1):
        e[i][0] = h0 - go - i * ge_d
        h[i][0] = e[i][0]

    for i in range(1, tlen + 1):
        for j in range(1, qlen + 1):
            diag = h[i - 1][j - 1] + scoring.substitution(
                int(target[i - 1]), int(query[j - 1])
            )
            e[i][j] = max(h[i - 1][j] - go, e[i - 1][j]) - ge_d
            f[i][j] = max(h[i][j - 1] - go, f[i][j - 1]) - ge_i
            h[i][j] = max(diag, e[i][j], f[i][j])

    return h


def traceback_global(
    query: np.ndarray,
    target: np.ndarray,
    scoring: AffineGap,
    h0: int = 0,
) -> Cigar:
    """Trace the optimal *global* path from corner to corner.

    Used by the long-read fill aligner: the gap between two chained
    seeds is globally aligned and its trace stitched into the read's
    CIGAR.  Dense fill — fine for the short inter-seed gaps.
    """
    qlen = len(query)
    tlen = len(target)
    go = scoring.gap_open
    ge_i = scoring.gap_extend_ins
    ge_d = scoring.gap_extend_del

    h = np.full((tlen + 1, qlen + 1), NEG_INF, dtype=np.int64)
    e = np.full((tlen + 1, qlen + 1), NEG_INF, dtype=np.int64)
    f = np.full((tlen + 1, qlen + 1), NEG_INF, dtype=np.int64)
    h[0][0] = h0
    for j in range(1, qlen + 1):
        f[0][j] = h0 - go - j * ge_i
        h[0][j] = f[0][j]
    for i in range(1, tlen + 1):
        e[i][0] = h0 - go - i * ge_d
        h[i][0] = e[i][0]
    for i in range(1, tlen + 1):
        for j in range(1, qlen + 1):
            diag = h[i - 1][j - 1] + scoring.substitution(
                int(target[i - 1]), int(query[j - 1])
            )
            e[i][j] = max(h[i - 1][j] - go, e[i - 1][j]) - ge_d
            f[i][j] = max(h[i][j - 1] - go, f[i][j - 1]) - ge_i
            h[i][j] = max(diag, e[i][j], f[i][j])

    ops: list[tuple[int, str]] = []
    i, j = tlen, qlen
    state = "H"
    while i > 0 or j > 0:
        if state == "H":
            cur = h[i][j]
            if i > 0 and j > 0:
                sub = scoring.substitution(int(target[i - 1]), int(query[j - 1]))
                if cur == h[i - 1][j - 1] + sub:
                    ops.append((1, "M"))
                    i -= 1
                    j -= 1
                    continue
            if i > 0 and cur == e[i][j]:
                state = "E"
                continue
            if j > 0 and cur == f[i][j]:
                state = "F"
                continue
            raise AssertionError("broken global traceback")
        if state == "E":
            ops.append((1, "D"))
            if i == 1 or e[i][j] == h[i - 1][j] - go - ge_d:
                state = "H"
            i -= 1
            continue
        ops.append((1, "I"))
        if j == 1 or f[i][j] == h[i][j - 1] - go - ge_i:
            state = "H"
        j -= 1

    ops.reverse()
    return Cigar.from_ops(ops)


def traceback_extension(
    query: np.ndarray,
    target: np.ndarray,
    scoring: AffineGap,
    h0: int,
    end: tuple[int, int],
) -> Cigar:
    """Trace the optimal path from the origin to ``end = (i, j)``.

    The paper performs traceback on the host, once per read, for the
    winning extension only (Section II-A); this dense implementation is
    that host-side step.  The trace covers query ``[0, j)`` and target
    ``[0, i)``; any unconsumed query suffix is the caller's to soft-clip.
    """
    mats = fill_extension(query, target, scoring, h0)
    return traceback_path(mats, query, target, scoring, end)


def traceback_path(
    mats: DenseMatrices,
    query: np.ndarray,
    target: np.ndarray,
    scoring: AffineGap,
    end: tuple[int, int],
) -> Cigar:
    """Walk an already-filled matrix from the origin to ``end``.

    Split out of :func:`traceback_extension` so the batched pipeline
    can fill a whole wave of winners' matrices in lockstep
    (:func:`fill_extension_batch`) and then walk each one here.
    """
    i, j = end
    if not (0 <= i <= mats.tlen and 0 <= j <= mats.qlen):
        raise ValueError("traceback endpoint out of range")
    if mats.h[i][j] <= 0:
        raise ValueError("cannot trace back from a dead cell")
    go = scoring.gap_open
    ge_i = scoring.gap_extend_ins
    ge_d = scoring.gap_extend_del

    ops: list[tuple[int, str]] = []
    state = "H"
    while i > 0 or j > 0:
        if state == "H":
            cur = mats.h[i][j]
            if i > 0 and j > 0 and mats.h[i - 1][j - 1] > 0:
                sub = scoring.substitution(int(target[i - 1]), int(query[j - 1]))
                if cur == mats.h[i - 1][j - 1] + sub:
                    ops.append((1, "M"))
                    i -= 1
                    j -= 1
                    continue
            if i > 0 and cur == mats.e[i][j]:
                state = "E"
                continue
            if j > 0 and cur == mats.f[i][j]:
                state = "F"
                continue
            raise AssertionError("broken traceback: no predecessor matches")
        if state == "E":
            ops.append((1, "D"))
            prev_from_h = mats.h[i - 1][j] - go - ge_d
            if mats.e[i][j] == prev_from_h:
                state = "H"
            i -= 1
            continue
        # state == "F"
        ops.append((1, "I"))
        prev_from_h = mats.h[i][j - 1] - go - ge_i
        if mats.f[i][j] == prev_from_h:
            state = "H"
        j -= 1

    ops.reverse()
    return Cigar.from_ops(ops)
