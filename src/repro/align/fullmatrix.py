"""Dense dynamic-programming oracle and the direction-bit traceback.

This module is the single source of truth for the DP semantics used
throughout the repository (see DESIGN.md, "DP semantics").
:func:`fill_extension` is the oracle: explicit loops over the whole
``(tlen+1) x (qlen+1)`` matrix, H/E/F channels kept — slow but
obviously correct; :mod:`repro.align.banded` is tested bit-equivalent.

Traceback is *bits + one walker, two boundary policies*:
:func:`~repro.align.lockstep.fill_direction_bits` runs the one
lockstep sweep and keeps one ``uint8`` direction code per cell instead
of three matrices, and :func:`walk_direction_bits` reads the codes
back from an endpoint.  The policies differ only in their *floor* — a
cell at or below it is dead:

* :data:`~repro.align.lockstep.LOCAL_EXTEND` (floor 0; BWA-MEM's
  ``ksw_extend`` convention): rows ``i = 0..tlen`` index the
  reference/target, columns ``j = 0..qlen`` the query; cell ``(0, 0)``
  carries the seed score ``h0``; scores never restart from zero, so
  every positive score traces back to the seed at the origin.
  ``lscore`` is the best score over all cells (local / soft-clip),
  ``gscore`` the best in the last column (query consumed; semi-global
  "to-end"); ties break toward the smallest ``i``, then smallest
  ``j``, like the accelerator's accumulators;
* :data:`~repro.align.lockstep.GLOBAL` (floor ``NEG_INF``):
  Needleman-Wunsch with affine gaps — scores may go negative, only
  out-of-band cells are dead, and the score of interest is
  ``H[tlen][qlen]``.

The walker that re-derives predecessors from dense H/E/F survives as
the oracle the codes are tested against (:func:`traceback_path` given
:class:`DenseMatrices`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from repro.align.cigar import Cigar
from repro.align.lockstep import (
    DIAG,
    E_OPEN,
    F_OPEN,
    GLOBAL,
    H_IS_E,
    H_IS_F,
    LIVE,
    LOCAL_EXTEND,
    fill_direction_bits,
)
from repro.align.scoring import AffineGap


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


def fill_extension_batch(
    queries: list[np.ndarray],
    targets: list[np.ndarray],
    scoring: AffineGap,
    h0s: list[int],
) -> list[np.ndarray]:
    """Fill one bucket of extension jobs in lockstep (host traceback).

    The batched pipeline collects each read's winning extension into a
    wave, clips it to its resolved endpoint, buckets the wave
    (:func:`~repro.align.lockstep.plan_buckets`) and fills each bucket
    here.  Walking job ``k``'s codes (:func:`traceback_path`) gives the
    dense oracle's CIGAR, tie for tie
    (``tests/align/test_fullmatrix_batch.py``).
    Each result is the job's ``(tlen+1, qlen+1)`` view into the
    bucket's array: drop them all to release it.
    """
    if not (len(queries) == len(targets) == len(h0s)):
        raise ValueError("queries, targets, h0s must align")
    if any(h0 < 0 for h0 in h0s):
        raise ValueError("h0 must be non-negative")
    if not queries:
        return []
    codes, _, _ = fill_direction_bits(
        queries, targets, scoring, h0s, LOCAL_EXTEND
    )
    return [
        codes[: len(t) + 1, k, : len(q) + 1]
        for k, (q, t) in enumerate(zip(queries, targets))
    ]


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


def walk_direction_bits(codes: np.ndarray, end: tuple[int, int]) -> Cigar:
    """Read one job's direction codes back from ``end`` to the origin.

    The one walker.  Its tie order is frozen in the codes: in state H,
    diagonal before E before F; in a gap state, back to H exactly where
    the gap was opened from H.
    """
    i, j = end
    stride = j + 1
    flat = codes[: i + 1, :stride].tobytes()
    pos = i * stride + j
    path: list[str] = []
    state = "H"
    while pos:
        code = flat[pos]
        if state == "H":
            if code & DIAG:
                path.append("M")
                pos -= stride + 1
            elif code & H_IS_E:
                state = "E"
            elif code & H_IS_F:
                state = "F"
            else:
                raise AssertionError("broken traceback: no predecessor")
        elif state == "E":
            path.append("D")
            if code & E_OPEN:
                state = "H"
            pos -= stride
        else:
            path.append("I")
            if code & F_OPEN:
                state = "H"
            pos -= 1
    path.reverse()
    return Cigar.from_ops([(len(list(run)), op) for op, run in groupby(path)])


def traceback_global(
    query: np.ndarray,
    target: np.ndarray,
    scoring: AffineGap,
    h0: int = 0,
) -> Cigar:
    """Trace the optimal *global* path from corner to corner.

    The long-read scalar path's gap trace: fill-one + walk, full band
    (the batched path walks the sweep that proved each gap instead).
    """
    codes, _, _ = fill_direction_bits([query], [target], scoring, [h0], GLOBAL)
    return walk_direction_bits(codes[:, 0, :], (len(target), len(query)))


def traceback_extension(
    query: np.ndarray,
    target: np.ndarray,
    scoring: AffineGap,
    h0: int,
    end: tuple[int, int],
) -> Cigar:
    """Trace the optimal path from the origin to ``end = (i, j)``.

    The paper's host-side step, once per read, for the winning
    extension only (Section II-A).  Fill-one + walk: the recurrence
    looks up and left only, so just ``target[:i] x query[:j]`` is
    filled.  Any unconsumed query suffix is the caller's to soft-clip.
    """
    i, j = end
    if not (0 <= i <= len(target) and 0 <= j <= len(query)):
        raise ValueError("traceback endpoint out of range")
    query, target = query[:j], target[:i]
    [bits] = fill_extension_batch([query], [target], scoring, [h0])
    return traceback_path(bits, query, target, scoring, end)


def traceback_path(
    mats: np.ndarray | DenseMatrices,
    query: np.ndarray,
    target: np.ndarray,
    scoring: AffineGap,
    end: tuple[int, int],
) -> Cigar:
    """Walk an already-filled job from the origin to ``end``.

    Split from the fill so a traceback wave can fill a bucket of
    winners in lockstep (:func:`fill_extension_batch`) and walk each
    one's codes here.  Given the oracle's :class:`DenseMatrices`, the
    walk re-derives every predecessor from H/E/F instead — the
    reference the direction codes are tested against.
    """
    i, j = end
    rows, width = (mats.h if isinstance(mats, DenseMatrices) else mats).shape
    if not (0 <= i < rows and 0 <= j < width):
        raise ValueError("traceback endpoint out of range")
    if isinstance(mats, DenseMatrices):
        return _walk_dense(mats, query, target, scoring, end)
    if not mats[i, j] & LIVE:
        raise ValueError("cannot trace back from a dead cell")
    return walk_direction_bits(mats, end)


def _walk_dense(
    mats: DenseMatrices,
    query: np.ndarray,
    target: np.ndarray,
    scoring: AffineGap,
    end: tuple[int, int],
) -> Cigar:
    """The oracle walker: compare H/E/F cell by cell, no codes."""
    i, j = end
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
