"""Edit-distance DP kernels, including the left-entry extension.

The edit-distance check of paper Section III-D runs an *optimistic*
extra extension for the paper's "path 2": alignment paths whose first
band departure is the pure-deletion dive down query column 0 past row
``w``.  Every cell such a path can subsequently touch lies in the
lower half-matrix ``rows w+1 .. tlen`` (rows only grow) — including
cells back inside the band, which the path may re-enter.  The check
therefore runs a DP over exactly that half-matrix, seeded only on its
left boundary, using the relaxed edit scoring
``{m:1, x:-1, go:0, ge(ins):0, ge(del):-1}``.

Zero-penalty insertions make scores non-decreasing along each row, so
the row maximum always sits in the last column: the hardware's single
augmentation unit reads the decoded scores along the right edge
(the augmentation path of paper Figure 10), and this model only needs
the last-column values.  The half-matrix sweep is also what motivates
the half-width PE array of Section IV-B.

:func:`levenshtein` is the classic edit distance, used by tests and by
the delta-encoding hardware model as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.align.scoring import AffineGap, relaxed_edit_scoring


def levenshtein(a: np.ndarray, b: np.ndarray) -> int:
    """Classic edit distance between two encoded sequences."""
    a = np.asarray(a)
    b = np.asarray(b)
    if len(a) == 0:
        return len(b)
    prev = np.arange(len(b) + 1, dtype=np.int64)
    for i in range(1, len(a) + 1):
        cur = np.empty_like(prev)
        cur[0] = i
        sub = prev[:-1] + (b != a[i - 1])
        # Insertions need a sequential scan; do it with the standard
        # prefix-min trick: cur[j] = min(sub/del candidates, cur[j-1]+1).
        cand = np.minimum(sub, prev[1:] + 1)
        run = np.minimum.accumulate(cand - np.arange(1, len(b) + 1))
        cur[1:] = np.minimum(cand, run + np.arange(1, len(b) + 1))
        # One more pass to honor cur[0] as an insertion source.
        cur[1:] = np.minimum(cur[1:], cur[0] + np.arange(1, len(b) + 1))
        prev = cur
    return int(prev[-1])


@dataclass(frozen=True)
class LeftEntryScores:
    """Scores read out along the augmentation path (the right edge).

    ``last_column[r]`` is the relaxed score at cell
    ``(band + 1 + r, qlen)`` — the best any left-entering path can have
    when the query runs out at that reference row.  ``best`` is their
    maximum; because free insertions make rows non-decreasing, it also
    bounds left-entering paths ending *anywhere*.
    """

    last_column: np.ndarray
    best: int


def left_entry_scores(
    query: np.ndarray,
    target: np.ndarray,
    band: int,
    left_seed: Callable[[int], int] | int,
    scoring: AffineGap | None = None,
    top_seed: Callable[[int], int] | None = None,
) -> LeftEntryScores:
    """Run the optimistic left-entry extension over the half-matrix.

    ``left_seed`` gives the initial score injected at left-boundary
    cell ``(i, 0)`` for ``i >= band+1`` — the paper injects ``S1`` at
    the top-left corner (the "circle" of Figure 5) and lets the DP
    propagate it; passing a callable allows the tighter
    exact-initialization ablation.  ``scoring`` defaults to the relaxed
    edit scheme; any scheme that *dominates* the production scheme
    keeps the check admissible (:meth:`AffineGap.dominates`).

    ``top_seed(j)``, when given, additionally injects the recorded
    boundary E-channel cap at region cell ``(j + band + 1, j)`` — used
    by the local-target workflow, whose all-match E-check arithmetic
    is useless for soft-clipped reads, so downward crossings at
    columns >= 1 are swept with real content instead.

    Dead-cell semantics match the extension kernel: scores clamp to
    zero and dead cells cannot be extended — admissible because the
    relaxed score of a path is everywhere >= its production score.
    """
    if scoring is None:
        scoring = relaxed_edit_scoring()
    if scoring.gap_open != 0 or scoring.gap_extend_ins != 0:
        raise ValueError(
            "left-entry DP requires zero-cost insertions "
            "(free horizontal propagation)"
        )
    query = np.asarray(query, dtype=np.int64)
    target = np.asarray(target, dtype=np.int64)
    qlen = len(query)
    tlen = len(target)
    if tlen <= band:
        return LeftEntryScores(np.zeros(0, dtype=np.int64), 0)

    seed = left_seed if callable(left_seed) else (lambda _i: int(left_seed))
    m = scoring.match
    x = scoring.mismatch
    ge_d = scoring.gap_extend_del

    rows = tlen - band
    last_column = np.zeros(rows, dtype=np.int64)
    prev = np.zeros(0, dtype=np.int64)
    for r, i in enumerate(range(band + 1, tlen + 1)):
        base = np.zeros(qlen + 1, dtype=np.int64)
        base[0] = max(0, seed(i))
        if prev.size:
            np.maximum(base, prev - ge_d, out=base)
            sub = np.where(target[i - 1] == query, m, -x)
            diag = np.where(prev[:-1] > 0, prev[:-1] + sub, 0)
            np.maximum(base[1:], diag, out=base[1:])
        if top_seed is not None:
            bj = i - band - 1
            if 0 <= bj <= qlen:
                base[bj] = max(int(base[bj]), top_seed(bj))
        # Free horizontal propagation: running max along the row.
        row = np.maximum.accumulate(np.maximum(base, 0))
        prev = row
        last_column[r] = int(row[qlen])

    return LeftEntryScores(last_column, int(last_column.max(initial=0)))


def left_entry_scores_global(
    query: np.ndarray,
    target: np.ndarray,
    band: int,
    left_seed: Callable[[int], int],
    top_seed: Callable[[int], int] | None = None,
    scoring: AffineGap | None = None,
) -> int:
    """Corner bound for *global* band-leaving paths on one side.

    Same half-matrix sweep as :func:`left_entry_scores` but without
    the dead-at-zero clamp: global alignment paths survive negative
    running scores, so clamping would under-bound them.  Besides the
    ``left_seed`` (column-0 entries), an optional ``top_seed(j)``
    injects the recorded boundary-channel value at region cell
    ``(j + band + 1, j)`` — the entry point of a path whose first
    departure crossed the band's lower edge at column ``j``.  Returns
    the relaxed score at the corner ``(tlen, qlen)`` — the only
    endpoint a global path has — or ``NEG_INF`` when the region is
    empty.  (The above-band region is handled by calling this on the
    transposed problem.)
    """
    from repro.align.lockstep import NEG_INF

    if scoring is None:
        scoring = relaxed_edit_scoring()
    if scoring.gap_open != 0 or scoring.gap_extend_ins != 0:
        raise ValueError(
            "left-entry DP requires zero-cost insertions "
            "(free horizontal propagation)"
        )
    query = np.asarray(query, dtype=np.int64)
    target = np.asarray(target, dtype=np.int64)
    qlen = len(query)
    tlen = len(target)
    if tlen <= band:
        return NEG_INF
    m = scoring.match
    x = scoring.mismatch
    ge_d = scoring.gap_extend_del

    prev = np.full(qlen + 1, NEG_INF, dtype=np.int64)
    for i in range(band + 1, tlen + 1):
        base = np.full(qlen + 1, NEG_INF, dtype=np.int64)
        base[0] = left_seed(i)
        live = prev > NEG_INF // 2
        if live.any():
            up = np.where(live, prev - ge_d, NEG_INF)
            np.maximum(base, up, out=base)
            sub = np.where(target[i - 1] == query, m, -x)
            diag = np.where(live[:-1], prev[:-1] + sub, NEG_INF)
            np.maximum(base[1:], diag, out=base[1:])
        bj = i - band - 1
        if top_seed is not None and 0 <= bj <= qlen:
            base[bj] = max(int(base[bj]), top_seed(bj))
        prev = np.maximum.accumulate(base)
    return int(prev[qlen])


def upper_entry_scores(
    query: np.ndarray,
    target: np.ndarray,
    band: int,
    row_seed: Callable[[int], int],
    boundary_seed: Callable[[int], int],
    scoring: AffineGap | None = None,
) -> LeftEntryScores:
    """The above-band mirror of :func:`left_entry_scores`.

    Extension-mode (dead-at-zero) relaxed sweep over everything a path
    can touch after first leaving the band *upward*: all rows, columns
    ``>= band + 1``.  ``row_seed(j)`` injects the exact init-row
    arrival values at ``(0, j)`` (an insertion run along the top edge);
    ``boundary_seed(i)`` injects the recorded upper-edge F value at
    entry cell ``(i, i + band + 1)``.  Because insertions are free the
    rows are non-decreasing, so ``last_column[i]`` bounds such a path
    ending anywhere in row ``i`` — the readout the local-target check
    (and a hardware twin of the edit machine) needs.
    """
    if scoring is None:
        scoring = relaxed_edit_scoring()
    if scoring.gap_open != 0 or scoring.gap_extend_ins != 0:
        raise ValueError(
            "upper-entry DP requires zero-cost insertions "
            "(free horizontal propagation)"
        )
    query = np.asarray(query, dtype=np.int64)
    target = np.asarray(target, dtype=np.int64)
    qlen = len(query)
    tlen = len(target)
    if qlen <= band:
        return LeftEntryScores(np.zeros(0, dtype=np.int64), 0)
    m = scoring.match
    x = scoring.mismatch
    ge_d = scoring.gap_extend_del

    lo = band + 1
    width = qlen - lo + 1
    last_column = np.zeros(tlen + 1, dtype=np.int64)
    base0 = np.array(
        [max(0, row_seed(j)) for j in range(lo, qlen + 1)],
        dtype=np.int64,
    )
    prev = np.maximum.accumulate(base0)
    last_column[0] = int(prev[-1])
    for i in range(1, tlen + 1):
        base = np.zeros(width, dtype=np.int64)
        np.maximum(base, prev - ge_d, out=base)
        sub = np.where(target[i - 1] == query[lo:qlen], m, -x)
        diag = np.where(prev[:-1] > 0, prev[:-1] + sub, 0)
        np.maximum(base[1:], diag, out=base[1:])
        bcol = i + band + 1
        if lo <= bcol <= qlen:
            idx = bcol - lo
            base[idx] = max(int(base[idx]), boundary_seed(i), 0)
        prev = np.maximum.accumulate(np.maximum(base, 0))
        last_column[i] = int(prev[-1])
    return LeftEntryScores(
        last_column, int(last_column.max(initial=0))
    )


def upper_entry_scores_global(
    query: np.ndarray,
    target: np.ndarray,
    band: int,
    row_seed: Callable[[int], int],
    boundary_seed: Callable[[int], int],
    scoring: AffineGap | None = None,
) -> int:
    """Corner bound for global paths that first leave the band upward.

    The mirror of :func:`left_entry_scores_global` for the above-band
    region ``{j - i > band}``: every cell such a path can later touch
    has column ``j >= band + 1``, so the sweep covers all rows but only
    those columns.  ``row_seed(j)`` injects the init-row entry values
    at ``(0, j)``; ``boundary_seed(i)`` injects the recorded F-channel
    value at region cell ``(i, i + band + 1)``.

    The free direction stays horizontal (original insertions), so
    vertical moves cost the full deletion extension — this matters:
    transposing the below-sweep instead would hand out free original
    deletions and let the bound ride down onto the true alignment's
    diagonal, degenerating the check.
    """
    from repro.align.lockstep import NEG_INF

    if scoring is None:
        scoring = relaxed_edit_scoring()
    if scoring.gap_open != 0 or scoring.gap_extend_ins != 0:
        raise ValueError(
            "upper-entry DP requires zero-cost insertions "
            "(free horizontal propagation)"
        )
    query = np.asarray(query, dtype=np.int64)
    target = np.asarray(target, dtype=np.int64)
    qlen = len(query)
    tlen = len(target)
    if qlen <= band:
        return NEG_INF
    m = scoring.match
    x = scoring.mismatch
    ge_d = scoring.gap_extend_del

    lo = band + 1  # leftmost column of the domain
    width = qlen - lo + 1
    prev = np.full(width, NEG_INF, dtype=np.int64)
    # Row 0: seeds along the init row, propagated by free insertions.
    base0 = np.array(
        [row_seed(j) for j in range(lo, qlen + 1)], dtype=np.int64
    )
    prev = np.maximum.accumulate(base0)
    for i in range(1, tlen + 1):
        base = np.full(width, NEG_INF, dtype=np.int64)
        live = prev > NEG_INF // 2
        if live.any():
            np.maximum(
                base, np.where(live, prev - ge_d, NEG_INF), out=base
            )
            # Diagonal into column c consumes query[c-1]; column lo's
            # diagonal predecessor (column lo-1) is in the band and out
            # of this sweep's scope by construction.
            sub = np.where(target[i - 1] == query[lo:qlen], m, -x)
            diag = np.where(live[:-1], prev[:-1] + sub, NEG_INF)
            np.maximum(base[1:], diag, out=base[1:])
        bcol = i + band + 1
        if lo <= bcol <= qlen:
            idx = bcol - lo
            base[idx] = max(int(base[idx]), boundary_seed(i))
        prev = np.maximum.accumulate(base)
    return int(prev[-1])


def left_entry_scores_reference(
    query: np.ndarray,
    target: np.ndarray,
    band: int,
    left_seed: Callable[[int], int] | int,
    scoring: AffineGap | None = None,
) -> LeftEntryScores:
    """Loop-based oracle for :func:`left_entry_scores` (tests only)."""
    if scoring is None:
        scoring = relaxed_edit_scoring()
    query = np.asarray(query, dtype=np.int64)
    target = np.asarray(target, dtype=np.int64)
    qlen = len(query)
    tlen = len(target)
    if tlen <= band:
        return LeftEntryScores(np.zeros(0, dtype=np.int64), 0)
    seed = left_seed if callable(left_seed) else (lambda _i: int(left_seed))
    m = scoring.match
    x = scoring.mismatch
    ge_d = scoring.gap_extend_del
    ge_i = scoring.gap_extend_ins

    scores: dict[tuple[int, int], int] = {}
    for i in range(band + 1, tlen + 1):
        for j in range(qlen + 1):
            cands = [0]
            if j == 0:
                cands.append(seed(i))
            up = scores.get((i - 1, j))
            if up is not None:
                cands.append(up - ge_d)
            left = scores.get((i, j - 1))
            if left is not None:
                cands.append(left - ge_i)
            dg = scores.get((i - 1, j - 1))
            if dg is not None and dg > 0:
                match = int(target[i - 1]) == int(query[j - 1])
                cands.append(dg + (m if match else -x))
            scores[(i, j)] = max(cands)

    rows = tlen - band
    last = np.zeros(rows, dtype=np.int64)
    for r, i in enumerate(range(band + 1, tlen + 1)):
        last[r] = scores[(i, qlen)]
    return LeftEntryScores(last, int(last.max(initial=0)))
