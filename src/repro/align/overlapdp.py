"""Banded suffix-prefix overlap alignment (OLC/assembly mode).

The third alignment shape SeedEx's speculate-and-test scheme covers
(paper Section VII-D): dovetail overlap detection for assembly.  A
candidate overlap aligns the *suffix* of read A (the query ``x``)
against the *prefix* of read B (the target ``y``):

* the start is anchored — cell ``(0, 0)`` scores zero, and leading
  characters of either sequence cost real gap penalties (no free
  ride into the overlap);
* the query must be fully consumed — only last-column cells
  ``H[i][qlen]`` are candidate ends;
* the target end is free — the best last-column cell wins, ties
  toward the smallest ``i``, and ``tlen - i`` is B's unaligned
  overhang.

Like global mode there are no dead cells and scores go negative.
The banded fill records, along both band-edge diagonals
``|i - j| = w``, the exact in-band value a band-leaving path must
carry at its *first* exit.  From an edge cell ``(i, j)`` any
continuation to a last-column end gains at most
``(qlen - j) * match`` (each remaining query character is consumed
by at most one match; target-only moves never gain), so

    ``bound = max over edge cells of  H[i][j] + (qlen - j) * match``

is an admissible bound on every band-leaving path.  When the banded
score meets it, the banded result is provably the dense full-matrix
optimum; otherwise the caller reruns at full band (the overlap app's
verify wave).  Soundness and bit-equivalence with a dense oracle are
swept exhaustively in ``tests/align/test_overlap_boundaries.py``.

Two renditions share these exact semantics: a scalar reference
(:func:`overlap_scalar`, the oracle) and an inter-sequence lockstep
batch (:func:`overlap_batch_lockstep`) that shape-buckets jobs the way
the striped extension kernel does.  Both are bit-identical on
``(score, t_end, bound, optimal)``; only ``cells_computed`` reflects
the backend's own schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.align.banded import shape_class
from repro.align.fullmatrix import NEG_INF
from repro.align.scoring import AffineGap
from repro.genome.sequence import AMBIGUOUS_CODE

_DEAD = NEG_INF // 2
"""Values at or below this are treated as unreachable (drifted NEG_INF)."""


@dataclass(frozen=True)
class OverlapResult:
    """One banded overlap fill and its optimality-check inputs.

    ``score``/``t_end`` are the best in-band last-column cell (ties to
    the smallest row); ``t_end == -1`` means no in-band path consumes
    the whole query.  ``bound`` is the band-edge admissible bound on
    any band-leaving path (``NEG_INF`` when the band is full).
    """

    score: int
    t_end: int
    band: int
    qlen: int
    tlen: int
    bound: int
    cells_computed: int

    @property
    def is_full_band(self) -> bool:
        """True when the band covered every cell of the matrix."""
        return self.band >= max(self.qlen, self.tlen)

    @property
    def optimal(self) -> bool:
        """True when the banded score is provably the dense optimum."""
        if self.is_full_band:
            return True
        return self.t_end >= 0 and self.score >= self.bound


def _resolve_band(qlen: int, tlen: int, w: int | None) -> int:
    if w is None:
        return max(qlen, tlen)
    if w < 0:
        raise ValueError("band must be non-negative")
    return w


def overlap_scalar(
    query: np.ndarray,
    target: np.ndarray,
    scoring: AffineGap,
    w: int | None = None,
) -> OverlapResult:
    """Reference per-cell fill of the banded overlap matrix.

    Slow but obviously the semantics above; the lockstep rendition is
    conformance-tested against it.  ``w=None`` fills the whole
    matrix (trivially optimal).
    """
    query = np.asarray(query, dtype=np.int64)
    target = np.asarray(target, dtype=np.int64)
    qlen, tlen = len(query), len(target)
    w = _resolve_band(qlen, tlen, w)
    go = scoring.gap_open
    ge_i = scoring.gap_extend_ins
    ge_d = scoring.gap_extend_del
    m = scoring.match

    H = np.full((tlen + 1, qlen + 1), NEG_INF, dtype=np.int64)
    E = np.full((tlen + 1, qlen + 1), NEG_INF, dtype=np.int64)
    F = np.full((tlen + 1, qlen + 1), NEG_INF, dtype=np.int64)
    H[0][0] = 0
    cells = 1
    for j in range(1, min(qlen, w) + 1):
        F[0][j] = H[0][j] = -(go + j * ge_i)
        cells += 1
    for i in range(1, min(tlen, w) + 1):
        E[i][0] = H[i][0] = -(go + i * ge_d)
        cells += 1
    for i in range(1, tlen + 1):
        for j in range(max(1, i - w), min(qlen, i + w) + 1):
            E[i][j] = max(H[i - 1][j] - go, E[i - 1][j]) - ge_d
            F[i][j] = max(H[i][j - 1] - go, F[i][j - 1]) - ge_i
            diag = H[i - 1][j - 1] + scoring.substitution(
                int(target[i - 1]), int(query[j - 1])
            )
            H[i][j] = max(diag, E[i][j], F[i][j])
            cells += 1

    score, t_end = NEG_INF, -1
    for i in range(max(0, qlen - w), min(tlen, qlen + w) + 1):
        if H[i][qlen] > _DEAD and (t_end < 0 or H[i][qlen] > score):
            score, t_end = int(H[i][qlen]), i

    bound = NEG_INF
    if w < max(qlen, tlen):
        for i in range(tlen + 1):
            for j in (i - w, i + w):
                if 0 <= j <= qlen and H[i][j] > _DEAD:
                    cand = int(H[i][j]) + (qlen - j) * m
                    if cand > bound:
                        bound = cand
    return OverlapResult(
        score=score, t_end=t_end, band=w, qlen=qlen, tlen=tlen,
        bound=bound, cells_computed=cells,
    )


def overlap_batch_lockstep(
    queries: list[np.ndarray],
    targets: list[np.ndarray],
    scoring: AffineGap,
    w: int | None = None,
) -> list[OverlapResult]:
    """Fill many overlap jobs in inter-sequence lockstep.

    Jobs are bucketed by ``(shape_class(qlen), shape_class(tlen))`` and
    every job of a bucket sweeps together, vectorizing across jobs ×
    band columns; results come back in input order, bit-identical to
    :func:`overlap_scalar` per job.  Padded query/target tails use the
    ambiguous code (never matches) and live strictly outside each
    job's own matrix, so they cannot influence a real cell; captures
    are masked to each job's true dimensions.
    """
    if len(queries) != len(targets):
        raise ValueError("queries and targets must align")
    out: list[OverlapResult | None] = [None] * len(queries)
    buckets: dict[tuple[int, int], list[int]] = {}
    for k, (q, t) in enumerate(zip(queries, targets)):
        key = (shape_class(len(q)), shape_class(len(t)))
        buckets.setdefault(key, []).append(k)
    for idx in buckets.values():
        for k, res in zip(
            idx,
            _lockstep_bucket(
                [queries[k] for k in idx],
                [targets[k] for k in idx],
                scoring,
                w,
            ),
        ):
            out[k] = res
    return [r for r in out if r is not None]


def _lockstep_bucket(
    queries: list[np.ndarray],
    targets: list[np.ndarray],
    scoring: AffineGap,
    w: int | None,
) -> list[OverlapResult]:
    """One bucket's lockstep sweep over jobs padded to a shared shape."""
    n = len(queries)
    qlens = np.array([len(q) for q in queries], dtype=np.int64)
    tlens = np.array([len(t) for t in targets], dtype=np.int64)
    qmax = int(qlens.max())
    tmax = int(tlens.max())
    bands = np.array(
        [_resolve_band(int(ql), int(tl), w) for ql, tl in zip(qlens, tlens)],
        dtype=np.int64,
    )
    # The sweep itself runs at the widest band any job asked for; a
    # cell outside a job's own band is never *read* for that job
    # because captures and the per-job band mask use its own width.
    if w is None:
        ws = int(bands.max())
    else:
        ws = w
    go = scoring.gap_open
    ge_i = scoring.gap_extend_ins
    ge_d = scoring.gap_extend_del
    m = scoring.match
    x = scoring.mismatch

    qpad = np.full((n, max(1, qmax)), AMBIGUOUS_CODE, dtype=np.int64)
    tpad = np.full((n, max(1, tmax)), AMBIGUOUS_CODE, dtype=np.int64)
    for k, (q, t) in enumerate(zip(queries, targets)):
        qpad[k, : len(q)] = q
        tpad[k, : len(t)] = t

    cols = np.arange(qmax + 1, dtype=np.int64)
    in_band = np.abs(cols[None, :] - 0) <= bands[:, None]  # row 0

    h_prev = np.full((n, qmax + 1), NEG_INF, dtype=np.int64)
    e_prev = np.full((n, qmax + 1), NEG_INF, dtype=np.int64)
    h_prev[:, 0] = 0
    row0 = -(go + cols[1:] * ge_i)
    mask0 = in_band[:, 1:] & (cols[None, 1:] <= qlens[:, None])
    h_prev[:, 1:] = np.where(mask0, row0[None, :], NEG_INF)

    score = np.full(n, NEG_INF, dtype=np.int64)
    t_end = np.full(n, -1, dtype=np.int64)
    banded = bands < np.maximum(qlens, tlens)
    # Row-0 captures: the last column when it sits in band, and the
    # upper edge cell (0, band).
    sel = (qlens <= bands) & (h_prev[np.arange(n), qlens] > _DEAD)
    score[sel] = h_prev[np.arange(n), qlens][sel]
    t_end[sel] = 0
    bound = np.full(n, NEG_INF, dtype=np.int64)
    sel = banded & (bands <= qlens)
    if sel.any():
        edge = h_prev[np.arange(n), np.minimum(bands, qmax)]
        bound[sel] = edge[sel] + (qlens[sel] - bands[sel]) * m

    h_row = np.empty_like(h_prev)
    e_row = np.empty_like(e_prev)
    jobs = np.arange(n)
    for i in range(1, tmax + 1):
        lo = max(0, i - ws)
        hi = min(qmax, i + ws)
        h_row.fill(NEG_INF)
        e_row.fill(NEG_INF)
        col0 = (i <= bands) & (i <= tlens)
        h_row[col0, 0] = -(go + i * ge_d)
        e_row[col0, 0] = h_row[col0, 0]

        lo2 = max(lo, 1)
        if lo2 <= hi:
            seg = slice(lo2, hi + 1)
            e_row[:, seg] = (
                np.maximum(h_prev[:, seg] - go, e_prev[:, seg]) - ge_d
            )
            tc = tpad[:, i - 1][:, None]
            qseg = qpad[:, lo2 - 1 : hi]
            sub = np.where((tc == qseg) & (tc != AMBIGUOUS_CODE), m, -x)
            diag = h_prev[:, lo2 - 1 : hi] + sub
            g = np.maximum(diag, e_row[:, seg])
            # Mask G to each job's *own* band before the F scan: when
            # bucket-mates run wider bands, cells left of this job's
            # band pick up E values through the previous row's edge,
            # and an unmasked run-max would chain them into in-band F
            # (the band-clamp asymmetry the exhaustive sweep pins).
            own = np.abs(cols[None, seg] - i) <= bands[:, None]
            own &= cols[None, seg] <= qlens[:, None]
            g = np.where(own, g, NEG_INF)
            src = np.empty((n, hi - lo2 + 2), dtype=np.int64)
            src[:, 0] = np.where(
                (lo2 == 1) & (i <= bands), h_row[:, 0], NEG_INF
            )
            src[:, 1:] = g
            ccols = cols[lo2 - 1 : hi + 1]
            run = np.maximum.accumulate(
                src - go + ccols[None, :] * ge_i, axis=1
            )
            f = run[:, :-1] - ccols[None, 1:] * ge_i
            # Blank out-of-own-band cells so the job's recurrence
            # next row reads NEG_INF exactly like the scalar form.
            h_row[:, seg] = np.where(
                own, np.maximum(g, f), NEG_INF
            )
            e_row[:, seg] = np.where(own, e_row[:, seg], NEG_INF)

        live = i <= tlens
        sel = (
            live
            & (np.abs(i - qlens) <= bands)
            & (h_row[jobs, np.minimum(qlens, qmax)] > _DEAD)
        )
        cand = h_row[jobs, np.minimum(qlens, qmax)]
        better = sel & ((t_end < 0) | (cand > score))
        score[better] = cand[better]
        t_end[better] = i
        for j_edge in (i - bands, i + bands):
            je = np.clip(j_edge, 0, qmax)
            sel = (
                live
                & banded
                & (j_edge >= 0)
                & (j_edge <= qlens)
                & (h_row[jobs, je] > _DEAD)
            )
            cand = h_row[jobs, je] + (qlens - je) * m
            bound[sel] = np.maximum(bound[sel], cand[sel])

        h_prev, h_row = h_row, h_prev
        e_prev, e_row = e_row, e_prev

    # Padded-sweep cell count: the bucket's schedule, shared by every
    # job (an execution-shape field, not part of the conformance set).
    cells = 0
    for i in range(tmax + 1):
        lo = max(0, i - ws)
        hi = min(qmax, i + ws)
        if lo <= hi:
            cells += hi - lo + 1
    out = []
    for k in range(n):
        sc = int(score[k]) if int(t_end[k]) >= 0 else NEG_INF
        out.append(
            OverlapResult(
                score=sc,
                t_end=int(t_end[k]),
                band=int(bands[k]),
                qlen=int(qlens[k]),
                tlen=int(tlens[k]),
                bound=int(bound[k]),
                cells_computed=cells,
            )
        )
    return out
