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
batch (:func:`overlap_batch_lockstep`) that shape-buckets jobs into
the one lockstep sweep (:mod:`repro.align.lockstep`).  Both are bit-identical on
``(score, t_end, bound, optimal)``; only ``cells_computed`` reflects
the backend's own schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.align import lockstep
from repro.align.lockstep import DEAD, NEG_INF
from repro.align.scoring import AffineGap


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
        if H[i][qlen] > DEAD and (t_end < 0 or H[i][qlen] > score):
            score, t_end = int(H[i][qlen]), i

    bound = NEG_INF
    if w < max(qlen, tlen):
        for i in range(tlen + 1):
            for j in (i - w, i + w):
                if 0 <= j <= qlen and H[i][j] > DEAD:
                    cand = int(H[i][j]) + (qlen - j) * m
                    if cand > bound:
                        bound = cand
    return OverlapResult(
        score=score, t_end=t_end, band=w, qlen=qlen, tlen=tlen,
        bound=bound, cells_computed=cells,
    )


MIN_SHAPE_CLASS = 16
"""Smallest shape class: lengths up to 16 share one class."""


def shape_class(length: int) -> int:
    """The bucketing class of a length: the next power of two.

    Geometric classes bound the within-class padding at 2x while
    keeping the number of classes logarithmic in the length range, so
    a ragged batch shatters into at most a handful of buckets.  Only
    the overlap batch buckets by it; every other lockstep sweep
    (extension waves, traceback fills, gap fills) is planned by cells
    instead (:func:`repro.align.lockstep.plan_buckets`).
    """
    if length <= MIN_SHAPE_CLASS:
        return MIN_SHAPE_CLASS
    return 1 << int(length - 1).bit_length()


def overlap_batch_lockstep(
    queries: list[np.ndarray],
    targets: list[np.ndarray],
    scoring: AffineGap,
    w: int | None = None,
) -> list[OverlapResult]:
    """Fill many overlap jobs in inter-sequence lockstep.

    Jobs are bucketed by ``(shape_class(qlen), shape_class(tlen))`` and
    each bucket is one lockstep sweep
    (:func:`repro.align.lockstep.overlap_ends`), vectorizing across
    jobs × band columns; results come back in input order,
    bit-identical to :func:`overlap_scalar` per job.
    """
    if len(queries) != len(targets):
        raise ValueError("queries and targets must align")
    out: list[OverlapResult | None] = [None] * len(queries)
    buckets: dict[tuple[int, int], list[int]] = {}
    for k, (q, t) in enumerate(zip(queries, targets)):
        key = (shape_class(len(q)), shape_class(len(t)))
        buckets.setdefault(key, []).append(k)
    for idx in buckets.values():
        qlens = [len(queries[k]) for k in idx]
        tlens = [len(targets[k]) for k in idx]
        bands = [_resolve_band(ql, tl, w) for ql, tl in zip(qlens, tlens)]
        score, t_end, bound = lockstep.overlap_ends(
            [queries[k] for k in idx],
            [targets[k] for k in idx],
            scoring,
            np.array(bands, dtype=np.int64),
        )
        # Padded-sweep cell count: the bucket's schedule, shared by
        # every job (an execution-shape field, not conformance).
        ws, qmax = max(bands), max(qlens)
        cells = sum(
            max(0, min(qmax, i + ws) - max(0, i - ws) + 1)
            for i in range(max(tlens) + 1)
        )
        for n, k in enumerate(idx):
            out[k] = OverlapResult(
                score=int(score[n]),
                t_end=int(t_end[n]),
                band=bands[n],
                qlen=qlens[n],
                tlen=tlens[n],
                bound=int(bound[n]),
                cells_computed=cells,
            )
    return [r for r in out if r is not None]
