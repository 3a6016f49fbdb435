"""Lockstep banded global fills for batched inter-seed gaps.

The long-read pipeline's scalar path fills each inter-seed gap with
one :class:`~repro.core.globalcheck.GlobalSeedEx` call — a narrow
banded global alignment, a sound optimality check, and a full-band
rerun when the check fails.  This module is the batched rendition:
whole *waves* of gap jobs, collected across chains and reads, sweep
together in an inter-sequence lockstep fill (jobs × band columns), in
the cell-balanced buckets every lockstep sweep is planned into
(:func:`~repro.align.lockstep.plan_buckets`).

The optimality check here is the band-edge bound the overlap kernel
uses (:mod:`repro.align.overlapdp`), specialized to global mode: a
band-leaving path first exits through a band-edge diagonal cell
``(i, j)`` carrying at most the banded value there, and its remaining
climb to the corner gains at most ``min(tlen - i, qlen - j) * match``
(the corner needs both sequences fully consumed).  The bound is
admissible, so a passing check proves the banded corner score *is*
the full-band score; failing jobs escalate through a geometric band
ladder (:func:`fill_gaps_guaranteed`) and finish, at the latest, at
full band.  Every returned score therefore equals
:func:`repro.align.globalband.global_align` at full band —
bit-identical to what the scalar path's checked fills return, which
is what keeps the batched long-read SAM byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.align import lockstep
from repro.align.cigar import Cigar
from repro.align.fullmatrix import walk_direction_bits
from repro.align.lockstep import DEAD, GLOBAL, NEG_INF
from repro.align.scoring import AffineGap

ESCALATION_FACTOR = 4
"""Band multiplier between rungs of the escalation ladder."""


@dataclass(frozen=True)
class GlobalFillResult:
    """One banded global fill and its band-edge check inputs."""

    score: int
    band: int
    qlen: int
    tlen: int
    bound: int
    cells_computed: int
    cigar: Cigar | None = None
    """The corner-to-corner trace of an ``optimal`` lockstep fill."""

    @property
    def is_full_band(self) -> bool:
        """True when the band covered every cell of the matrix."""
        return self.band >= max(self.qlen, self.tlen)

    @property
    def optimal(self) -> bool:
        """True when the banded corner is provably the dense optimum."""
        if self.is_full_band:
            return True
        return self.score > DEAD and self.score >= self.bound


@dataclass(frozen=True)
class GapFillOutcome:
    """A guaranteed-optimal gap fill: final result plus its ladder."""

    result: GlobalFillResult
    band_requested: int
    escalations: int

    @property
    def rerun(self) -> bool:
        """True when the first speculation's check failed."""
        return self.escalations > 0


def _clamp_band(qlen: int, tlen: int, w: int | None) -> int:
    """The effective band: wide enough to hold the global corner."""
    if w is None:
        return max(qlen, tlen)
    if w < 0:
        raise ValueError("band must be non-negative")
    return max(w, abs(tlen - qlen))


def fill_global_scalar(
    query: np.ndarray,
    target: np.ndarray,
    scoring: AffineGap,
    w: int | None = None,
) -> GlobalFillResult:
    """Reference per-cell banded global fill with edge-bound capture.

    The band is clamped to ``max(w, |tlen - qlen|)`` so the corner is
    always reachable (the same clamp ``GlobalSeedEx`` applies).
    """
    query = np.asarray(query, dtype=np.int64)
    target = np.asarray(target, dtype=np.int64)
    qlen, tlen = len(query), len(target)
    w = _clamp_band(qlen, tlen, w)
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

    score = int(H[tlen][qlen])
    bound = NEG_INF
    if w < max(qlen, tlen):
        for i in range(tlen + 1):
            for j in (i - w, i + w):
                if 0 <= j <= qlen and H[i][j] > DEAD:
                    cand = int(H[i][j]) + min(tlen - i, qlen - j) * m
                    if cand > bound:
                        bound = cand
    return GlobalFillResult(
        score=score, band=w, qlen=qlen, tlen=tlen, bound=bound,
        cells_computed=cells,
    )


def fill_global_batch(
    queries: list[np.ndarray],
    targets: list[np.ndarray],
    scoring: AffineGap,
    w: int | None = None,
) -> list[GlobalFillResult]:
    """Fill many global gap jobs in inter-sequence lockstep.

    Jobs are swept in the cell-balanced buckets of
    :func:`~repro.align.lockstep.plan_buckets`, each at most
    :data:`~repro.align.lockstep.TRACEBACK_CHUNK_CELLS` padded cells
    of direction codes.  Per-job results are bit-identical to
    :func:`fill_global_scalar` on ``(score, band, bound, optimal)``;
    ``cells_computed`` reflects the sweep's padded schedule.
    """
    if len(queries) != len(targets):
        raise ValueError("queries and targets must align")
    out: list[GlobalFillResult | None] = [None] * len(queries)
    for bucket in lockstep.plan_buckets(queries, targets):
        results = _fill_bucket(
            [queries[k] for k in bucket],
            [targets[k] for k in bucket],
            scoring,
            w,
        )
        for k, res in zip(bucket, results):
            out[k] = res
    return out  # type: ignore[return-value]


def _fill_bucket(
    queries: list[np.ndarray],
    targets: list[np.ndarray],
    scoring: AffineGap,
    w: int | None,
) -> list[GlobalFillResult]:
    """One bucket's lockstep global sweep over a shared padded shape.

    The sweep keeps direction codes, so every job whose path the band
    provably holds is walked here, before the bucket is dropped.
    """
    n = len(queries)
    qlens = [len(q) for q in queries]
    tlens = [len(t) for t in targets]
    bands = np.array(
        [_clamp_band(ql, tl, w) for ql, tl in zip(qlens, tlens)],
        dtype=np.int64,
    )
    codes, score, bound = lockstep.fill_direction_bits(
        queries, targets, scoring, [0] * n, GLOBAL, bands
    )
    qmax, tmax, ws = max(qlens), max(tlens), int(bands.max())
    cells = sum(
        min(qmax, i + ws) - max(0, i - ws) + 1 for i in range(tmax + 1)
    )
    # The clamp keeps the corner in band, so the gap step that leaves
    # the band spends a character of the sequence that limits the edge
    # bound's remaining matches: a leaving path scores at least one
    # match below the bound.  ``optimal`` therefore puts every
    # co-optimal path — hence the full-band walk — inside the band.
    out: list[GlobalFillResult] = []
    for k in range(n):
        res = GlobalFillResult(
            score=int(score[k]),
            band=int(bands[k]),
            qlen=qlens[k],
            tlen=tlens[k],
            bound=int(bound[k]),
            cells_computed=cells,
        )
        if res.optimal:
            res = replace(
                res,
                cigar=walk_direction_bits(
                    codes[:, k, :], (tlens[k], qlens[k])
                ),
            )
        out.append(res)
    return out


def fill_gaps_guaranteed(
    queries: list[np.ndarray],
    targets: list[np.ndarray],
    scoring: AffineGap,
    band: int,
    escalation: int = ESCALATION_FACTOR,
) -> list[GapFillOutcome]:
    """Batched gap fills with adaptive band escalation.

    Every job starts at ``band``; jobs whose band-edge check fails
    rerun together at ``band * escalation``, then the stragglers at
    full band (where the check is vacuous).  Returned scores always
    equal the dense full-band optimum, and each result carries the
    full-band ``cigar`` from the rung that proved it — one sweep per
    gap, not a second fill for the trace.
    """
    if escalation < 2:
        raise ValueError("escalation factor must be at least 2")
    n = len(queries)
    out: list[GapFillOutcome | None] = [None] * n
    pending = list(range(n))
    rung_band: int | None = band
    rungs = 0
    while pending:
        res = fill_global_batch(
            [queries[k] for k in pending],
            [targets[k] for k in pending],
            scoring,
            w=rung_band,
        )
        failures: list[int] = []
        for k, r in zip(pending, res):
            if r.optimal:
                out[k] = GapFillOutcome(
                    result=r, band_requested=band, escalations=rungs
                )
            else:
                failures.append(k)
        pending = failures
        if not pending:
            break
        rungs += 1
        next_band = rung_band * escalation if rung_band else None
        widest = max(
            max(len(queries[k]), len(targets[k])) for k in pending
        )
        if next_band is None or next_band >= widest:
            rung_band = None  # full band: the ladder's last rung
        else:
            rung_band = next_band
    return [o for o in out if o is not None]
