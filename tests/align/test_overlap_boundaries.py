"""Overlap/global-fill kernels vs naive dense full-matrix oracles.

The overlap DP (:mod:`repro.align.overlapdp`) and the batched global
gap fill (:mod:`repro.align.globalbatch`) each ship two renditions
— scalar reference and inter-sequence lockstep — plus a band-edge
admissible bound that turns a banded fill into a *proved* dense
optimum.  The oracles here are deliberately naive whole-matrix
fills with none of the production code's diagonal bookkeeping, so the
sweep pins four properties at once:

* **full-band equivalence** — every rendition at ``w=None`` equals
  the dense optimum exactly (score and, for overlap, the smallest-row
  endpoint tie-break);
* **bound soundness** — whenever a *banded* fill reports
  ``optimal=True``, its score already equals the dense optimum (an
  inadmissible bound would let a too-low banded score through);
* **cross-rendition bit-identity** — scalar and lockstep agree on
  ``(score, t_end, band, bound)`` at every width, including the
  degenerate ones (``w=0``, empty query, empty target, band wider
  than both);
* **heterogeneous-clamp isolation** — lockstep buckets mixing jobs
  whose effective bands differ (the band-clamp asymmetry fixed in the
  lockstep F-scan) still match the per-job scalar fill bit for bit.

The tier-1 sweep keeps every degenerate geometry at small widths; the
exhaustive version (queries <= 6 bp vs targets <= 8 bp at every band
width 0..9, all four scheme shapes) runs in the ``slow`` tier.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given

from repro.align.lockstep import NEG_INF
from repro.align.globalbatch import (
    fill_gaps_guaranteed,
    fill_global_batch,
    fill_global_scalar,
)
from repro.align.overlapdp import overlap_batch_lockstep, overlap_scalar
from repro.align.scoring import BWA_MEM_SCORING, AffineGap

from tests.strategies import GapBatch, gap_job_batches

SCHEMES = (
    BWA_MEM_SCORING,
    AffineGap(match=2, mismatch=3, gap_open=5, gap_extend=2),
    AffineGap(match=1, mismatch=1, gap_open=0, gap_extend=1),
    AffineGap(match=1, mismatch=1, gap_open=0, gap_extend=1,
              gap_extend_ins=0, gap_extend_del=1),
)

_OVERLAP_FORMS = (
    overlap_scalar,
    lambda q, t, s, w: overlap_batch_lockstep([q], [t], s, w)[0],
)

_GLOBAL_FORMS = (
    fill_global_scalar,
    lambda q, t, s, w: fill_global_batch([q], [t], s, w)[0],
)


def dense_oracle(query, target, scoring):
    """Unbanded H/E/F fill: the ground truth both modes share.

    Anchored start (``H[0][0] = 0``), gap-penalized first row and
    column, no zero floor.  Returns the full H matrix; callers read
    the last column (overlap) or the corner (global) off it.
    """
    qlen, tlen = len(query), len(target)
    go = scoring.gap_open
    ge_i, ge_d = scoring.gap_extend_ins, scoring.gap_extend_del
    H = np.full((tlen + 1, qlen + 1), NEG_INF, dtype=np.int64)
    E = np.full((tlen + 1, qlen + 1), NEG_INF, dtype=np.int64)
    F = np.full((tlen + 1, qlen + 1), NEG_INF, dtype=np.int64)
    H[0][0] = 0
    for j in range(1, qlen + 1):
        F[0][j] = H[0][j] = -(go + j * ge_i)
    for i in range(1, tlen + 1):
        E[i][0] = H[i][0] = -(go + i * ge_d)
    for i in range(1, tlen + 1):
        for j in range(1, qlen + 1):
            E[i][j] = max(H[i - 1][j] - go, E[i - 1][j]) - ge_d
            F[i][j] = max(H[i][j - 1] - go, F[i][j - 1]) - ge_i
            diag = H[i - 1][j - 1] + scoring.substitution(
                int(target[i - 1]), int(query[j - 1])
            )
            H[i][j] = max(diag, E[i][j], F[i][j])
    return H


def dense_overlap(query, target, scoring):
    """Dense overlap optimum: best last-column cell, smallest row wins."""
    H = dense_oracle(query, target, scoring)
    qlen = len(query)
    score, t_end = NEG_INF, -1
    for i in range(len(target) + 1):
        if H[i][qlen] > NEG_INF // 2 and (
            t_end < 0 or H[i][qlen] > score
        ):
            score, t_end = int(H[i][qlen]), i
    return score, t_end


def dense_global(query, target, scoring):
    """Dense global optimum: the corner cell."""
    return int(dense_oracle(query, target, scoring)[len(target)][len(query)])


def _seqs(rng, n, length):
    out = [
        rng.integers(0, 4, size=length).astype(np.uint8)
        for _ in range(n)
    ]
    if length:
        out.append(np.zeros(length, dtype=np.uint8))  # homopolymer
        alt = np.zeros(length, dtype=np.uint8)
        alt[1::2] = 1
        out.append(alt)                               # alternating
        out.append(np.full(length, 4, dtype=np.uint8))  # all-N
    else:
        out.append(np.zeros(0, dtype=np.uint8))
    return out


def _check_overlap_case(q, t, scoring, w):
    want_score, want_end = dense_overlap(q, t, scoring)
    full = [form(q, t, scoring, None) for form in _OVERLAP_FORMS]
    for res in full:
        assert res.score == want_score, (q, t, scoring)
        assert res.t_end == want_end, (q, t, scoring)
        assert res.optimal
    banded = [form(q, t, scoring, w) for form in _OVERLAP_FORMS]
    ref = banded[0]
    for res in banded[1:]:
        assert (res.score, res.t_end, res.band, res.bound) == (
            ref.score, ref.t_end, ref.band, ref.bound
        ), (q, t, scoring, w)
    if ref.optimal:
        assert ref.score == want_score, (q, t, scoring, w)
        assert ref.t_end == want_end, (q, t, scoring, w)


def _check_global_case(q, t, scoring, w):
    want = dense_global(q, t, scoring)
    full = [form(q, t, scoring, None) for form in _GLOBAL_FORMS]
    for res in full:
        assert res.score == want, (q, t, scoring)
        assert res.optimal
    banded = [form(q, t, scoring, w) for form in _GLOBAL_FORMS]
    ref = banded[0]
    for res in banded[1:]:
        assert (res.score, res.band, res.bound) == (
            ref.score, ref.band, ref.bound
        ), (q, t, scoring, w)
    if ref.optimal:
        assert ref.score == want, (q, t, scoring, w)


def _sweep(qlens, tlens, schemes, widths, n_random):
    """Run the differential sweep; returns the number of cases."""
    rng = np.random.default_rng(0)
    cases = 0
    for qlen in qlens:
        qset = _seqs(rng, n_random, qlen)
        for tlen in tlens:
            tset = _seqs(rng, n_random, tlen)
            for scoring, w, (q, t) in itertools.product(
                schemes, widths, itertools.product(qset, tset)
            ):
                cases += 1
                _check_overlap_case(q, t, scoring, w)
                _check_global_case(q, t, scoring, w)
    return cases


def test_overlap_boundary_sweep_tier1():
    """Reduced sweep: degenerate geometries at every tiny band width."""
    cases = _sweep(
        qlens=range(0, 5),
        tlens=range(0, 6),
        schemes=SCHEMES[:2],
        widths=(0, 1, 2, 3, 7),
        n_random=1,
    )
    assert cases > 3_000


@pytest.mark.slow
def test_overlap_boundary_sweep_exhaustive():
    """Full sweep: queries <= 6 bp vs targets <= 8 bp, every width."""
    cases = _sweep(
        qlens=range(0, 7),
        tlens=range(0, 9),
        schemes=SCHEMES,
        widths=range(0, 10),
        n_random=2,
    )
    assert cases == 56_760


def test_lockstep_heterogeneous_clamp_regression():
    """Directed pin of the lockstep band-clamp asymmetry.

    Two jobs share the 16x16 shape bucket but their effective global
    bands differ hugely: a near-square job clamps to the requested
    ``w=1`` while its skewed bucket-mate's ``|tlen - qlen| = 14``
    forces the shared sweep 14 cells wide.  Before the own-band mask
    was applied ahead of the F-scan, the wide mate's columns fed the
    running max and leaked gap chains into the narrow job's band.
    """
    rng = np.random.default_rng(7)
    square_q = rng.integers(0, 4, size=15).astype(np.uint8)
    square_t = rng.integers(0, 4, size=15).astype(np.uint8)
    skew_q = rng.integers(0, 4, size=2).astype(np.uint8)
    skew_t = rng.integers(0, 4, size=16).astype(np.uint8)
    for scoring in SCHEMES:
        batch = fill_global_batch(
            [square_q, skew_q], [square_t, skew_t], scoring, w=1
        )
        for q, t, got in zip(
            (square_q, skew_q), (square_t, skew_t), batch
        ):
            solo = fill_global_scalar(q, t, scoring, w=1)
            assert (got.score, got.band, got.bound) == (
                solo.score, solo.band, solo.bound
            )
        over = overlap_batch_lockstep(
            [square_q, skew_q], [square_t, skew_t], scoring, w=None
        )
        for q, t, got in zip(
            (square_q, skew_q), (square_t, skew_t), over
        ):
            solo = overlap_scalar(q, t, scoring, w=None)
            assert (got.score, got.t_end, got.bound) == (
                solo.score, solo.t_end, solo.bound
            )


@given(batch=gap_job_batches())
def test_gap_batch_matches_scalar(batch: GapBatch):
    """Lockstep gap fills equal the per-job scalar fill, any mix."""
    results = fill_global_batch(
        batch.queries, batch.targets, batch.scoring, w=batch.band
    )
    assert len(results) == len(batch.queries)
    for q, t, got in zip(batch.queries, batch.targets, results):
        solo = fill_global_scalar(q, t, batch.scoring, w=batch.band)
        assert (got.score, got.band, got.bound, got.optimal) == (
            solo.score, solo.band, solo.bound, solo.optimal
        )


@given(batch=gap_job_batches())
def test_guaranteed_fills_equal_dense_optimum(batch: GapBatch):
    """The escalation ladder's contract: every returned score is the
    dense full-matrix optimum, no matter how narrow the first rung."""
    band = batch.band if batch.band is not None else 2
    outs = fill_gaps_guaranteed(
        batch.queries, batch.targets, batch.scoring, band=band
    )
    assert len(outs) == len(batch.queries)
    for q, t, out in zip(batch.queries, batch.targets, outs):
        assert out.result.score == dense_global(q, t, batch.scoring)
        assert out.band_requested == band
        assert out.rerun == (out.escalations > 0)
