"""Band-boundary clamp regression: banded kernels vs dense oracles.

Locks in two fixed bug classes at the band's first/last diagonals:

* ``w=0`` boundary-E capture — the lower-boundary cell on the very
  first diagonal (``bj=0``, row ``w``) was never recorded when the
  band degenerates to the main diagonal;
* N-vs-N substitution — the dense oracle scores ``N`` against
  anything (itself included) as a mismatch, which the vectorized
  kernels' raw ``==`` comparison silently disagreed with.

The oracles here are deliberately naive dense DP fills over the
banded cell set — independent of the production kernels' diagonal
bookkeeping, so a clamping off-by-one in either shows up as a score,
endpoint, or boundary-channel mismatch.  The tier-1 sweep keeps the
degenerate geometries (empty query, band wider than both sequences,
``w=0``); the exhaustive version (reads <= 6 bp vs refs <= 8 bp at
every band width 0..9, all four scheme shapes) runs in the ``slow``
tier.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.align import banded, globalband, lockstep
from repro.align.scoring import BWA_MEM_SCORING, AffineGap

SCHEMES = (
    BWA_MEM_SCORING,
    AffineGap(match=2, mismatch=3, gap_open=5, gap_extend=2),
    AffineGap(match=1, mismatch=1, gap_open=0, gap_extend=1),
    AffineGap(match=1, mismatch=1, gap_open=0, gap_extend=1,
              gap_extend_ins=0, gap_extend_del=1),
)


def banded_oracle(query, target, scoring, h0, w):
    """Dense row-major fill of exactly the in-band cells."""
    qlen, tlen = len(query), len(target)
    go = scoring.gap_open
    ge_i, ge_d = scoring.gap_extend_ins, scoring.gap_extend_del
    H = np.zeros((tlen + 1, qlen + 1), dtype=np.int64)
    E = np.zeros((tlen + 1, qlen + 1), dtype=np.int64)
    F = np.zeros((tlen + 1, qlen + 1), dtype=np.int64)
    H[0][0] = h0
    for j in range(1, min(qlen, w) + 1):
        H[0][j] = max(0, h0 - go - j * ge_i)
    for i in range(1, min(tlen, w) + 1):
        E[i][0] = H[i][0] = max(0, h0 - go - i * ge_d)
    for i in range(1, tlen + 1):
        for j in range(max(1, i - w), min(qlen, i + w) + 1):
            diag = 0
            if H[i - 1][j - 1] > 0:
                diag = H[i - 1][j - 1] + scoring.substitution(
                    int(target[i - 1]), int(query[j - 1])
                )
            E[i][j] = max(0, max(H[i - 1][j] - go, E[i - 1][j]) - ge_d)
            F[i][j] = max(0, max(H[i][j - 1] - go, F[i][j - 1]) - ge_i)
            H[i][j] = max(diag, E[i][j], F[i][j], 0)
    # Canonical strict-improvement scan over in-band cells only.
    lscore, lpos, gscore, gpos, max_off = h0, (0, 0), 0, -1, 0
    for i in range(tlen + 1):
        best, best_j = lscore, -1
        for j in range(max(0, i - w), min(qlen, i + w) + 1):
            if H[i][j] > best:
                best, best_j = int(H[i][j]), j
        if best_j >= 0:
            lscore, lpos = best, (i, best_j)
            max_off = max(max_off, abs(best_j - i))
        if abs(i - qlen) <= w and H[i][qlen] > gscore:
            gscore, gpos = int(H[i][qlen]), i
    nb = banded.boundary_length(qlen, tlen, w)
    be = np.zeros(nb, dtype=np.int64)
    for bj in range(nb):
        i = bj + w  # E at boundary cell (bj + w + 1, bj) from row i
        if i + 1 <= tlen:
            be[bj] = max(
                0, max(int(H[i][bj]) - go, int(E[i][bj])) - ge_d
            )
    nu = banded.upper_boundary_length(qlen, tlen, w)
    bf = np.zeros(nu, dtype=np.int64)
    if nu > 0:
        bf[0] = max(0, h0 - go - (w + 1) * ge_i)
    for i in range(1, nu):
        lo, hi = max(0, i - w), min(qlen, i + w)
        best_src = max(
            (int(H[i][k]) + k * ge_i for k in range(lo, hi + 1)),
            default=0,
        )
        bf[i] = max(0, best_src - go - (i + w + 1) * ge_i)
    return (lscore, lpos, gscore, gpos), max_off, be, bf


def global_oracle(query, target, scoring, h0, w):
    """Dense global (no zero-floor) fill of the in-band cells."""
    NEG = lockstep.NEG_INF
    qlen, tlen = len(query), len(target)
    go = scoring.gap_open
    ge_i, ge_d = scoring.gap_extend_ins, scoring.gap_extend_del
    H = np.full((tlen + 1, qlen + 1), NEG, dtype=np.int64)
    E = np.full((tlen + 1, qlen + 1), NEG, dtype=np.int64)
    F = np.full((tlen + 1, qlen + 1), NEG, dtype=np.int64)
    H[0][0] = h0
    for j in range(1, min(qlen, w) + 1):
        F[0][j] = H[0][j] = h0 - go - j * ge_i
    for i in range(1, min(tlen, w) + 1):
        E[i][0] = H[i][0] = h0 - go - i * ge_d
    for i in range(1, tlen + 1):
        for j in range(max(1, i - w), min(qlen, i + w) + 1):
            sub = scoring.substitution(
                int(target[i - 1]), int(query[j - 1])
            )
            diag = (
                H[i - 1][j - 1] + sub
                if H[i - 1][j - 1] > NEG // 2
                else NEG
            )
            E[i][j] = (
                max(H[i - 1][j] - go, E[i - 1][j]) - ge_d
                if H[i - 1][j] > NEG // 2 or E[i - 1][j] > NEG // 2
                else NEG
            )
            F[i][j] = (
                max(H[i][j - 1] - go, F[i][j - 1]) - ge_i
                if H[i][j - 1] > NEG // 2 or F[i][j - 1] > NEG // 2
                else NEG
            )
            H[i][j] = max(diag, E[i][j], F[i][j])
    score = int(H[tlen][qlen])
    nl = banded.boundary_length(qlen, tlen, w)
    le = np.full(nl, NEG, dtype=np.int64)
    for bj in range(nl):
        i = bj + w
        if i + 1 <= tlen and H[i][bj] > NEG // 2:
            le[bj] = (
                max(
                    int(H[i][bj]) - go,
                    int(E[i][bj]) if E[i][bj] > NEG // 2 else NEG,
                )
                - ge_d
            )
    nu = banded.upper_boundary_length(qlen, tlen, w)
    uf = np.full(nu, NEG, dtype=np.int64)
    if nu > 0:
        uf[0] = h0 - go - (w + 1) * ge_i
    for i in range(1, nu):
        best = NEG
        for k in range(max(0, i - w), min(qlen, i + w) + 1):
            if H[i][k] <= NEG // 2:
                continue
            best = max(best, int(H[i][k]) - go - (i + w + 1 - k) * ge_i)
        uf[i] = best
    return score, le, uf


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


def _sweep(qlens, tlens, schemes, h0s, widths, n_random):
    """Run the differential sweep; returns the number of cases."""
    rng = np.random.default_rng(0)
    cases = 0
    for qlen in qlens:
        qset = _seqs(rng, n_random, qlen)
        for tlen in tlens:
            tset = _seqs(rng, n_random, tlen)
            for scoring, h0, w, (q, t) in itertools.product(
                schemes, h0s, widths, itertools.product(qset, tset)
            ):
                cases += 1
                want_scores, want_moff, want_be, want_bf = banded_oracle(
                    q, t, scoring, h0, w
                )
                for prune in (True, False):
                    got = banded.extend(
                        q, t, scoring, h0, w=w, prune=prune
                    )
                    assert got.scores() == want_scores, (
                        q, t, h0, w, prune, scoring
                    )
                    assert got.max_off == want_moff, (q, t, h0, w, prune)
                    np.testing.assert_array_equal(
                        got.boundary_e, want_be,
                        err_msg=f"{(q, t, h0, w, prune, scoring)}",
                    )
                    np.testing.assert_array_equal(
                        got.boundary_f, want_bf,
                        err_msg=f"{(q, t, h0, w, prune, scoring)}",
                    )
                if abs(tlen - qlen) <= w:
                    ws, wle, wuf = global_oracle(q, t, scoring, h0, w)
                    gg = globalband.global_align(q, t, scoring, h0, w=w)
                    assert gg.score == ws, (q, t, h0, w, scoring)
                    np.testing.assert_array_equal(
                        gg.lower_e, wle,
                        err_msg=f"{(q, t, h0, w, scoring)}",
                    )
                    np.testing.assert_array_equal(
                        gg.upper_f, wuf,
                        err_msg=f"{(q, t, h0, w, scoring)}",
                    )
    return cases


def test_band_boundary_sweep_tier1():
    """Reduced sweep: degenerate geometries at every tiny band width."""
    cases = _sweep(
        qlens=range(0, 5),
        tlens=range(1, 6),
        schemes=SCHEMES[:2],
        h0s=(0, 7),
        widths=(0, 1, 2, 3, 7),
        n_random=1,
    )
    assert cases > 3_000


@pytest.mark.slow
def test_band_boundary_sweep_exhaustive():
    """Full sweep: reads <= 6 bp vs refs <= 8 bp, every band width."""
    cases = _sweep(
        qlens=range(0, 7),
        tlens=range(1, 9),
        schemes=SCHEMES,
        h0s=(0, 1, 7),
        widths=range(0, 10),
        n_random=2,
    )
    assert cases == 158_400
