"""Tests for the banded global alignment kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.banded import boundary_length as lower_boundary_length
from repro.align.banded import upper_boundary_length
from repro.align.fullmatrix import traceback_global
from repro.align.globalband import global_align
from repro.align.lockstep import NEG_INF
from repro.align.globalbatch import fill_global_scalar
from repro.align.scoring import BWA_MEM_SCORING, AffineGap
from repro.genome.sequence import encode

SEQ = st.lists(st.integers(0, 3), min_size=1, max_size=16).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)


class TestFullBandEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(q=SEQ, t=SEQ, h0=st.integers(0, 20))
    def test_matches_dense_oracle(self, q, t, h0):
        res = global_align(q, t, BWA_MEM_SCORING, h0)
        # h0 only shifts a global score: the oracle fills from 0.
        oracle = fill_global_scalar(q, t, BWA_MEM_SCORING)
        assert res.score == oracle.score + h0

    @settings(max_examples=80, deadline=None)
    @given(
        q=SEQ,
        t=SEQ,
        go=st.integers(0, 6),
        ge=st.integers(1, 3),
    )
    def test_other_schemes(self, q, t, go, ge):
        scoring = AffineGap(match=2, mismatch=3, gap_open=go, gap_extend=ge)
        res = global_align(q, t, scoring)
        oracle = fill_global_scalar(q, t, scoring)
        assert res.score == oracle.score


class TestBandSemantics:
    @settings(max_examples=150, deadline=None)
    @given(q=SEQ, t=SEQ, w=st.integers(0, 12))
    def test_banded_never_exceeds_full(self, q, t, w):
        if abs(len(t) - len(q)) > w:
            return
        banded = global_align(q, t, BWA_MEM_SCORING, w=w)
        full = global_align(q, t, BWA_MEM_SCORING)
        assert banded.score <= full.score

    def test_band_monotone(self):
        q = encode("ACGTACGTACGT")
        t = encode("ACGGGGTACGTACGT")
        prev = NEG_INF
        for w in range(3, 16):
            score = global_align(q, t, BWA_MEM_SCORING, w=w).score
            assert score >= prev
            prev = score

    def test_endpoint_outside_band_rejected(self):
        with pytest.raises(ValueError):
            global_align(encode("AC"), encode("ACGTACGT"), BWA_MEM_SCORING, w=2)

    def test_negative_band_rejected(self):
        with pytest.raises(ValueError):
            global_align(encode("AC"), encode("AC"), BWA_MEM_SCORING, w=-1)


class TestBoundaryCapture:
    def test_boundary_lengths(self):
        assert lower_boundary_length(10, 20, 4) == 11
        assert lower_boundary_length(10, 4, 4) == 0
        assert upper_boundary_length(20, 10, 4) == 11
        assert upper_boundary_length(4, 10, 4) == 0

    def test_lower_e_matches_dense(self):
        """lower_e[j] must equal the band-masked E value entering the
        below-band cell (j+w+1, j)."""
        rng = np.random.default_rng(0)
        for _ in range(30):
            q = rng.integers(0, 4, size=10).astype(np.uint8)
            t = rng.integers(0, 4, size=14).astype(np.uint8)
            w = int(rng.integers(4, 8))
            res = global_align(q, t, BWA_MEM_SCORING, 5, w=w)
            ref = _banded_dense(q, t, BWA_MEM_SCORING, 5, w)
            for j in range(res.lower_e.size):
                i = j + w
                expect = (
                    max(ref["h"][i][j] - 6, ref["e"][i][j]) - 1
                )
                assert res.lower_e[j] == expect

    def test_upper_f_row0(self):
        q = encode("ACGTACGTAC")
        res = global_align(q, encode("ACGT"), BWA_MEM_SCORING, 7, w=6)
        # F into (0, 7): init-gap extension.
        assert res.upper_f[0] == 7 - 6 - 7 * 1


def _banded_dense(q, t, scoring, h0, w):
    """Loop-based banded global DP keeping all channels (tests only)."""
    qlen, tlen = len(q), len(t)
    go, ge = scoring.gap_open, scoring.gap_extend
    h = np.full((tlen + 1, qlen + 1), NEG_INF, dtype=np.int64)
    e = np.full((tlen + 1, qlen + 1), NEG_INF, dtype=np.int64)
    f = np.full((tlen + 1, qlen + 1), NEG_INF, dtype=np.int64)
    h[0][0] = h0
    for j in range(1, min(qlen, w) + 1):
        f[0][j] = h0 - go - j * ge
        h[0][j] = f[0][j]
    for i in range(1, tlen + 1):
        if i <= w:
            e[i][0] = h0 - go - i * ge
            h[i][0] = e[i][0]
        for j in range(max(1, i - w), min(qlen, i + w) + 1):
            if abs(i - 1 - (j - 1)) <= w:
                diag = h[i - 1][j - 1] + scoring.substitution(
                    int(t[i - 1]), int(q[j - 1])
                )
            else:
                diag = NEG_INF
            e[i][j] = max(h[i - 1][j] - go, e[i - 1][j]) - ge
            if abs(i - 1 - j) > w:
                e[i][j] = NEG_INF
            f[i][j] = max(h[i][j - 1] - go, f[i][j - 1]) - ge
            if abs(i - (j - 1)) > w:
                f[i][j] = NEG_INF
            h[i][j] = max(diag, e[i][j], f[i][j])
    return {"h": h, "e": e, "f": f}


class TestGlobalTraceback:
    @settings(max_examples=100, deadline=None)
    @given(q=SEQ, t=SEQ)
    def test_cigar_rescored_matches(self, q, t):
        cigar = traceback_global(q, t, BWA_MEM_SCORING)
        assert cigar.query_length == len(q)
        assert cigar.reference_length == len(t)
        # Re-score the trace independently.
        score = 0
        i = j = 0
        for length, op in cigar.ops:
            if op == "M":
                for _ in range(length):
                    score += BWA_MEM_SCORING.substitution(
                        int(t[i]), int(q[j])
                    )
                    i += 1
                    j += 1
            elif op == "D":
                score -= 6 + length
                i += length
            else:
                score -= 6 + length
                j += length
        assert score == global_align(q, t, BWA_MEM_SCORING).score
