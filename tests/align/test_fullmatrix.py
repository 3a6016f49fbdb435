"""Tests for the dense DP oracle: hand-checked cases, brute-force
agreement, and traceback correctness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.fullmatrix import fill_extension, traceback_extension
from repro.align.globalbatch import fill_global_scalar
from repro.align.scoring import BWA_MEM_SCORING, AffineGap
from repro.genome.sequence import encode
from tests.helpers import brute_cell_scores

SMALL_SEQ = st.lists(st.integers(0, 3), min_size=1, max_size=6).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)


class TestHandChecked:
    def test_perfect_match(self):
        q = encode("ACGT")
        mats = fill_extension(q, q, BWA_MEM_SCORING, h0=10)
        assert mats.gscore == 14
        assert mats.gpos == 4
        assert mats.lscore == 14
        assert mats.lpos == (4, 4)

    def test_single_mismatch(self):
        q = encode("ACGT")
        t = encode("AGGT")
        mats = fill_extension(q, t, BWA_MEM_SCORING, h0=10)
        assert mats.gscore == 10 + 3 * 1 - 4

    def test_single_deletion(self):
        q = encode("ACGT")
        t = encode("ACTGT")  # extra T in the reference
        mats = fill_extension(q, t, BWA_MEM_SCORING, h0=20)
        # 4 matches, one 1-char deletion: 20 + 4 - (6 + 1) = 17
        assert mats.gscore == 17
        assert mats.gpos == 5

    def test_single_insertion(self):
        q = encode("ACTGT")
        t = encode("ACGT")
        mats = fill_extension(q, t, BWA_MEM_SCORING, h0=20)
        assert mats.gscore == 20 + 4 - 7

    def test_dead_seed_gives_dead_matrix(self):
        q = encode("ACGT")
        mats = fill_extension(q, q, BWA_MEM_SCORING, h0=0)
        assert mats.lscore == 0
        assert mats.gscore == 0
        assert (mats.h[1:, 1:] == 0).all()

    def test_negative_h0_rejected(self):
        q = encode("ACGT")
        with pytest.raises(ValueError):
            fill_extension(q, q, BWA_MEM_SCORING, h0=-1)

    def test_mismatch_kills_weak_seed(self):
        # h0=3: one mismatch (-4) drives the path dead.
        q = encode("TTTT")
        t = encode("GTTT")
        mats = fill_extension(q, t, BWA_MEM_SCORING, h0=3)
        assert mats.h[1][1] == 0

    def test_tie_breaks_to_smallest_position(self):
        # Two cells achieve the same lscore; earliest row wins.
        q = encode("AA")
        t = encode("AAAA")
        mats = fill_extension(q, t, BWA_MEM_SCORING, h0=5)
        assert mats.lscore == 7
        assert mats.lpos == (2, 2)


class TestBruteForceAgreement:
    @settings(max_examples=150, deadline=None)
    @given(q=SMALL_SEQ, t=SMALL_SEQ, h0=st.integers(1, 15))
    def test_cell_scores_match_path_enumeration(self, q, t, h0):
        mats = fill_extension(q, t, BWA_MEM_SCORING, h0)
        brute = brute_cell_scores(q, t, BWA_MEM_SCORING, h0)
        assert (mats.h == brute).all()

    @settings(max_examples=60, deadline=None)
    @given(
        q=SMALL_SEQ,
        t=SMALL_SEQ,
        h0=st.integers(1, 15),
        go=st.integers(0, 4),
        ge=st.integers(0, 3),
        x=st.integers(1, 4),
    )
    def test_agreement_across_scoring_schemes(self, q, t, h0, go, ge, x):
        scoring = AffineGap(match=2, mismatch=x, gap_open=go, gap_extend=ge)
        mats = fill_extension(q, t, scoring, h0)
        brute = brute_cell_scores(q, t, scoring, h0)
        assert (mats.h == brute).all()


class TestGlobal:
    def test_perfect_match(self):
        q = encode("ACGTAC")
        assert fill_global_scalar(q, q, BWA_MEM_SCORING).score == 6

    def test_global_penalizes_length_difference(self):
        q = encode("ACGT")
        t = encode("ACGTGG")
        score = fill_global_scalar(q, t, BWA_MEM_SCORING).score
        assert score == 4 - (6 + 2)

    def test_scores_can_go_negative(self):
        q = encode("AAAA")
        t = encode("TTTT")
        assert fill_global_scalar(q, t, BWA_MEM_SCORING).score == -16


class TestTraceback:
    def _score_of_cigar(self, cigar, q, t, scoring, h0):
        """Re-score a CIGAR against the sequences (independent check)."""
        score = h0
        i = j = 0
        for length, op in cigar.ops:
            if op == "M":
                for _ in range(length):
                    score += scoring.substitution(int(t[i]), int(q[j]))
                    i += 1
                    j += 1
            elif op == "D":
                score -= scoring.gap_open + length * scoring.gap_extend_del
                i += length
            elif op == "I":
                score -= scoring.gap_open + length * scoring.gap_extend_ins
                j += length
        return score, i, j

    def test_traceback_perfect(self):
        q = encode("ACGTACGT")
        cigar = traceback_extension(q, q, BWA_MEM_SCORING, 10, (8, 8))
        assert str(cigar) == "8M"

    def test_traceback_with_deletion(self):
        q = encode("ACGTACGT")
        t = encode("ACGTTACGT")
        mats = fill_extension(q, t, BWA_MEM_SCORING, 20)
        cigar = traceback_extension(
            q, t, BWA_MEM_SCORING, 20, (mats.gpos, len(q))
        )
        assert cigar.reference_length == 9
        assert cigar.query_length == 8
        assert "D" in str(cigar)

    @settings(max_examples=100, deadline=None)
    @given(q=SMALL_SEQ, t=SMALL_SEQ, h0=st.integers(8, 20))
    def test_traceback_score_reconstructs(self, q, t, h0):
        mats = fill_extension(q, t, BWA_MEM_SCORING, h0)
        i, j = mats.lpos
        if mats.h[i][j] <= 0 or (i, j) == (0, 0):
            return
        cigar = traceback_extension(q, t, BWA_MEM_SCORING, h0, (i, j))
        score, ti, qj = self._score_of_cigar(
            cigar, q, t, BWA_MEM_SCORING, h0
        )
        assert (ti, qj) == (i, j)
        assert score == mats.lscore

    def test_dead_cell_rejected(self):
        q = encode("AAAA")
        t = encode("TTTT")
        with pytest.raises(ValueError):
            traceback_extension(q, t, BWA_MEM_SCORING, 2, (4, 4))

    def test_out_of_range_rejected(self):
        q = encode("ACGT")
        with pytest.raises(ValueError):
            traceback_extension(q, q, BWA_MEM_SCORING, 10, (9, 2))
