"""Unit tests for the scoring schemes."""

import pytest

from repro.align.scoring import (
    BWA_MEM_SCORING,
    AffineGap,
    edit_scoring,
    relaxed_edit_scoring,
)
from repro.genome.sequence import AMBIGUOUS_CODE


class TestAffineGapValidation:
    def test_default_is_bwa_mem(self):
        assert BWA_MEM_SCORING.match == 1
        assert BWA_MEM_SCORING.mismatch == 4
        assert BWA_MEM_SCORING.gap_open == 6
        assert BWA_MEM_SCORING.gap_extend == 1

    def test_rejects_nonpositive_match(self):
        with pytest.raises(ValueError):
            AffineGap(match=0)

    def test_rejects_negative_penalties(self):
        with pytest.raises(ValueError):
            AffineGap(mismatch=-1)
        with pytest.raises(ValueError):
            AffineGap(gap_open=-2)
        with pytest.raises(ValueError):
            AffineGap(gap_extend=-1)
        with pytest.raises(ValueError):
            AffineGap(gap_extend_ins=-1)

    def test_split_extension_defaults_to_symmetric(self):
        s = AffineGap(match=2, mismatch=3, gap_open=4, gap_extend=2)
        assert s.gap_extend_ins == 2
        assert s.gap_extend_del == 2

    def test_asymmetric_extension(self):
        s = AffineGap(gap_extend=1, gap_extend_ins=0)
        assert s.gap_extend_ins == 0
        assert s.gap_extend_del == 1


class TestSubstitution:
    def test_match_and_mismatch(self):
        assert BWA_MEM_SCORING.substitution(0, 0) == 1
        assert BWA_MEM_SCORING.substitution(0, 3) == -4

    def test_ambiguous_never_matches(self):
        s = BWA_MEM_SCORING
        assert s.substitution(AMBIGUOUS_CODE, AMBIGUOUS_CODE) == -4
        assert s.substitution(AMBIGUOUS_CODE, 1) == -4
        assert s.substitution(2, AMBIGUOUS_CODE) == -4


class TestGapCost:
    def test_zero_length_gap_is_free(self):
        assert BWA_MEM_SCORING.gap_cost(0) == 0

    def test_affine_formula(self):
        assert BWA_MEM_SCORING.gap_cost(1) == 7
        assert BWA_MEM_SCORING.gap_cost(5) == 11

    def test_insertion_side(self):
        s = relaxed_edit_scoring()
        assert s.gap_cost(5, deletion=False) == 0
        assert s.gap_cost(5, deletion=True) == 5


class TestDominance:
    def test_edit_dominates_bwa(self):
        assert edit_scoring().dominates(BWA_MEM_SCORING)

    def test_relaxed_dominates_edit(self):
        assert relaxed_edit_scoring().dominates(edit_scoring())

    def test_dominance_is_reflexive(self):
        assert BWA_MEM_SCORING.dominates(BWA_MEM_SCORING)

    def test_bwa_does_not_dominate_edit(self):
        assert not BWA_MEM_SCORING.dominates(edit_scoring())


class TestDoubledGap:
    def test_doubles_only_gap_terms(self):
        d = BWA_MEM_SCORING.doubled_gap()
        assert d.match == 1
        assert d.mismatch == 4
        assert d.gap_open == 12
        assert d.gap_extend_ins == 2
        assert d.gap_extend_del == 2
