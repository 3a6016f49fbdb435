"""Tests for the Levenshtein automaton baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.automaton import (
    LevenshteinAutomaton,
    nfa_state_count,
    seedex_pe_count,
    silla_state_count,
    within_distance,
)
from repro.align.editdp import levenshtein
from repro.genome.sequence import encode

SEQ = st.lists(st.integers(0, 3), min_size=0, max_size=12).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)


class TestRecognition:
    @settings(max_examples=250, deadline=None)
    @given(a=SEQ, b=SEQ, k=st.integers(0, 5))
    def test_equivalent_to_dp_edit_distance(self, a, b, k):
        assert within_distance(a, b, k) == (levenshtein(a, b) <= k)

    @settings(max_examples=100, deadline=None)
    @given(a=SEQ, b=SEQ, k=st.integers(0, 4))
    def test_min_errors_is_exact_when_within(self, a, b, k):
        auto = LevenshteinAutomaton(a, k)
        for c in b:
            auto.feed(int(c))
        d = levenshtein(a, b)
        if d <= k:
            assert auto.min_errors() == d
        else:
            assert auto.min_errors() is None

    def test_exact_match(self):
        p = encode("ACGT")
        auto = LevenshteinAutomaton(p, 0)
        for c in p:
            auto.feed(int(c))
        assert auto.accepts
        assert auto.min_errors() == 0

    def test_dead_automaton_stays_dead(self):
        p = encode("AAAA")
        auto = LevenshteinAutomaton(p, 1)
        for c in encode("TTT"):
            auto.feed(int(c))
        assert not auto.alive

    def test_reset(self):
        p = encode("ACG")
        auto = LevenshteinAutomaton(p, 1)
        for c in encode("TTTTT"):
            auto.feed(int(c))
        auto.reset()
        for c in p:
            auto.feed(int(c))
        assert auto.accepts

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            LevenshteinAutomaton(encode("AC"), -1)


class TestAutomatonExtend:
    @settings(max_examples=150, deadline=None)
    @given(q=SEQ, t=SEQ, k=st.integers(0, 4))
    def test_matches_dp_semiglobal_edit_distance(self, q, t, k):
        from repro.hw.automaton import automaton_extend

        best, end = automaton_extend(q, t, k)
        truth = min(
            (levenshtein(q, t[:j]) for j in range(len(t) + 1)),
            default=len(q),
        )
        if truth <= k:
            assert best == truth
            assert levenshtein(q, t[:end]) == truth
        else:
            assert best is None
            assert end == -1

    def test_clean_extension(self):
        from repro.hw.automaton import automaton_extend

        q = encode("ACGTACGT")
        t = encode("ACGTACGTTTTT")
        best, end = automaton_extend(q, t, 2)
        assert best == 0
        assert end == 8

    def test_budget_exceeded(self):
        from repro.hw.automaton import automaton_extend

        q = encode("AAAAAAAA")
        t = encode("TTTTTTTT")
        best, end = automaton_extend(q, t, 2)
        assert best is None and end == -1


class TestStateScaling:
    def test_silla_is_quadratic(self):
        """The Figure 18 mechanism: automaton states grow O(K^2)
        while the banded array's PEs grow O(K)."""
        for k in (4, 8, 16, 32):
            # Doubling K nearly quadruples automaton states ...
            assert silla_state_count(2 * k) > 3.3 * silla_state_count(k)
            # ... but no more than doubles the banded array's PEs.
            assert seedex_pe_count(2 * k) < 2.1 * seedex_pe_count(k)

    def test_paper_operating_point(self):
        # GenAx: K=32, band w = 2K+1 = 65.
        k = 32
        states = silla_state_count(k)
        pes = seedex_pe_count(k)
        assert states / pes > 30  # an order of magnitude+ apart

    def test_nfa_count(self):
        assert nfa_state_count(100, 3) == 101 * 4

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            silla_state_count(-1)
