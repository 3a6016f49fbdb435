"""Tests for the Levenshtein-automaton state counts of Figure 18."""

import pytest

from repro.hw.automaton import seedex_pe_count, silla_state_count


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

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            silla_state_count(-1)
