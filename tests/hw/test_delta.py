"""Property tests for the modulo-circle residue arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.delta import (
    DELTA_MODULUS,
    AugmentationUnit,
    dmax2,
)

MAX_DELTA = (DELTA_MODULUS - 1) // 2
"""Largest pairwise difference the 3-bit circle can order."""


class TestDmax2:
    @settings(max_examples=300)
    @given(
        base=st.integers(-1000, 1000),
        d=st.integers(-MAX_DELTA, MAX_DELTA),
    )
    def test_orders_bounded_pairs(self, base, d):
        x1, x2 = base, base + d
        res, second = dmax2(x1 % DELTA_MODULUS, x2 % DELTA_MODULUS)
        assert res == max(x1, x2) % DELTA_MODULUS
        if d > 0:
            assert second

    def test_equal_inputs(self):
        res, second = dmax2(5, 5)
        assert res == 5
        assert not second

    @settings(max_examples=200)
    @given(
        base=st.integers(-500, 500),
        d1=st.integers(-MAX_DELTA, MAX_DELTA),
        d2=st.integers(-MAX_DELTA, MAX_DELTA),
    )
    def test_dmax3(self, base, d1, d2):
        xs = [base, base + d1, base + d2]
        if max(xs) - min(xs) > MAX_DELTA:
            # The 3-input unit redefines delta as the max *pairwise*
            # difference (paper Figure 9, right); out-of-range trios
            # are excluded by the scoring co-design.
            return
        # Two dmax2 stages, as the edit machine chains its candidates.
        first, _ = dmax2(xs[0] % DELTA_MODULUS, xs[1] % DELTA_MODULUS)
        res, _ = dmax2(first, xs[2] % DELTA_MODULUS)
        assert res == max(xs) % DELTA_MODULUS


class TestAugmentation:
    @settings(max_examples=200)
    @given(
        start=st.integers(-100, 1000),
        steps=st.lists(
            st.integers(-MAX_DELTA, MAX_DELTA), min_size=0, max_size=50
        ),
    )
    def test_decodes_bounded_walks_exactly(self, start, steps):
        aug = AugmentationUnit(start)
        value = start
        for d in steps:
            value += d
            assert aug.decode(value % DELTA_MODULUS) == value

    def test_rejects_bad_residue(self):
        aug = AugmentationUnit(10)
        with pytest.raises(ValueError):
            aug.decode(DELTA_MODULUS)

    def test_unbounded_step_decodes_wrong(self):
        """Sanity: the circle genuinely cannot follow a big jump."""
        aug = AugmentationUnit(0)
        jumped = MAX_DELTA + 2
        assert aug.decode(jumped % DELTA_MODULUS) != jumped
