"""Admissibility and unit tests for the E-score check."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import banded
from repro.align.scoring import BWA_MEM_SCORING
from repro.core.escore import NO_THREAT, score_max_e
from repro.genome.sequence import encode
from tests.helpers import enumerate_paths

TINY = st.lists(st.integers(0, 3), min_size=1, max_size=6).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)


class TestAdmissibility:
    @settings(max_examples=120, deadline=None)
    @given(q=TINY, t=TINY, h0=st.integers(1, 20), w=st.integers(0, 4))
    def test_bounds_top_entering_paths(self, q, t, h0, w):
        """Every path whose first band departure is a downward crossing
        at column >= 1 must score at most scoreMax_E."""
        res = banded.extend(q, t, BWA_MEM_SCORING, h0, w=w)
        bound = score_max_e(res, BWA_MEM_SCORING)
        for rec in enumerate_paths(q, t, BWA_MEM_SCORING, h0, w):
            if rec.first_departure is None:
                continue
            side, col = rec.first_departure
            if side == "down" and col >= 1:
                assert rec.score <= bound

    @settings(max_examples=60, deadline=None)
    @given(q=TINY, t=TINY, h0=st.integers(1, 20), w=st.integers(0, 4))
    def test_paper_formula_is_looser(self, q, t, h0, w):
        res = banded.extend(q, t, BWA_MEM_SCORING, h0, w=w)
        tight = score_max_e(res, BWA_MEM_SCORING)
        loose = score_max_e(res, BWA_MEM_SCORING, paper_formula=True)
        assert loose >= tight


class TestUnits:
    def test_no_region_no_threat(self):
        q = encode("ACGTACGT")
        t = encode("ACG")
        res = banded.extend(q, t, BWA_MEM_SCORING, 10, w=8)
        assert res.boundary_e.size == 0
        assert score_max_e(res, BWA_MEM_SCORING) == NO_THREAT

    def test_dead_boundary_gives_no_threat(self):
        # Unrelated target with a weak seed: the band dies early and
        # the lower boundary never carries a live E value.
        q = encode("AAAAAAAAAA")
        t = encode("TTTTTTTTTTTTTTTTTT")
        res = banded.extend(q, t, BWA_MEM_SCORING, 3, w=2)
        assert score_max_e(res, BWA_MEM_SCORING) == NO_THREAT

    def test_live_boundary_produces_bound(self):
        # Strong seed, long target: the E channel stays alive across
        # the band's lower edge.
        q = encode("ACGTACGTACGTACGT")
        t = encode("ACGTACGTACGTACGT" + "ACGT")
        res = banded.extend(q, t, BWA_MEM_SCORING, 60, w=3)
        bound = score_max_e(res, BWA_MEM_SCORING)
        assert bound > NO_THREAT
