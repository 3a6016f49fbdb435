"""Admissibility tests for the above-band machinery (local target)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import banded
from repro.align.editdp import ABOVE, BELOW
from repro.align.scoring import BWA_MEM_SCORING
from repro.core.editcheck import sweep_bound
from repro.core.escore import NO_THREAT
from repro.genome.sequence import encode
from tests.helpers import enumerate_paths

TINY = st.lists(st.integers(0, 3), min_size=1, max_size=6).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)


class TestBoundaryFCap:
    @settings(max_examples=120, deadline=None)
    @given(q=TINY, t=TINY, h0=st.integers(1, 20), w=st.integers(0, 4))
    def test_caps_upward_crossing_arrivals(self, q, t, h0, w):
        """Every path's score at its first upward crossing into cell
        (i, i+w+1) is at most boundary_f[i]."""
        res = banded.extend(q, t, BWA_MEM_SCORING, h0, w=w)
        go = BWA_MEM_SCORING.gap_open
        ge = BWA_MEM_SCORING.gap_extend_ins
        for rec in enumerate_paths(q, t, BWA_MEM_SCORING, h0, w):
            dep = rec.first_departure
            if dep is None or dep[0] != "up":
                continue
            # Only check records AT the crossing cell itself.
            if rec.j - rec.i != w + 1:
                continue
            if rec.j != dep[1]:
                continue
            i = rec.i
            if i < res.boundary_f.size:
                assert rec.score <= res.boundary_f[i], (
                    f"arrival {rec.score} at row {i} exceeds cap "
                    f"{res.boundary_f[i]}"
                )


class TestAboveSweep:
    @settings(max_examples=120, deadline=None)
    @given(q=TINY, t=TINY, h0=st.integers(1, 20), w=st.integers(0, 4))
    def test_bounds_upward_departing_paths_anywhere(self, q, t, h0, w):
        """The above sweep's bound covers every upward-departing path
        at every endpoint (the local target's requirement)."""
        res = banded.extend(q, t, BWA_MEM_SCORING, h0, w=w)
        bound = sweep_bound(q, t, res, BWA_MEM_SCORING, ABOVE)
        for rec in enumerate_paths(q, t, BWA_MEM_SCORING, h0, w):
            dep = rec.first_departure
            if dep is None or dep[0] != "up":
                continue
            assert rec.score <= max(bound, 0), (
                f"path score {rec.score} beats above bound {bound}"
            )

    def test_no_region_no_threat(self):
        q = encode("ACG")
        t = encode("ACGTACGT")
        res = banded.extend(q, t, BWA_MEM_SCORING, 10, w=5)
        assert sweep_bound(q, t, res, BWA_MEM_SCORING, ABOVE) == NO_THREAT


class TestTopSeededBelowSweep:
    @settings(max_examples=120, deadline=None)
    @given(q=TINY, t=TINY, h0=st.integers(1, 20), w=st.integers(0, 4))
    def test_bounds_all_downward_departures(self, q, t, h0, w):
        """With top seeds, the below sweep bounds downward departures
        at every column (0 included) and every endpoint."""
        res = banded.extend(q, t, BWA_MEM_SCORING, h0, w=w)
        bound = sweep_bound(q, t, res, BWA_MEM_SCORING, BELOW)
        for rec in enumerate_paths(q, t, BWA_MEM_SCORING, h0, w):
            dep = rec.first_departure
            if dep is None or dep[0] != "down":
                continue
            assert rec.score <= max(bound, 0)
