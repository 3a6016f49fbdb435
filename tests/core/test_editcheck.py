"""Admissibility and unit tests for the edit-distance check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import banded
from repro.align.editdp import BELOW
from repro.align.scoring import BWA_MEM_SCORING, AffineGap
from repro.core.editcheck import edge_seeds, sweep_bound
from repro.core.escore import NO_THREAT
from repro.core.thresholds import semiglobal_thresholds
from repro.genome.sequence import encode
from tests.helpers import enumerate_paths

TINY = st.lists(st.integers(0, 3), min_size=1, max_size=6).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)


def _thresholds(q, t, w, h0):
    return semiglobal_thresholds(BWA_MEM_SCORING, len(q), len(t), w, h0)


def score_ed(q, t, res, corner_s1=None):
    """The edit check: the column-0 dive's bound, no channel seeds."""
    return sweep_bound(
        q, t, res, BWA_MEM_SCORING, BELOW, corner_s1, channel_seeds=False
    )


class TestAdmissibility:
    @settings(max_examples=120, deadline=None)
    @given(q=TINY, t=TINY, h0=st.integers(1, 20), w=st.integers(0, 4))
    def test_bounds_left_entering_paths(self, q, t, h0, w):
        """Every path whose first band departure is the column-0 dive
        must score at most score_ed (both seeding variants)."""
        res = banded.extend(q, t, BWA_MEM_SCORING, h0, w=w)
        th = _thresholds(q, t, w, h0)
        for corner_s1 in (th.s1, None):
            bound = score_ed(q, t, res, corner_s1)
            for rec in enumerate_paths(q, t, BWA_MEM_SCORING, h0, w):
                if rec.first_departure is None:
                    continue
                side, col = rec.first_departure
                if side == "down" and col == 0:
                    assert rec.score <= bound

    @settings(max_examples=60, deadline=None)
    @given(q=TINY, t=TINY, h0=st.integers(1, 20), w=st.integers(0, 4))
    def test_exact_seed_is_tighter(self, q, t, h0, w):
        res = banded.extend(q, t, BWA_MEM_SCORING, h0, w=w)
        th = _thresholds(q, t, w, h0)
        loose = score_ed(q, t, res, corner_s1=th.s1)
        tight = score_ed(q, t, res)
        assert tight <= loose


class TestUnits:
    def test_exact_left_seeds_formula(self):
        t = encode("ACGT" * 26)
        res = banded.extend(encode("ACGT"), t, BWA_MEM_SCORING, 30, w=2)
        seed = edge_seeds(res, BWA_MEM_SCORING, BELOW)
        assert seed.size == len(t) + 1
        assert seed[0] == 24
        assert seed[5] == 30 - 6 - 5
        assert seed[100] == 30 - 6 - 100  # dead once the sweep floors it

    def test_no_region_no_threat(self):
        q = encode("ACGTACGT")
        t = encode("ACG")
        res = banded.extend(q, t, BWA_MEM_SCORING, 10, w=8)
        assert score_ed(q, t, res) == NO_THREAT

    def test_corner_seed_fires_once(self):
        q = encode("ACGT")
        res = banded.extend(q, encode("ACGT" * 3), BWA_MEM_SCORING, 9, w=5)
        seed = edge_seeds(res, BWA_MEM_SCORING, BELOW, corner_s1=17)
        assert seed[6] == 17
        assert seed[7] == 0
        assert seed[5] == 0

    def test_dead_half_matrix_no_threat(self):
        # Negative S1 seeds nothing; the bound must be NO_THREAT, not 0,
        # so that a score_nb of 0 is never "beaten" by a phantom path.
        q = encode("ACGTACGT")
        t = encode("ACGTACGTACGTACGT")
        res = banded.extend(q, t, BWA_MEM_SCORING, 2, w=2)
        assert score_ed(q, t, res, corner_s1=-5) == NO_THREAT
        assert score_ed(q, t, res) == NO_THREAT

    def test_non_dominating_scheme_rejected(self):
        # A match worth 2 outscores the relaxed scheme's 1: the sweep
        # would under-bound real paths, so the check refuses to run.
        scoring = AffineGap(match=2, mismatch=4, gap_open=6, gap_extend=1)
        q = encode("ACGTACGT")
        t = encode("ACGTACGTACGTACGT")
        res = banded.extend(q, t, scoring, 10, w=2)
        with pytest.raises(ValueError, match="dominate"):
            sweep_bound(q, t, res, scoring, BELOW)

    def test_distant_repeat_is_a_real_threat(self):
        # The query reappears after a long deletion: a left-entering
        # path genuinely beats the narrow band, and score_ed must not
        # pass a score below that path's value.
        q = encode("ACGTACGTAC")
        t = encode("GGGGGGGG" + "ACGTACGTAC")
        res = banded.extend(q, t, BWA_MEM_SCORING, 30, w=2)
        full = banded.extend(q, t, BWA_MEM_SCORING, 30)
        assert full.gscore > res.gscore
        assert score_ed(q, t, res) >= full.gscore
