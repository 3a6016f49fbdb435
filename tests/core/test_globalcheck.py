"""The global-mode theorem and admissibility tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.editdp import ABOVE, BELOW
from repro.align.globalband import global_align
from repro.align.scoring import BWA_MEM_SCORING, AffineGap
from repro.core.editcheck import sweep_bound
from repro.core.globalcheck import (
    GlobalChecker,
    GlobalOutcome,
    GlobalSeedEx,
)
from repro.genome.sequence import encode, random_sequence
from tests.helpers import enumerate_paths, mutate

SEQ = st.lists(st.integers(0, 3), min_size=1, max_size=20).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)
TINY = st.lists(st.integers(0, 3), min_size=1, max_size=6).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)


class TestGlobalTheorem:
    @settings(max_examples=250, deadline=None)
    @given(q=SEQ, t=SEQ, h0=st.integers(0, 25), w=st.integers(0, 10))
    def test_accepted_equals_full_band(self, q, t, h0, w):
        """The global guarantee: the returned score never depends on
        the band."""
        gx = GlobalSeedEx(band=w)
        out = gx.align(q, t, h0)
        full = global_align(q, t, BWA_MEM_SCORING, h0)
        assert out.result.score == full.score
        if not out.rerun:
            assert out.narrow_result.score == full.score

    @settings(max_examples=150, deadline=None)
    @given(
        q=SEQ,
        edits=st.tuples(
            st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
        ),
        seed=st.integers(0, 2**31),
        w=st.integers(0, 10),
    )
    def test_related_pairs(self, q, edits, seed, w):
        rng = np.random.default_rng(seed)
        subs, ins, dels = edits
        t = mutate(q, rng, subs=subs, ins=ins, dels=dels)
        if len(t) == 0:
            t = q.copy()
        gx = GlobalSeedEx(band=w)
        out = gx.align(q, t, 10)
        assert out.result.score == global_align(
            q, t, BWA_MEM_SCORING, 10
        ).score


class TestScoringSchemes:
    """The global checks under schemes other than BWA-MEM's."""

    def test_non_dominated_scheme_refused_not_wrong(self):
        """Match 3 outscores the relaxed scheme's match 1, so the sweeps
        under-bound real paths.  This pair once came back as score 11
        with no rerun while the full band scores 14; now the bound
        builder's dominance guard refuses it."""
        scoring = AffineGap(match=3, mismatch=4, gap_open=6, gap_extend=1)
        q = encode("CCGCACCGATG")
        t = encode("ACACCGACCGATG")
        assert global_align(q, t, scoring).score == 14
        with pytest.raises(ValueError, match="dominate"):
            GlobalSeedEx(band=2, scoring=scoring).align(q, t)

    @settings(max_examples=150, deadline=None)
    @given(q=SEQ, t=SEQ, h0=st.integers(0, 25), w=st.integers(0, 10))
    def test_dominated_scheme_keeps_the_guarantee(self, q, t, h0, w):
        scoring = AffineGap(match=1, mismatch=3, gap_open=5, gap_extend=2)
        out = GlobalSeedEx(band=w, scoring=scoring).align(q, t, h0)
        assert out.result.score == global_align(q, t, scoring, h0).score


class TestBoundAdmissibility:
    @settings(max_examples=100, deadline=None)
    @given(q=TINY, t=TINY, h0=st.integers(0, 15), w=st.integers(0, 4))
    def test_sweeps_bound_departing_global_paths(self, q, t, h0, w):
        """Brute force: every band-leaving path reaching the corner
        scores at most the corresponding sweep bound."""
        if abs(len(t) - len(q)) > w:
            return
        res = global_align(q, t, BWA_MEM_SCORING, h0, w=w)
        below = sweep_bound(q, t, res, BWA_MEM_SCORING, BELOW)
        above = sweep_bound(q, t, res, BWA_MEM_SCORING, ABOVE)
        for rec in enumerate_paths(
            q, t, BWA_MEM_SCORING, h0, w, dead_at_zero=False
        ):
            if rec.first_departure is None:
                continue
            if rec.i != len(t) or rec.j != len(q):
                continue
            side = rec.first_departure[0]
            if side == "down":
                assert rec.score <= below
            else:
                assert rec.score <= above


class TestCanonicalScenarios:
    def test_band_deep_deletion_with_early_noise_passes(self):
        """The case-c input the global checks exist for: a deletion at
        the band limit, substitutions near the start, clean suffix."""
        rng = np.random.default_rng(5)
        w = 12
        for _ in range(30):
            ref = random_sequence(160, rng)
            q = np.concatenate(
                [ref[:30], ref[30 + w : 120]]
            ).astype(np.uint8)
            for p in (2, 5, 9):
                q[p] = (q[p] + 1) % 4
            t = ref[:120]
            gx = GlobalSeedEx(band=w)
            out = gx.align(q, t, 0)
            assert out.decision.outcome == GlobalOutcome.PASS_CHECKS
            assert not out.rerun

    def test_out_of_band_excursion_reruns(self):
        """A 40-char deletion offset by a 35-char insertion keeps the
        endpoint diagonal small but the optimal path 40 deep — far
        outside a w=10 band.  The checker must refuse and rerun."""
        rng = np.random.default_rng(6)
        ref = random_sequence(200, rng)
        q = np.concatenate(
            [ref[:30], ref[70:110], random_sequence(35, rng)]
        ).astype(np.uint8)
        t = ref[:115]  # d0 = 10 fits the band; the path does not
        gx = GlobalSeedEx(band=10)
        out = gx.align(q, t, 0)
        full = global_align(q, t, BWA_MEM_SCORING, 0)
        assert out.result.score == full.score
        assert out.narrow_result.score < full.score
        assert out.rerun

    def test_clean_pair_passes_threshold(self):
        rng = np.random.default_rng(7)
        q = random_sequence(80, rng)
        gx = GlobalSeedEx(band=5)
        out = gx.align(q, q.copy(), 0)
        assert out.decision.outcome == GlobalOutcome.PASS_THRESHOLD
        assert out.result.score == 80

    def test_stats_accounting(self):
        rng = np.random.default_rng(8)
        gx = GlobalSeedEx(band=4)
        for _ in range(40):
            q = random_sequence(30, rng)
            t = mutate(q, rng, subs=2, dels=2)
            if len(t) == 0:
                t = q.copy()
            gx.align(q, t, 5)
        assert gx.stats.total == 40
        assert gx.stats.passed + gx.stats.reruns == 40
        assert 0.0 <= gx.stats.passing_rate <= 1.0

    def test_checker_reports_bounds_in_case_c(self):
        rng = np.random.default_rng(9)
        w = 12
        ref = random_sequence(160, rng)
        q = np.concatenate([ref[:30], ref[30 + w : 120]]).astype(np.uint8)
        for p in (2, 5, 9):
            q[p] = (q[p] + 1) % 4
        t = ref[:120]
        res = global_align(q, t, BWA_MEM_SCORING, 0, w=w)
        decision = GlobalChecker(BWA_MEM_SCORING).check(q, t, res)
        assert decision.outcome == GlobalOutcome.PASS_CHECKS
        assert decision.below_bound is not None
        assert decision.above_bound is not None
        assert decision.below_bound < decision.score_nb
        assert decision.above_bound < decision.score_nb
