"""Tests for the adaptive-banding baseline."""

import numpy as np
import pytest

from repro.align import banded
from repro.analysis.adaptive import adaptive_extend
from repro.align.scoring import BWA_MEM_SCORING
from repro.genome.sequence import random_sequence
from tests.helpers import mutate


class TestBasics:
    def test_clean_match(self):
        rng = np.random.default_rng(0)
        q = random_sequence(60, rng)
        res = adaptive_extend(q, q.copy(), BWA_MEM_SCORING, 20, band=4)
        assert res.gscore == 20 + 60
        assert res.gpos == 60
        assert res.drift == 0

    def test_never_exceeds_full_band(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            q = random_sequence(int(rng.integers(5, 40)), rng)
            t = mutate(q, rng, subs=2, ins=2, dels=2)
            if len(t) == 0:
                t = q.copy()
            res = adaptive_extend(q, t, BWA_MEM_SCORING, 25, band=4)
            full = banded.extend(q, t, BWA_MEM_SCORING, 25)
            assert res.gscore <= full.gscore
            assert res.lscore <= full.lscore

    def test_tracks_deep_deletion_a_static_band_misses(self):
        """The adaptive band's selling point: it drifts with the path,
        so a deletion much deeper than the width still aligns."""
        rng = np.random.default_rng(2)
        ref = random_sequence(200, rng)
        d = 30
        q = np.concatenate([ref[:40], ref[40 + d : 40 + d + 60]]).astype(
            np.uint8
        )
        t = ref[: 40 + d + 60]
        adaptive = adaptive_extend(q, t, BWA_MEM_SCORING, 30, band=10)
        static = banded.extend(q, t, BWA_MEM_SCORING, 30, w=10)
        full = banded.extend(q, t, BWA_MEM_SCORING, 30)
        assert adaptive.gscore == full.gscore  # drifted across the gap
        assert static.gscore < full.gscore  # static w=10 cannot
        assert adaptive.drift >= d - 10

    def test_cells_scale_with_width_not_demand(self):
        rng = np.random.default_rng(3)
        ref = random_sequence(300, rng)
        q = np.concatenate([ref[:50], ref[90:150]]).astype(np.uint8)
        t = ref[:150]
        adaptive = adaptive_extend(q, t, BWA_MEM_SCORING, 40, band=8)
        wide_static = banded.extend(
            q, t, BWA_MEM_SCORING, 40, w=45, prune=False
        )
        assert adaptive.cells_computed < wide_static.cells_computed / 2

    def test_validation(self):
        q = random_sequence(10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            adaptive_extend(q, q, BWA_MEM_SCORING, -1, band=4)
        with pytest.raises(ValueError):
            adaptive_extend(q, q, BWA_MEM_SCORING, 10, band=0)


class TestNoGuarantee:
    def test_adaptive_banding_makes_silent_errors(self):
        """The reason SeedEx exists: an adversarial input where the
        drifting band follows a locally-best path and silently misses
        the optimum, with no signal that anything went wrong."""
        rng = np.random.default_rng(4)
        silent_errors = 0
        for _ in range(100):
            # The true alignment deletes a 30-char block X, but X's
            # first 10 characters continue the query (a decoy): the
            # drifting band follows the decoy rightward, and since it
            # can never retreat, the real continuation 30 columns to
            # the left is gone for good.
            q = random_sequence(85, rng)
            x = np.concatenate(
                [q[25:35], random_sequence(20, rng)]
            ).astype(np.uint8)
            t = np.concatenate([q[:25], x, q[25:]]).astype(np.uint8)
            res = adaptive_extend(q, t, BWA_MEM_SCORING, 30, band=5)
            full = banded.extend(q, t, BWA_MEM_SCORING, 30)
            if res.gscore != full.gscore:
                silent_errors += 1
        assert silent_errors > 50
