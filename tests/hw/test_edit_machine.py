"""Validation of the delta-encoded edit machine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import banded
from repro.align.editdp import BELOW, relaxed_sweep
from repro.align.lockstep import LOCAL_EXTEND
from repro.align.scoring import BWA_MEM_SCORING
from repro.core.editcheck import edge_seeds
from repro.genome.sequence import random_sequence
from repro.hw.edit_machine import EditMachine
from tests.helpers import mutate

SEQ = st.lists(st.integers(0, 3), min_size=2, max_size=16).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)


def exact_edge(q, t, band, h0):
    """The edit check's exact per-row seeds for this extension."""
    result = banded.extend(q, t, BWA_MEM_SCORING, h0, w=band)
    return edge_seeds(result, BWA_MEM_SCORING, BELOW)


def software(q, t, band, edge):
    """The one relaxed sweep, in the region the edit machine covers."""
    return relaxed_sweep(q, t, band, BELOW, LOCAL_EXTEND, edge)


class TestDecodedEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(
        q=SEQ,
        t=SEQ,
        band=st.integers(1, 6),
        seed_val=st.integers(0, 30),
    )
    def test_constant_seed_matches_software(self, q, t, band, seed_val):
        """3-bit residues must decode to the full-width DP exactly."""
        edge = np.full(len(t) + 1, seed_val)
        run = EditMachine(band).run(q, t, edge)
        sw = software(q, t, band, edge)
        assert run.best == int(sw.max(initial=0))
        assert (run.last_column == sw).all()

    @settings(max_examples=100, deadline=None)
    @given(q=SEQ, t=SEQ, band=st.integers(1, 6), h0=st.integers(1, 35))
    def test_exact_seeds_match_software(self, q, t, band, h0):
        edge = exact_edge(q, t, band, h0)
        run = EditMachine(band).run(q, t, edge)
        sw = software(q, t, band, edge)
        assert run.best == int(sw.max(initial=0))
        assert (run.last_column == sw).all()

    def test_realistic_corpus_never_violates_delta_range(self):
        """The relaxed scoring was co-designed to fit the 3-bit circle;
        no realistic input may trigger DeltaRangeError."""
        rng = np.random.default_rng(0)
        for _ in range(100):
            q = random_sequence(int(rng.integers(5, 30)), rng)
            t = mutate(q, rng, subs=2, ins=1, dels=2)
            t = np.concatenate(
                [t, random_sequence(int(rng.integers(0, 20)), rng)]
            ).astype(np.uint8)
            if len(t) == 0:
                t = q.copy()
            band = int(rng.integers(1, 8))
            edge = exact_edge(q, t, band, int(rng.integers(1, 40)))
            EditMachine(band).run(q, t, edge)


class TestConstruction:
    def test_rejects_costly_insertions(self):
        with pytest.raises(ValueError):
            EditMachine(3, scoring=BWA_MEM_SCORING)

    def test_rejects_bad_band(self):
        with pytest.raises(ValueError):
            EditMachine(0)

    def test_half_width_pe_count(self):
        em = EditMachine(4)
        assert em.pe_count(100) == 51  # half the full-width array

    def test_empty_half_matrix(self):
        em = EditMachine(10)
        q = random_sequence(5, np.random.default_rng(0))
        run = em.run(q, q, np.full(6, 7))
        assert run.best == 0
        assert run.cells_computed == 0
