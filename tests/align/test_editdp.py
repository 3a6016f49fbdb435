"""Tests for the edit-distance kernels and the one relaxed sweep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.editdp import (
    ABOVE,
    BELOW,
    relaxed_sweep,
    relaxed_sweep_reference,
)
from repro.align.lockstep import GLOBAL, LOCAL_EXTEND, NEG_INF
from repro.align.scoring import BWA_MEM_SCORING
from repro.genome.sequence import encode

NONEMPTY = st.lists(st.integers(0, 3), min_size=1, max_size=12).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)


def edge_of(target, seed):
    """Below-region edge seeds, one per row: a constant or ``seed(i)``."""
    rows = range(len(target) + 1)
    return np.array([seed(i) if callable(seed) else seed for i in rows])


def below(q, t, band, seed, **kwargs):
    """The edit check's sweep: below the band, extension floor."""
    return relaxed_sweep(
        q, t, band, BELOW, LOCAL_EXTEND, edge_of(t, seed), **kwargs
    )


class TestLeftEntry:
    def test_empty_half_matrix(self):
        q = encode("ACGT")
        t = encode("AC")
        assert below(q, t, band=5, seed=10).size == 0

    def test_rejects_costly_insertions(self):
        q = encode("ACGT")
        t = encode("ACGTACGT")
        with pytest.raises(ValueError):
            below(q, t, 1, 10, scoring=BWA_MEM_SCORING)

    def test_seed_propagates_free_insertions(self):
        # With zero-cost insertions the corner seed reaches the last
        # column of its own row untouched.
        q = encode("ACGT")
        t = encode("TTTTTTTT")
        last = below(q, t, band=2, seed=lambda i: 9 if i == 3 else 0)
        assert last[0] == 9
        assert last.max() >= 9

    def test_distant_repeat_recovers_matches(self):
        # Target repeats the query after a long deletion; the DP must
        # pick the matches up on the shifted diagonal.
        q = encode("ACGTAC")
        t = encode("GGGG" + "ACGTAC")
        last = below(q, t, band=1, seed=20)
        assert last.max() >= 20 + len(q) - 2  # seed + most of the matches

    @settings(max_examples=150, deadline=None)
    @given(
        q=NONEMPTY,
        t=NONEMPTY,
        band=st.integers(0, 6),
        seed=st.integers(0, 25),
    )
    def test_fast_matches_reference(self, q, t, band, seed):
        edge = edge_of(t, seed)
        fast = relaxed_sweep(q, t, band, BELOW, LOCAL_EXTEND, edge)
        ref = relaxed_sweep_reference(q, t, band, BELOW, LOCAL_EXTEND, edge)
        assert (fast == ref).all()

    @settings(max_examples=80, deadline=None)
    @given(q=NONEMPTY, t=NONEMPTY, band=st.integers(0, 4))
    def test_callable_seed_matches_reference(self, q, t, band):
        edge = edge_of(t, lambda i: max(0, 15 - i))
        fast = relaxed_sweep(q, t, band, BELOW, LOCAL_EXTEND, edge)
        ref = relaxed_sweep_reference(q, t, band, BELOW, LOCAL_EXTEND, edge)
        assert (fast == ref).all()

    def test_monotone_in_seed(self):
        q = encode("ACGTACGTAC")
        t = encode("TTTTTACGTACGTAC")
        lo = below(q, t, 2, 5)
        hi = below(q, t, 2, 15)
        assert hi.max() >= lo.max()
        assert (hi >= lo).all()

    def test_dead_seed_dead_region(self):
        q = encode("ACGTACGT")
        t = encode("ACGTACGTACGT")
        assert (below(q, t, 2, 0) == 0).all()


SEED = st.one_of(st.integers(-30, 30), st.just(NEG_INF))
MAYBE_EMPTY = st.lists(st.integers(0, 3), min_size=0, max_size=9).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)


class TestRelaxedSweep:
    @settings(max_examples=300, deadline=None)
    @given(
        q=MAYBE_EMPTY,
        t=MAYBE_EMPTY,
        band=st.integers(0, 6),
        region=st.sampled_from([BELOW, ABOVE]),
        floor=st.sampled_from([LOCAL_EXTEND, GLOBAL]),
        data=st.data(),
    )
    def test_matches_loop_oracle(self, q, t, band, region, floor, data):
        """Both regions x both floors, with edge and channel seeds
        (negative and ``NEG_INF`` ones included), equal the cell loop —
        empty regions and empty sequences too."""
        n_edge = (len(t) if region == BELOW else len(q)) + 1
        edge = np.array(
            data.draw(st.lists(SEED, min_size=n_edge, max_size=n_edge))
        )
        channel = data.draw(
            st.none() | st.lists(SEED, max_size=8).map(np.array)
        )
        args = (q, t, band, region, floor, edge, channel)
        fast = relaxed_sweep(*args)
        ref = relaxed_sweep_reference(*args)
        assert fast.shape == ref.shape
        assert (fast == ref).all()

    def test_readout_spans_the_region_rows(self):
        q = encode("ACGTACGT")
        t = encode("ACGTAC")
        edge = np.zeros(9, dtype=np.int64)
        assert relaxed_sweep(q, t, 2, ABOVE, GLOBAL, edge).size == len(t) + 1
        assert relaxed_sweep(q, t, 2, BELOW, GLOBAL, edge).size == len(t) - 2
        assert relaxed_sweep(q, t, 8, ABOVE, GLOBAL, edge).size == 0

    def test_unknown_region_rejected(self):
        with pytest.raises(ValueError):
            relaxed_sweep(encode("AC"), encode("AC"), 0, "left", 0, [0] * 3)
