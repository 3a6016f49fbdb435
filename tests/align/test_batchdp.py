"""Bit-equivalence tests for the lockstep sweep's extension capture set.

:func:`repro.align.lockstep.extend_batch` runs a batch of seed
extensions through the one lockstep recurrence; every field must
equal the per-job scalar kernel :func:`repro.align.banded.extend`
(``prune=False``) except the execution-shape ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import banded
from repro.align.lockstep import extend_batch, plan_buckets
from repro.align.scoring import BWA_MEM_SCORING, AffineGap
from repro.genome.synth import extension_corpus

SEQ = st.lists(st.integers(0, 3), min_size=1, max_size=14).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)
BATCH = st.lists(
    st.tuples(SEQ, SEQ, st.integers(1, 30)), min_size=1, max_size=8
)
# N bases (code 4), empty sequences and a dead seed (h0 = 0).
SEQ_N = st.lists(st.integers(0, 4), min_size=0, max_size=14).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)
BATCH_N = st.lists(
    st.tuples(SEQ_N, SEQ_N, st.sampled_from([0, 1, 7, 30])),
    min_size=1,
    max_size=8,
)


def _assert_equal(batch_results, queries, targets, h0s, w, scoring=None):
    scoring = scoring or BWA_MEM_SCORING
    for k, res in enumerate(batch_results):
        ref = banded.extend(
            queries[k], targets[k], scoring, h0s[k], w=w, prune=False
        )
        assert res.scores() == ref.scores(), f"job {k}"
        assert (res.boundary_e == ref.boundary_e).all(), f"job {k}"
        assert (res.boundary_f == ref.boundary_f).all(), f"job {k}"
        assert res.max_off == ref.max_off, f"job {k}"
        if w is not None:
            assert res.band == ref.band, f"job {k}"
        assert (res.h0, res.qlen, res.tlen) == (ref.h0, ref.qlen, ref.tlen)
        assert res.cells_computed == min(
            2 * res.band + 1, res.qlen + 1
        ) * res.tlen


class TestEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(batch=BATCH, w=st.integers(1, 10))
    def test_ragged_batches_match_scalar(self, batch, w):
        queries = [q for q, _, _ in batch]
        targets = [t for _, t, _ in batch]
        h0s = [h for _, _, h in batch]
        results = extend_batch(queries, targets, h0s, BWA_MEM_SCORING, w=w)
        _assert_equal(results, queries, targets, h0s, w)

    @settings(max_examples=50, deadline=None)
    @given(batch=BATCH)
    def test_full_band(self, batch):
        queries = [q for q, _, _ in batch]
        targets = [t for _, t, _ in batch]
        h0s = [h for _, _, h in batch]
        results = extend_batch(queries, targets, h0s, BWA_MEM_SCORING)
        _assert_equal(results, queries, targets, h0s, None)

    @settings(max_examples=40, deadline=None)
    @given(
        batch=BATCH,
        w=st.integers(1, 8),
        go=st.integers(0, 6),
        ge=st.integers(1, 3),
    )
    def test_other_schemes(self, batch, w, go, ge):
        scoring = AffineGap(match=2, mismatch=3, gap_open=go, gap_extend=ge)
        queries = [q for q, _, _ in batch]
        targets = [t for _, t, _ in batch]
        h0s = [h for _, _, h in batch]
        results = extend_batch(queries, targets, h0s, scoring, w=w)
        for k, res in enumerate(results):
            ref = banded.extend(queries[k], targets[k], scoring, h0s[k], w=w)
            assert res.scores() == ref.scores()

    @settings(max_examples=80, deadline=None)
    @given(batch=BATCH_N, w=st.sampled_from([None, 0, 1, 3, 20]))
    def test_w0_n_bases_and_dead_seeds(self, batch, w):
        """Cases the row kernel's tests never drew: the degenerate
        ``w = 0`` band, N bases, empty sequences and ``h0 = 0``."""
        queries = [q for q, _, _ in batch]
        targets = [t for _, t, _ in batch]
        h0s = [h for _, _, h in batch]
        results = extend_batch(queries, targets, h0s, BWA_MEM_SCORING, w=w)
        _assert_equal(results, queries, targets, h0s, w)

    @settings(max_examples=40, deadline=None)
    @given(
        batch=BATCH_N,
        w=st.integers(0, 6),
        scoring=st.builds(
            AffineGap,
            match=st.integers(1, 3),
            mismatch=st.integers(0, 4),
            gap_open=st.integers(0, 6),
            gap_extend=st.integers(0, 3),
            gap_extend_ins=st.integers(0, 3),
        ),
    )
    def test_every_field_under_other_schemes(self, batch, w, scoring):
        """Boundary channels too, zero-cost gaps included."""
        queries = [q for q, _, _ in batch]
        targets = [t for _, t, _ in batch]
        h0s = [h for _, _, h in batch]
        results = extend_batch(queries, targets, h0s, scoring, w=w)
        _assert_equal(results, queries, targets, h0s, w, scoring)

    def test_target_far_longer_than_band_and_query(self):
        """Rows below the band's reach end the sweep early."""
        rng = np.random.default_rng(2)
        q = rng.integers(0, 4, 5).astype(np.uint8)
        t = np.concatenate([q, rng.integers(0, 4, 40).astype(np.uint8)])
        for w in (0, 2):
            results = extend_batch([q, t], [t, q], [9, 9], BWA_MEM_SCORING, w=w)
            _assert_equal(results, [q, t], [t, q], [9, 9], w)

    def test_corpus_batch(self):
        rng = np.random.default_rng(0)
        jobs = extension_corpus(
            60, rng, query_length=50, reference_length=40_000,
            vary_query_length=True,
        )
        results = extend_batch(
            [j.query for j in jobs],
            [j.target for j in jobs],
            [j.h0 for j in jobs],
            BWA_MEM_SCORING,
            w=9,
        )
        _assert_equal(
            results,
            [j.query for j in jobs],
            [j.target for j in jobs],
            [j.h0 for j in jobs],
            9,
        )


    @pytest.mark.parametrize("w", [None, 4])
    def test_planned_buckets_match_scalar(self, w):
        """A wave the planner splits into several buckets gives every
        job the result it gets alone, at the wave's band."""
        rng = np.random.default_rng(21)
        lens = [(60, 400)] + [
            (int(q), int(q) + 40) for q in rng.integers(0, 30, 150)
        ]
        queries = [rng.integers(0, 5, q).astype(np.uint8) for q, _ in lens]
        targets = [rng.integers(0, 5, t).astype(np.uint8) for _, t in lens]
        h0s = rng.integers(0, 40, len(lens)).tolist()
        assert len(plan_buckets(queries, targets, band=w or 400)) > 1
        results = extend_batch(queries, targets, h0s, BWA_MEM_SCORING, w=w)
        _assert_equal(results, queries, targets, h0s, w)
        if w is None:
            assert {r.band for r in results} == {400}


class TestValidation:
    def test_empty_batch(self):
        assert extend_batch([], [], [], BWA_MEM_SCORING) == []

    def test_mismatched_lengths_rejected(self):
        q = np.zeros(4, dtype=np.uint8)
        with pytest.raises(ValueError):
            extend_batch([q], [q, q], [5, 5], BWA_MEM_SCORING)

    def test_negative_h0_rejected(self):
        q = np.zeros(4, dtype=np.uint8)
        with pytest.raises(ValueError):
            extend_batch([q], [q], [-1], BWA_MEM_SCORING)


class TestExtenderIntegration:
    def test_extend_many_matches_extend_batch(self):
        from repro.core.extender import SeedExtender

        rng = np.random.default_rng(4)
        jobs = extension_corpus(
            40, rng, query_length=60, reference_length=40_000
        )
        triples = [(j.query, j.target, j.h0) for j in jobs]
        a = SeedExtender(band=8)
        b = SeedExtender(band=8)
        fast = a.extend_many(triples)
        slow = b.extend_batch(triples)
        for fa, sl in zip(fast, slow):
            assert fa.result.scores() == sl.result.scores()
            assert fa.rerun == sl.rerun
            assert fa.decision.outcome == sl.decision.outcome
        assert a.stats.by_outcome == b.stats.by_outcome
