"""Property tests for the wave-dispatched engine.

:class:`~repro.aligner.engines.BatchedEngine` promises **bit-identity**:
every job of an :meth:`extend_wave` call comes back equal to the scalar
kernel run with pruning disabled (``banded.extend(prune=False)``),
field for field: the score tuple, the boundary-E/F check inputs,
``max_off``, and the geometry.  It is enforced here with hypothesis
over random job mixes, duplicated jobs, ragged lengths (including
empty queries/targets), and band settings.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import banded, ungapped
from repro.align.scoring import BWA_MEM_SCORING
from repro.aligner.engines import BatchedEngine

SEQ = st.lists(st.integers(0, 4), min_size=0, max_size=14).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)
JOB = st.tuples(
    SEQ,
    st.lists(st.integers(0, 4), min_size=1, max_size=14).map(
        lambda xs: np.array(xs, dtype=np.uint8)
    ),
    st.integers(1, 40),
)


def assert_results_equal(got, want) -> None:
    """Bit-identity of two :class:`ExtensionResult`\\ s.

    Compares every field the pipeline and the SeedEx checks consume:
    the score tuple, ``max_off``, the job geometry, and both boundary
    arrays.  ``cells_computed`` is accounting, not a result, and is
    deliberately not compared.
    """
    assert got.scores() == want.scores()
    assert got.max_off == want.max_off
    assert got.h0 == want.h0
    assert got.qlen == want.qlen
    assert got.tlen == want.tlen
    assert (got.boundary_e == want.boundary_e).all()
    assert (got.boundary_f == want.boundary_f).all()


class TestWaveBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        distinct=st.lists(JOB, min_size=1, max_size=8),
        picks=st.lists(st.integers(0, 7), max_size=8),
    )
    def test_wave_matches_scalar_kernel(self, distinct, picks):
        """Each wave job == ``banded.extend(prune=False)`` on that job.

        ``band=None`` runs the whole wave at the batch-wide full band
        (the band covering the largest job), so the scalar reference
        is the kernel at that same band; scores are additionally
        pinned to the per-job full-band run, which they must equal
        because both bands cover the job's whole matrix.  ``picks``
        appends duplicates of drawn jobs (twin repeat loci give equal
        jobs in one wave), and each copy is computed on its own.
        """
        jobs = distinct + [distinct[k % len(distinct)] for k in picks]
        shared = banded.full_band_for(
            max(len(q) for q, _, _ in jobs),
            max(len(t) for _, t, _ in jobs),
        )
        engine = BatchedEngine()
        results = engine.extend_wave(jobs)
        assert len(results) == len(jobs)
        for (q, t, h0), res in zip(jobs, results):
            want = banded.extend(
                q, t, BWA_MEM_SCORING, h0, w=shared, prune=False
            )
            assert_results_equal(res, want)
            per_job = banded.extend(q, t, BWA_MEM_SCORING, h0, prune=False)
            assert res.scores() == per_job.scores()

    @settings(max_examples=40, deadline=None)
    @given(
        jobs=st.lists(JOB, min_size=1, max_size=6),
        band=st.integers(1, 10),
    )
    def test_banded_wave_matches_scalar_kernel(self, jobs, band):
        """A fixed band batches just like the scalar banded kernel.

        A job the ungapped rule settles reaches no kernel: its scores,
        ``max_off`` and geometry are still the narrow band's, and it
        carries no boundary planes (no check reads them)."""
        engine = BatchedEngine(band=band)
        results = engine.extend_wave(jobs)
        settled = ungapped.settled(*zip(*jobs), BWA_MEM_SCORING)
        for (q, t, h0), res, done in zip(jobs, results, settled):
            want = banded.extend(
                q, t, BWA_MEM_SCORING, h0, w=band, prune=False
            )
            if not done:
                assert_results_equal(res, want)
                continue
            assert res.scores() == want.scores()
            assert res.max_off == want.max_off
            assert (res.h0, res.qlen, res.tlen) == (h0, len(q), len(t))
            assert res.boundary_e.size == res.boundary_f.size == 0

    @settings(max_examples=60, deadline=None)
    @given(job=JOB)
    def test_scalar_extend_matches_kernel(self, job):
        """A wave of one is the same kernel result."""
        q, t, h0 = job
        engine = BatchedEngine()
        want = banded.extend(q, t, BWA_MEM_SCORING, h0)
        assert_results_equal(engine.extend_wave([(q, t, h0)])[0], want)
