"""Property tests: the direction-code traceback equals the dense oracles.

:func:`~repro.align.fullmatrix.fill_extension_batch` powers the
traceback wave: it sweeps a bucket of winners in lockstep and keeps one
``uint8`` direction code per cell; :func:`~repro.align.fullmatrix.traceback_path`
reads the codes back.  The contract is *CIGAR identity* with the dense
oracles — ``fill_extension`` + the predecessor-re-deriving walker for
extension mode, ``tests.helpers.dense_global_cigar`` for global mode —
from every live endpoint, for any job mix, any scoring scheme, any
bucketing, clipped or not, banded (once the band is proven) or not.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import lockstep
from repro.align.fullmatrix import (
    GLOBAL,
    LIVE,
    fill_direction_bits,
    fill_extension,
    fill_extension_batch,
    traceback_extension,
    traceback_global,
    traceback_path,
)
from repro.align.globalbatch import fill_gaps_guaranteed
from repro.align.lockstep import plan_buckets
from repro.align.overlapdp import overlap_batch_lockstep, overlap_scalar
from repro.align.scoring import (
    BWA_MEM_SCORING,
    AffineGap,
    edit_scoring,
    relaxed_edit_scoring,
)
from tests.helpers import dense_global_cigar
from tests.strategies import GapBatch, gap_job_batches

SEQ = st.lists(st.integers(0, 4), min_size=0, max_size=12).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)
JOB = st.tuples(SEQ, SEQ, st.sampled_from([0, 1, 5, 40]))

SCHEMES = [
    BWA_MEM_SCORING,
    edit_scoring(),  # go = 0: every gap step re-opens from H
    AffineGap(match=2, mismatch=3, gap_open=4, gap_extend_ins=2,
              gap_extend_del=1),
    relaxed_edit_scoring(),  # ge_ins = 0: stepping out of the band is free
]


def fill(jobs, scoring):
    return fill_extension_batch(
        [q for q, _, _ in jobs],
        [t for _, t, _ in jobs],
        scoring,
        [h0 for _, _, h0 in jobs],
    )


def assert_walks_equal(bits, q, t, scoring, h0) -> None:
    """Same live cells, and the same CIGAR from every one of them."""
    dense = fill_extension(q, t, scoring, h0)
    assert ((bits & LIVE) > 0).tolist() == (dense.h > 0).tolist()
    for i, j in zip(*np.nonzero(dense.h > 0)):
        end = (int(i), int(j))
        want = traceback_path(dense, q, t, scoring, end)
        assert traceback_path(bits, q, t, scoring, end) == want


class TestLockstepBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(jobs=st.lists(JOB, min_size=1, max_size=8))
    def test_batch_matches_scalar_oracle(self, jobs):
        """Lockstep codes walk like the scalar fill, from every live cell."""
        batch = fill(jobs, BWA_MEM_SCORING)
        assert len(batch) == len(jobs)
        for (q, t, h0), bits in zip(jobs, batch):
            assert_walks_equal(bits, q, t, BWA_MEM_SCORING, h0)

    @settings(max_examples=40, deadline=None)
    @given(
        jobs=st.lists(JOB, min_size=1, max_size=5),
        scoring=st.sampled_from(SCHEMES[1:])
        | st.builds(
            AffineGap,
            match=st.just(2),
            mismatch=st.just(3),
            gap_open=st.integers(0, 6),
            gap_extend=st.integers(0, 3),
            gap_extend_ins=st.integers(0, 3),
        ),
    )
    def test_batch_matches_under_other_schemes(self, jobs, scoring):
        """Identity holds for arbitrary (even relaxed) gap schemes."""
        for (q, t, h0), bits in zip(jobs, fill(jobs, scoring)):
            assert_walks_equal(bits, q, t, scoring, h0)

    @settings(max_examples=30, deadline=None)
    @given(jobs=st.lists(JOB, min_size=2, max_size=8), seed=st.integers(0, 99))
    def test_chunking_is_invisible(self, jobs, seed):
        """Job order and bucket bound never change a job's codes: a
        one-cell bound fills every job alone, a shuffle reorders the
        buckets, and both give the one-bucket codes."""
        whole = fill(jobs, BWA_MEM_SCORING)
        order = np.random.default_rng(seed).permutation(len(jobs)).tolist()
        shuffled = [jobs[k] for k in order]
        queries = [q for q, _, _ in shuffled]
        targets = [t for _, t, _ in shuffled]
        buckets = plan_buckets(queries, targets, max_cells=1)
        assert sorted(k for b in buckets for k in b) == list(range(len(jobs)))
        assert all(len(b) == 1 for b in buckets)
        for bound in (1, 10**9):
            for bucket in plan_buckets(queries, targets, max_cells=bound):
                part = fill([shuffled[k] for k in bucket], BWA_MEM_SCORING)
                for k, bits in zip(bucket, part):
                    assert (bits == whole[order[k]]).all()

    def test_ragged_shapes_do_not_bleed(self):
        """Wildly different job shapes in one bucket stay independent."""
        rng = np.random.default_rng(13)
        jobs = [
            (np.zeros(0, dtype=np.uint8), rng.integers(0, 4, 9).astype(np.uint8), 5),
            (rng.integers(0, 4, 40).astype(np.uint8), rng.integers(0, 4, 2).astype(np.uint8), 18),
            (np.full(12, 4, dtype=np.uint8), rng.integers(0, 4, 12).astype(np.uint8), 9),
            (rng.integers(0, 5, 25).astype(np.uint8), rng.integers(0, 5, 30).astype(np.uint8), 22),
        ]
        for (q, t, h0), bits in zip(jobs, fill(jobs, BWA_MEM_SCORING)):
            assert_walks_equal(bits, q, t, BWA_MEM_SCORING, h0)

    def test_empty_batch(self):
        """Zero jobs in, zero matrices out."""
        assert fill_extension_batch([], [], BWA_MEM_SCORING, []) == []

    def test_negative_h0_rejected(self):
        q = np.zeros(3, dtype=np.uint8)
        with pytest.raises(ValueError):
            fill_extension_batch([q], [q], BWA_MEM_SCORING, [-1])


class TestCodePacking:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        width=st.integers(1, 40),
        cut=st.integers(0, 39),
    )
    def test_shift_or_is_packbits(self, seed, n, width, cut):
        """The sweep's shift-or packing writes ``np.packbits``' bytes,
        into a full row or a column window of one."""
        planes = np.random.default_rng(seed).random((6, n, width)) < 0.5
        a = min(cut, width - 1)
        out = np.zeros((n, width), dtype=np.uint8)
        lockstep._pack_codes(planes[:, :, a:], out[:, a:])
        want = np.packbits(planes[:, :, a:], axis=0, bitorder="little")[0]
        assert (out[:, a:] == want).all()
        assert not out[:, :a].any()


class TestBuckets:
    def test_oversized_job_is_filled_alone(self):
        """A job larger than the bound gets its own bucket; the rest
        still share."""
        rng = np.random.default_rng(3)
        lens = [(50, 60), (6, 6), (5, 7), (6, 5)]
        queries = [rng.integers(0, 4, q).astype(np.uint8) for q, _ in lens]
        targets = [rng.integers(0, 4, t).astype(np.uint8) for _, t in lens]
        buckets = plan_buckets(queries, targets, max_cells=500)
        assert buckets[0] == [0]
        assert sorted(buckets[1]) == [1, 2, 3]

    def test_padding_waste_splits_a_window(self, monkeypatch):
        """Many small jobs do not ride a tall job's sweep; two do."""
        tall = np.zeros(80, dtype=np.uint8)
        small = np.zeros(8, dtype=np.uint8)
        assert len(plan_buckets([tall, small], [tall, small])) == 1
        many = [tall] + [small] * 400
        assert len(plan_buckets(many, many)) == 2
        # The bound is read at call time (tests and tuning patch it).
        monkeypatch.setattr(lockstep, "TRACEBACK_CHUNK_CELLS", 1)
        assert len(plan_buckets([tall, small], [tall, small])) == 2

    def test_a_band_caps_the_row_width(self):
        """Narrow jobs ride a wide-query job's sweep when one band
        confines every row to ``2 * band + 2`` columns anyway."""
        wide = np.zeros(200, dtype=np.uint8)
        narrow = np.zeros(10, dtype=np.uint8)
        target = np.zeros(60, dtype=np.uint8)
        queries, targets = [wide] + [narrow] * 50, [target] * 51
        assert len(plan_buckets(queries, targets)) == 2
        assert len(plan_buckets(queries, targets, band=5)) == 1
        assert len(plan_buckets(queries, targets, band=200)) == 2


class TestTracebackPath:
    @settings(max_examples=60, deadline=None)
    @given(job=JOB)
    def test_walk_of_prefilled_matrix_matches_oracle(self, job):
        """``traceback_path`` over lockstep codes == the fill-and-walk
        ``traceback_extension`` == the dense oracle walk."""
        q, t, h0 = job
        mats = fill_extension(q, t, BWA_MEM_SCORING, h0)
        end = mats.lpos
        if end == (0, 0):
            return
        want = traceback_path(mats, q, t, BWA_MEM_SCORING, end)
        [bits] = fill([job], BWA_MEM_SCORING)
        assert traceback_path(bits, q, t, BWA_MEM_SCORING, end) == want
        assert traceback_extension(q, t, BWA_MEM_SCORING, h0, end) == want

    @settings(max_examples=60, deadline=None)
    @given(job=JOB, scoring=st.sampled_from(SCHEMES))
    def test_clipped_fill_matches_full_fill(self, job, scoring):
        """Filling only ``target[:i] x query[:j]`` changes no code a
        walk from ``(i, j)`` reads — from any live endpoint."""
        q, t, h0 = job
        [full] = fill([job], scoring)
        live = np.argwhere(full & LIVE)
        for i, j in live[:: max(1, len(live) // 6)].tolist():
            [clipped] = fill([(q[:j], t[:i], h0)], scoring)
            assert (clipped == full[: i + 1, : j + 1]).all()
            want = traceback_path(full, q, t, scoring, (i, j))
            got = traceback_path(clipped, q[:j], t[:i], scoring, (i, j))
            assert got == want

    def test_dead_cell_rejected(self):
        q = np.zeros(4, dtype=np.uint8)
        t = np.full(4, 3, dtype=np.uint8)
        [bits] = fill([(q, t, 2)], BWA_MEM_SCORING)
        with pytest.raises(ValueError, match="dead cell"):
            traceback_path(bits, q, t, BWA_MEM_SCORING, (4, 4))

    def test_out_of_range_rejected(self):
        q = np.zeros(4, dtype=np.uint8)
        [bits] = fill([(q, q, 10)], BWA_MEM_SCORING)
        for end in ((5, 2), (2, 5), (-1, 0)):
            with pytest.raises(ValueError, match="out of range"):
                traceback_path(bits, q, q, BWA_MEM_SCORING, end)


class TestGlobalPolicy:
    @settings(max_examples=120, deadline=None)
    @given(
        q=SEQ,
        t=SEQ,
        scoring=st.sampled_from(SCHEMES),
        h0=st.sampled_from([0, 1, 40]),
    )
    def test_global_walk_matches_dense_oracle(self, q, t, scoring, h0):
        """Corner-to-corner codes walk like three dense matrices."""
        want = dense_global_cigar(q, t, scoring, h0)
        assert traceback_global(q, t, scoring, h0) == want

    @settings(max_examples=80, deadline=None)
    @given(
        batch=gap_job_batches(),
        band=st.integers(0, 6),
        scoring=st.sampled_from(SCHEMES),
    )
    def test_ladder_cigars_match_full_band(
        self, batch: GapBatch, band, scoring
    ):
        """Whatever rung proves a gap, its band-confined walk is the
        full-band walk."""
        outs = fill_gaps_guaranteed(
            batch.queries, batch.targets, scoring, band=band
        )
        for q, t, out in zip(batch.queries, batch.targets, outs):
            assert out.result.cigar == dense_global_cigar(q, t, scoring)

    @pytest.mark.parametrize("scoring", SCHEMES[:3], ids=["bwa", "edit", "asym"])
    def test_every_rung_returns_the_full_band_cigar(self, scoring):
        """At least one job per escalation rung (band 2 -> 8 -> 32 ->
        full): the more substitutions a gap carries, the lower its
        score sits under the band-edge bound and the higher it climbs."""
        rng = np.random.default_rng(21)
        jobs = []
        for subs in (0, 3, 6, 12, 25, 45):
            t = rng.integers(0, 4, 120).astype(np.uint8)
            q = t.copy()
            sites = np.linspace(5, 115, subs).astype(int)
            q[sites] = (q[sites] + 1) % 4
            jobs.append((q, t))
        outs = fill_gaps_guaranteed(
            [q for q, _ in jobs], [t for _, t in jobs], scoring, band=2
        )
        assert {o.escalations for o in outs} == {0, 1, 2, 3}
        assert {o.result.band for o in outs} == {2, 8, 32, 120}
        for (q, t), out in zip(jobs, outs):
            assert out.result.cigar == dense_global_cigar(q, t, scoring)

    def test_band_narrower_than_the_length_gap(self):
        """An overlap-shaped job whose band misses the corner: once the
        band has left the query, the remaining rows are all dead."""
        rng = np.random.default_rng(5)
        q = rng.integers(0, 4, 4).astype(np.uint8)
        t = np.concatenate([q, rng.integers(0, 4, 16).astype(np.uint8)])
        rows, cols = np.indices((len(t) + 1, len(q) + 1))
        for band in (0, 2):
            codes, score, bound = fill_direction_bits(
                [q], [t], BWA_MEM_SCORING, [0], GLOBAL, np.array([band])
            )
            live = (codes[:, 0, :] & LIVE) > 0
            assert live.tolist() == (abs(rows - cols) <= band).tolist()
            assert score[0] <= GLOBAL  # the corner is dead
            assert bound[0] > score[0]
            [got] = overlap_batch_lockstep([q], [t], BWA_MEM_SCORING, w=band)
            want = overlap_scalar(q, t, BWA_MEM_SCORING, w=band)
            assert (got.score, got.t_end, got.bound) == (
                want.score, want.t_end, want.bound
            )
