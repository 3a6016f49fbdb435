"""Both plane dtypes of the lockstep sweep, pinned.

:func:`repro.align.lockstep.sweep` runs its H/E/F planes in ``int32``
when the scheme and the shapes prove every value fits, and in
``int64`` otherwise.  A scheme with a huge gap open forces the
``int64`` path; there every capture set must still equal its per-job
scalar oracle.  BWA-MEM scoring on the shapes the fast path runs must
sweep in ``int32``, so that path cannot fall back silently.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.align import banded, lockstep
from repro.align.fullmatrix import fill_extension_batch
from repro.align.globalbatch import fill_global_batch, fill_global_scalar
from repro.align.overlapdp import overlap_batch_lockstep, overlap_scalar
from repro.align.scoring import BWA_MEM_SCORING, AffineGap
from repro.genome.sequence import random_sequence

from tests.helpers import dense_global_cigar

WIDE = AffineGap(gap_open=2 * 10**8)
"""One gap costs more than ``int32`` can sink below a dead cell."""


@pytest.fixture
def dtypes(monkeypatch):
    """The plane dtype of every sweep run while the test runs."""
    seen: list[np.dtype] = []
    sweep = lockstep.sweep

    def recording(*args, **kwargs):
        for row in sweep(*args, **kwargs):
            seen.append(row[2].dtype)
            yield row

    monkeypatch.setattr(lockstep, "sweep", recording)
    return seen


def _short_jobs(seed: int, n: int = 24):
    """Ragged short jobs (empty ones included), some with an N base."""
    rng = np.random.default_rng(seed)
    queries, targets = [], []
    for _ in range(n):
        q = random_sequence(int(rng.integers(0, 12)), rng)
        t = random_sequence(int(rng.integers(0, 14)), rng)
        if len(q) and rng.random() < 0.2:
            q[int(rng.integers(len(q)))] = 4
        queries.append(q)
        targets.append(t)
    return queries, targets


class TestInt64Path:
    @pytest.mark.parametrize("w", [0, 2, 5, 40])
    def test_extend_batch_equals_banded_extend(self, dtypes, w):
        queries, targets = _short_jobs(1)
        rng = np.random.default_rng(2)
        # A seed score above the gap open keeps a gapped path live.
        h0s = rng.choice([0, 7, 30, 3 * 10**8], len(queries)).tolist()
        results = lockstep.extend_batch(queries, targets, h0s, WIDE, w=w)
        assert dtypes and set(dtypes) == {np.dtype(np.int64)}
        for q, t, h0, res in zip(queries, targets, h0s, results):
            ref = banded.extend(q, t, WIDE, h0, w=w, prune=False)
            assert res.scores() == ref.scores()
            assert res.max_off == ref.max_off
            np.testing.assert_array_equal(res.boundary_e, ref.boundary_e)
            np.testing.assert_array_equal(res.boundary_f, ref.boundary_f)

    @pytest.mark.parametrize("w", [0, 3, None])
    def test_overlap_equals_overlap_scalar(self, dtypes, w):
        queries, targets = _short_jobs(3)
        results = overlap_batch_lockstep(queries, targets, WIDE, w=w)
        assert dtypes and set(dtypes) == {np.dtype(np.int64)}
        for q, t, res in zip(queries, targets, results):
            ref = overlap_scalar(q, t, WIDE, w=w)
            assert (res.score, res.t_end, res.band, res.bound) == (
                ref.score, ref.t_end, ref.band, ref.bound
            )

    @pytest.mark.parametrize("w", [0, 2, None])
    def test_gap_fill_equals_scalar_fill_and_dense_walk(self, dtypes, w):
        queries, targets = _short_jobs(4)
        results = fill_global_batch(queries, targets, WIDE, w=w)
        assert dtypes and set(dtypes) == {np.dtype(np.int64)}
        for q, t, res in zip(queries, targets, results):
            ref = fill_global_scalar(q, t, WIDE, w=w)
            assert (res.score, res.band, res.bound, res.optimal) == (
                ref.score, ref.band, ref.bound, ref.optimal
            )
            if res.optimal:
                assert res.cigar == dense_global_cigar(q, t, WIDE)


class TestInt32FastPath:
    def test_overlap_shaped_batch(self, dtypes):
        """400 bp fragments at step 150: 250 bp suffixes against
        prefixes 31 bp longer, verified at w=31."""
        rng = np.random.default_rng(20200613)
        queries = [random_sequence(250, rng) for _ in range(64)]
        targets = [random_sequence(281, rng) for _ in range(64)]
        overlap_batch_lockstep(queries, targets, BWA_MEM_SCORING, w=31)
        assert dtypes and set(dtypes) == {np.dtype(np.int32)}

    def test_short_batched_shaped_waves(self, dtypes):
        """101 bp reads' extension and traceback waves: queries up to
        80 bp, targets 45 bp longer, seed scores up to 60."""
        rng = np.random.default_rng(20200613)
        qlens = rng.integers(1, 81, 300)
        queries = [random_sequence(int(n), rng) for n in qlens]
        targets = [random_sequence(int(n) + 45, rng) for n in qlens]
        h0s = rng.integers(10, 61, len(queries)).tolist()
        lockstep.extend_batch(queries, targets, h0s, BWA_MEM_SCORING)
        lockstep.extend_batch(queries, targets, h0s, BWA_MEM_SCORING, w=41)
        fill_extension_batch(queries, targets, BWA_MEM_SCORING, h0s)
        assert dtypes and set(dtypes) == {np.dtype(np.int32)}
