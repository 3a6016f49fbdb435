"""Cross-kernel conformance for the suffix-prefix overlap entry points.

Every backend exposes ``overlap``/``overlap_batch`` with the same
promise as the extension entry points: bit-identical results on every
observable field — ``(score, t_end, band, bound)`` and therefore the
``optimal`` verdicts the speculate-and-test driver keys off.  Only
``cells_computed`` may differ (it describes the backend's schedule,
not the answer).  The strategies bias toward the dovetail geometry's
hazards: containment, zero overhang, empty and all-N sequences, and
length differences straddling the band.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernels import get_kernel

from tests.strategies import (
    OverlapPair,
    bands,
    overlap_pairs,
    scoring_configs,
)

SCALAR = get_kernel("scalar")
NUMPY = get_kernel("numpy")
STRIPED = get_kernel("striped")
ALL_KERNELS = (SCALAR, NUMPY, STRIPED)


def _assert_overlap_agrees(a, b):
    """Full observable agreement of two OverlapResults.

    ``cells_computed`` is deliberately excluded: the lockstep backend
    reports its bucket's padded schedule, the scalar its exact fill.
    """
    assert a.score == b.score
    assert a.t_end == b.t_end
    assert a.band == b.band
    assert a.qlen == b.qlen
    assert a.tlen == b.tlen
    assert a.bound == b.bound
    assert a.optimal == b.optimal


@given(pair=overlap_pairs())
def test_overlap_agrees(pair: OverlapPair):
    a = SCALAR.overlap(pair.query, pair.target, pair.scoring, w=pair.band)
    for kernel in (NUMPY, STRIPED):
        b = kernel.overlap(
            pair.query, pair.target, pair.scoring, w=pair.band
        )
        _assert_overlap_agrees(a, b)


@st.composite
def _overlap_batches(draw, max_jobs: int = 6):
    """A batch sharing one scoring scheme and one requested band."""
    scoring = draw(scoring_configs())
    band = draw(st.one_of(st.none(), bands()))
    pairs = draw(st.lists(overlap_pairs(), min_size=0, max_size=max_jobs))
    return (
        [p.query for p in pairs],
        [p.target for p in pairs],
        scoring,
        band,
    )


@given(batch=_overlap_batches())
def test_overlap_batch_agrees(batch):
    queries, targets, scoring, band = batch
    a = SCALAR.overlap_batch(queries, targets, scoring, w=band)
    for kernel in (NUMPY, STRIPED):
        b = kernel.overlap_batch(queries, targets, scoring, w=band)
        assert len(a) == len(b) == len(queries)
        for ra, rb in zip(a, b):
            _assert_overlap_agrees(ra, rb)


@given(batch=_overlap_batches())
def test_overlap_batch_order_is_preserved(batch):
    """Batch result ``k`` belongs to job ``k`` on every backend.

    With ``w=None`` each job resolves its own full band from its own
    lengths, so mixed-shape buckets sweep heterogeneous bands — the
    lockstep geometry where an unmasked F-scan would leak a wide
    bucket-mate's cells into a narrow job.
    """
    queries, targets, scoring, band = batch
    for kernel in ALL_KERNELS:
        results = kernel.overlap_batch(queries, targets, scoring, w=band)
        for q, t, res in zip(queries, targets, results):
            solo = SCALAR.overlap(q, t, scoring, w=band)
            _assert_overlap_agrees(solo, res)


@given(pair=overlap_pairs())
def test_full_band_is_always_optimal(pair: OverlapPair):
    """``w=None`` covers the whole matrix: trivially proved optimal,
    and the query is always consumable when it fits the matrix."""
    for kernel in ALL_KERNELS:
        res = kernel.overlap(pair.query, pair.target, pair.scoring, w=None)
        assert res.is_full_band
        assert res.optimal
        assert res.t_end >= 0


@given(pair=overlap_pairs())
def test_guarantee_equals_full_band(pair: OverlapPair):
    """The speculate-and-test contract, per backend: a narrow fill that
    reports ``optimal`` already holds the full-band score and endpoint,
    so a caller only reruns the fills that do not."""
    band = pair.band if pair.band is not None else 4
    oracle = SCALAR.overlap(pair.query, pair.target, pair.scoring, w=None)
    for kernel in ALL_KERNELS:
        res = kernel.overlap(pair.query, pair.target, pair.scoring, w=band)
        assert res.band == band
        if res.optimal:
            assert (res.score, res.t_end) == (oracle.score, oracle.t_end)


def test_mismatched_overlap_batch_rejected():
    q = [np.zeros(4, dtype=np.uint8)]
    t = [np.zeros(6, dtype=np.uint8), np.zeros(6, dtype=np.uint8)]
    for kernel in ALL_KERNELS:
        with pytest.raises(ValueError, match="align"):
            kernel.overlap_batch(q, t, None, w=5)


def test_negative_band_rejected():
    q = np.zeros(4, dtype=np.uint8)
    t = np.zeros(6, dtype=np.uint8)
    for kernel in ALL_KERNELS:
        with pytest.raises(ValueError, match="non-negative"):
            kernel.overlap(q, t, None, w=-1)
