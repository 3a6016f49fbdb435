"""Cross-kernel conformance: scalar, numpy, and striped bit-agree.

The kernel layer's contract (docs/kernels.md) is that every backend
produces identical results — scores, endpoints, boundary channels,
and therefore accept/rerun verdicts and final SAM bytes.  The checks
themselves have one implementation each (``repro.core``), so a verdict
can differ only through the extension result a backend feeds them.
These are pure differential properties, driven by the band-edge-biased
strategies in ``tests/strategies.py``; SAM bytes across backends are
compared end to end in ``tests/test_byte_identity.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.align.banded import BatchShapeError, extend, full_band_for
from repro.align.scoring import BWA_MEM_SCORING, relaxed_edit_scoring
from repro.core.checker import CheckConfig, OptimalityChecker
from repro.genome.sequence import random_sequence
from repro.kernels import available_kernels, get_kernel

from tests.strategies import (
    ExtensionJob,
    RaggedBatch,
    extension_jobs,
    h0s,
    ragged_batches,
    scoring_configs,
    sequences,
    threshold_edge_jobs,
)

SCALAR = get_kernel("scalar")
NUMPY = get_kernel("numpy")
STRIPED = get_kernel("striped")
ALL_KERNELS = (SCALAR, NUMPY, STRIPED)


def test_registry_lists_all_backends():
    assert available_kernels() == ("numpy", "scalar", "striped")
    assert SCALAR.name == "scalar"
    assert NUMPY.name == "numpy"
    assert STRIPED.name == "striped"


def test_unknown_backend_is_rejected():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        get_kernel("cuda")


def _assert_results_agree(a, b):
    """Full observable agreement of two ExtensionResults.

    ``cells_computed``/``terminated_early`` are deliberately excluded:
    they describe *how* a backend filled the band, not the result.
    """
    assert a.scores() == b.scores()
    assert a.max_off == b.max_off
    np.testing.assert_array_equal(a.boundary_e, b.boundary_e)
    np.testing.assert_array_equal(a.boundary_f, b.boundary_f)


@given(job=extension_jobs())
def test_extend_agrees(job: ExtensionJob):
    a = SCALAR.extend(
        job.query, job.target, job.scoring, job.h0, w=job.band
    )
    for kernel in (NUMPY, STRIPED):
        b = kernel.extend(
            job.query, job.target, job.scoring, job.h0, w=job.band
        )
        _assert_results_agree(a, b)


@given(job=extension_jobs())
def test_extend_full_band_agrees(job: ExtensionJob):
    a = SCALAR.extend(job.query, job.target, job.scoring, job.h0)
    for kernel in (NUMPY, STRIPED):
        b = kernel.extend(job.query, job.target, job.scoring, job.h0)
        _assert_results_agree(a, b)


@given(
    scoring=scoring_configs(),
    band=st.one_of(st.none(), st.integers(1, 8)),
    jobs=st.lists(
        st.tuples(
            sequences(max_size=24), sequences(min_size=1, max_size=30),
            h0s(),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_extend_batch_agrees(scoring, band, jobs):
    queries = [q for q, _, _ in jobs]
    targets = [t for _, t, _ in jobs]
    seeds = [h0 for _, _, h0 in jobs]
    a = SCALAR.extend_batch(queries, targets, seeds, scoring, w=band)
    for kernel in (NUMPY, STRIPED):
        b = kernel.extend_batch(queries, targets, seeds, scoring, w=band)
        assert len(a) == len(b) == len(jobs)
        for ra, rb in zip(a, b):
            _assert_results_agree(ra, rb)


@given(batch=ragged_batches())
def test_ragged_batch_agrees(batch: RaggedBatch):
    """Per-job agreement on ragged batches across all three backends.

    Covers the lockstep planner's bucket edges (empty batch, single
    job, queries straddling the ``2w + 2`` column cap) and checks not just
    scores and boundary channels but the accept/rerun verdicts those
    feed.  The edit check demands a scoring its relaxed scheme
    dominates, so for the drawn schemes that violate that it is
    switched off (the E-score verdict path still runs).
    """
    config = CheckConfig(
        use_edit_check=relaxed_edit_scoring().dominates(batch.scoring)
    )
    checker = OptimalityChecker(batch.scoring, config)
    baseline = None
    for kernel in ALL_KERNELS:
        results = kernel.extend_batch(
            batch.queries, batch.targets, batch.h0s,
            batch.scoring, w=batch.band,
        )
        assert len(results) == len(batch.queries)
        verdicts = [
            checker.check(q, t, res).outcome
            for q, t, res in zip(batch.queries, batch.targets, results)
        ]
        if baseline is None:
            baseline = (results, verdicts)
            continue
        for ra, rb in zip(baseline[0], results):
            _assert_results_agree(ra, rb)
        assert verdicts == baseline[1]


@given(batch=ragged_batches())
def test_batch_order_is_preserved(batch: RaggedBatch):
    """``extend_batch`` result ``k`` belongs to job ``k`` — for every
    backend, even the one that buckets and reorders internally."""
    w = batch.band
    if w is None:
        # Match the batch kernels' global band resolution so the
        # per-job reference runs the same geometry.
        w = max(
            (
                full_band_for(len(q), len(t))
                for q, t in zip(batch.queries, batch.targets)
            ),
            default=0,
        )
    for kernel in ALL_KERNELS:
        results = kernel.extend_batch(
            batch.queries, batch.targets, batch.h0s,
            batch.scoring, w=batch.band,
        )
        for q, t, h0, res in zip(
            batch.queries, batch.targets, batch.h0s, results
        ):
            solo = kernel.extend(q, t, batch.scoring, h0, w=w)
            _assert_results_agree(solo, res)


def test_long_job_in_a_ragged_narrow_batch():
    """A 5,000 bp job rides in a ragged narrow-band batch of short,
    empty and long-target jobs; every backend returns what the per-job
    oracle does for each of them."""
    band = 5
    rng = np.random.default_rng(5000)
    long_target = random_sequence(5000, rng)
    long_query = long_target.copy()
    long_query[::97] = (long_query[::97] + 1) % 4
    queries = [long_query, random_sequence(0, rng), random_sequence(9, rng)]
    targets = [long_target, random_sequence(30, rng), random_sequence(0, rng)]
    for qlen in rng.integers(1, 120, 37):
        query = random_sequence(int(qlen), rng)
        queries.append(query)
        targets.append(np.concatenate([query, random_sequence(45, rng)]))
    seeds = rng.integers(0, 60, len(queries)).tolist()
    expected = [
        extend(q, t, BWA_MEM_SCORING, h0, w=band)
        for q, t, h0 in zip(queries, targets, seeds)
    ]
    for kernel in ALL_KERNELS:
        results = kernel.extend_batch(
            queries, targets, seeds, BWA_MEM_SCORING, w=band
        )
        assert len(results) == len(expected)
        for want, got in zip(expected, results):
            _assert_results_agree(want, got)


def test_mismatched_batch_lists_raise_typed_error():
    q = [np.zeros(4, dtype=np.uint8)]
    t = [np.zeros(6, dtype=np.uint8), np.zeros(6, dtype=np.uint8)]
    for kernel in ALL_KERNELS:
        with pytest.raises(BatchShapeError):
            kernel.extend_batch(q, t, [0], None, w=5)
        with pytest.raises(BatchShapeError):
            kernel.extend_batch(q, [t[0]], [0, 1], None, w=5)


@given(job=st.one_of(threshold_edge_jobs(), extension_jobs()))
def test_verdicts_agree(job: ExtensionJob):
    """Accept/rerun decisions match even exactly on the S1/S2 edge."""
    checker = OptimalityChecker(job.scoring, CheckConfig())
    decisions = []
    for kernel in ALL_KERNELS:
        result = kernel.extend(
            job.query, job.target, job.scoring, job.h0, w=job.band
        )
        decisions.append(
            checker.check(job.query, job.target, result)
        )
    a = decisions[0]
    for b in decisions[1:]:
        assert a.outcome == b.outcome
        assert a.score_nb == b.score_nb
        assert a.thresholds.s1 == b.thresholds.s1
        assert a.thresholds.s2 == b.thresholds.s2
        assert a.score_max_e == b.score_max_e
        assert a.score_ed == b.score_ed
