"""The one side-extension step every wave path shares.

:func:`~repro.aligner.waves.extend_side` resolves a side of many
chains: empty queries without the engine, the rest as one wave, and a
dead-lettered job as ``DEGRADED`` or through a scalar fallback.  The
engine here has no ``extend_wave``, so the wave is driven job by job —
the path the resilience dispatcher takes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aligner.engines import BatchedEngine
from repro.aligner.pipeline import DEGRADED, _resolve_end
from repro.aligner.waves import extend_side
from repro.core.extender import SeedExtender
from tests.helpers import DeadLetteringEngine


def _jobs(seed: int = 9) -> list[tuple]:
    """Five jobs with distinct ``h0``; the second and fourth are empty."""
    rng = np.random.default_rng(seed)
    jobs = []
    for h0, qlen in ((11, 30), (12, 0), (13, 25), (14, 0), (15, 40)):
        q = rng.integers(0, 4, qlen).astype(np.uint8)
        t = rng.integers(0, 4, qlen + 10).astype(np.uint8)
        jobs.append((q, t, h0))
    return jobs


def _reference(job) -> tuple:
    q, t, h0 = job
    return _resolve_end(BatchedEngine().extend(q, t, h0), h0)


class TestExtendSide:
    def test_empty_jobs_never_reach_the_engine(self):
        engine = DeadLetteringEngine()
        out = extend_side(engine, _jobs(), "left")
        assert engine.seen == [11, 13, 15]
        assert out[1] == ((0, 0), 12, 0)
        assert out[3] == ((0, 0), 14, 0)

    def test_results_come_back_in_job_order(self):
        jobs = _jobs()
        out = extend_side(DeadLetteringEngine(), jobs, "left")
        assert out == [_reference(job) for job in jobs]

    def test_an_all_empty_side_dispatches_nothing(self):
        engine = DeadLetteringEngine()
        jobs = [job for job in _jobs() if not len(job[0])]
        assert extend_side(engine, jobs, "right") == [
            ((0, 0), h0, 0) for _, _, h0 in jobs
        ]
        assert engine.seen == []

    def test_dead_letter_degrades_alone_without_fallback(self):
        jobs = _jobs()
        engine = DeadLetteringEngine(dies={13}.__contains__)
        out = extend_side(engine, jobs, "left")
        assert out[2] is DEGRADED
        assert [r for k, r in enumerate(out) if k != 2] == [
            _reference(job) for k, job in enumerate(jobs) if k != 2
        ]

    @pytest.mark.parametrize("band", [5, 41])
    def test_dead_letter_takes_the_fallback_result(self, band):
        jobs = _jobs()
        fallback = SeedExtender(band=band)
        out = extend_side(
            DeadLetteringEngine(dies={11, 15}.__contains__), jobs, "left",
            fallback=fallback,
        )
        for k in (0, 4):
            q, t, h0 = jobs[k]
            want = _resolve_end(fallback.extend(q, t, h0).result, h0)
            assert out[k] == want
        # The checked fallback is optimal, so it equals the full band.
        assert out == [_reference(job) for job in jobs]
