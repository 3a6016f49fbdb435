"""The one side-extension step every wave path shares.

:func:`~repro.aligner.waves.extend_side` resolves a side of many
chains: empty queries without the engine, the rest as one wave.  Every
engine answers every job of a wave, the resilience dispatcher too: a
job whose accelerator attempts all fault is answered on the host.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aligner.engines import BatchedEngine, make_engine, make_resilient
from repro.aligner.pipeline import _resolve_end
from repro.aligner.waves import extend_side
from tests.helpers import RecordingEngine


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
    return _resolve_end(BatchedEngine().extend_wave([job])[0], h0)


class TestExtendSide:
    def test_empty_jobs_never_reach_the_engine(self):
        engine = RecordingEngine()
        out = extend_side(engine, _jobs(), "left")
        assert engine.seen == [11, 13, 15]
        assert out[1] == ((0, 0), 12, 0)
        assert out[3] == ((0, 0), 14, 0)

    def test_results_come_back_in_job_order(self):
        jobs = _jobs()
        out = extend_side(RecordingEngine(), jobs, "left")
        assert out == [_reference(job) for job in jobs]

    def test_an_all_empty_side_dispatches_nothing(self):
        engine = RecordingEngine()
        jobs = [job for job in _jobs() if not len(job[0])]
        assert extend_side(engine, jobs, "right") == [
            ((0, 0), h0, 0) for _, _, h0 in jobs
        ]
        assert engine.seen == []

    @pytest.mark.parametrize("band", [5, 41])
    def test_a_faulted_engine_answers_every_job(self, band):
        """Behind the fault layer with no retries, most jobs' frames
        fault; the host answers each of them, with the full band's
        result."""
        engine = make_resilient(
            make_engine("seedex", band),
            fault_rate=0.9,
            fault_seed=3,
            max_retries=0,
            sleep=lambda s: None,
        )
        jobs = _jobs()
        out = extend_side(engine, jobs, "left")
        assert out == [_reference(job) for job in jobs]
        assert engine.stats.fallbacks > 0
        assert engine.stats.accounted()
