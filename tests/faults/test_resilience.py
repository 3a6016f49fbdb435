"""ResilientDispatcher: retry, backoff, timeout, fallback, dead-letter."""

import numpy as np
import pytest

from repro.align.banded import ExtensionResult
from repro.aligner.engines import make_engine, make_resilient
from repro.align.scoring import BWA_MEM_SCORING
from repro.faults.errors import (
    FaultError,
    StalledStreamFault,
    TransientAcceleratorFault,
)
from repro.faults.resilience import (
    ResilienceStats,
    ResilientDispatcher,
    RetryPolicy,
)

pytestmark = pytest.mark.chaos
"""Chaos tier: selected by the CI chaos job via ``-m chaos``."""

Q = np.array([0, 1, 2, 3] * 5, dtype=np.uint8)
T = np.array([0, 1, 2, 3] * 6, dtype=np.uint8)


class FlakyEngine:
    """A wave engine that answers jobs from a scripted fault sequence,
    one entry per job and attempt (``None``: compute), then computes
    for real; an entry that is not a fault is a bug, and raises."""

    name = "flaky"
    scoring = BWA_MEM_SCORING

    def __init__(self, faults):
        self.faults = list(faults)
        self.calls = 0
        self.inner = make_engine("full")

    def extend_wave(self, jobs):
        self.calls += 1
        out = []
        for job in jobs:
            fault = self.faults.pop(0) if self.faults else None
            if fault is not None and not isinstance(fault, FaultError):
                raise fault
            out.append(
                fault if fault is not None
                else self.inner.extend_wave([job])[0]
            )
        return out


def _stall(seconds):
    return StalledStreamFault(seconds, site="stream.stall")


def _transient():
    return TransientAcceleratorFault("batch failed", site="batch.transient")


def _one(engine, h0=10):
    """One job as a wave of one."""
    [result] = engine.extend_wave([(Q, T, h0)])
    return result


def _dispatcher(engine, **kwargs):
    kwargs.setdefault("sleep", lambda s: None)
    return ResilientDispatcher(engine, **kwargs)


def _same_result(a, b):
    """Field equality on what the pipeline consumes downstream."""
    return (
        a.lscore == b.lscore
        and a.lpos == b.lpos
        and a.gscore == b.gscore
        and a.gpos == b.gpos
    )


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0.0)

    def test_backoff_grows_then_caps(self):
        policy = RetryPolicy(
            backoff_base_s=0.001, backoff_cap_s=0.004, jitter=0.0
        )
        rng = np.random.default_rng(0)
        delays = [policy.backoff_seconds(a, rng) for a in (1, 2, 3, 4, 5)]
        assert delays == [0.001, 0.002, 0.004, 0.004, 0.004]

    def test_jitter_bounded(self):
        policy = RetryPolicy(
            backoff_base_s=0.001, backoff_cap_s=0.001, jitter=0.5
        )
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = policy.backoff_seconds(1, rng)
            assert 0.001 <= d <= 0.0015


class TestRetryLadder:
    def test_transient_fault_retried_to_success(self):
        engine = FlakyEngine([_transient(), _transient()])
        disp = _dispatcher(engine, policy=RetryPolicy(max_retries=3))
        res = _one(disp)
        assert isinstance(res, ExtensionResult)
        assert engine.calls == 3
        assert disp.stats.retries == 2
        assert disp.stats.detected_total == 2
        assert disp.stats.fallbacks == 0

    def test_backoff_sleeps_between_retries(self):
        slept = []
        engine = FlakyEngine([_transient(), _transient()])
        disp = _dispatcher(
            engine,
            policy=RetryPolicy(max_retries=3),
            sleep=slept.append,
        )
        _one(disp)
        assert len(slept) == 2
        assert slept[1] > slept[0] > 0  # exponential growth

    def test_exhausted_retries_fall_back_to_host(self):
        engine = FlakyEngine([_transient()] * 10)
        disp = _dispatcher(engine, policy=RetryPolicy(max_retries=2))
        res = _one(disp)
        expected = _one(make_engine("full"))
        assert _same_result(res, expected)
        assert engine.calls == 3  # 1 try + 2 retries
        assert disp.stats.fallbacks == 1
        assert disp.stats.dead_letters == 0

    def test_short_stall_tolerated_without_retry(self):
        engine = FlakyEngine([_stall(0.01)])
        disp = _dispatcher(
            engine, policy=RetryPolicy(max_retries=0, timeout_s=0.25)
        )
        _one(disp)
        assert disp.stats.tolerated_total == 1
        assert disp.stats.retries == 0
        assert disp.stats.timeouts == 0

    def test_long_stall_is_a_timeout(self):
        engine = FlakyEngine([_stall(5.0)])
        disp = _dispatcher(
            engine, policy=RetryPolicy(max_retries=3, timeout_s=0.25)
        )
        _one(disp)
        assert disp.stats.timeouts == 1
        assert disp.stats.retries == 1

    def test_always_stalling_stream_cannot_loop(self):
        engine = FlakyEngine([_stall(0.01)] * 100)
        disp = _dispatcher(
            engine,
            policy=RetryPolicy(
                max_retries=1, timeout_s=0.25, max_tolerated_stalls=4
            ),
        )
        res = _one(disp)  # must terminate down the ladder
        assert _same_result(res, _one(make_engine("full")))
        assert disp.stats.tolerated_total == 4  # then stalls escalate

    def test_dead_letter_when_host_queue_refuses(self):
        engine = FlakyEngine([_transient()] * 20)
        disp = _dispatcher(
            engine,
            policy=RetryPolicy(max_retries=1),
            host_queue_capacity=0,
        )
        assert _one(disp) is None
        assert disp.stats.dead_letters == 1
        assert len(disp.dead_letters) == 1
        letter = disp.dead_letters[0]
        assert letter.site == "batch.transient"
        assert letter.attempts == 2
        assert (letter.query == Q).all()
        assert letter.reason

    def test_non_fault_errors_propagate(self):
        engine = FlakyEngine([RuntimeError("real bug")])
        disp = _dispatcher(engine)
        with pytest.raises(RuntimeError, match="real bug"):
            _one(disp)
        assert disp.stats.retries == 0  # genuine bugs are not retried


class TestRounds:
    """A wave runs down the ladder in rounds of one engine call each."""

    def test_only_faulted_jobs_go_to_the_next_round(self):
        slept = []
        engine = FlakyEngine([_transient(), None, _transient()])
        disp = _dispatcher(
            engine, policy=RetryPolicy(max_retries=3), sleep=slept.append
        )
        jobs = [(Q, T, h0) for h0 in (10, 20, 30)]
        results = disp.extend_wave(jobs)
        want = make_engine("full").extend_wave(jobs)
        assert all(map(_same_result, results, want))
        assert engine.calls == 2  # one call per round, not per job
        assert disp.stats.jobs == 3
        assert disp.stats.retries == 2
        assert len(slept) == 1  # backoff once per round

    def test_exhausted_jobs_share_one_host_wave(self):
        class CountingHost:
            name = "host"
            scoring = BWA_MEM_SCORING

            def __init__(self):
                self.waves = []
                self.inner = make_engine("full")

            def extend_wave(self, jobs):
                self.waves.append(len(jobs))
                return self.inner.extend_wave(jobs)

        host = CountingHost()
        engine = FlakyEngine([_transient()] * 6)
        disp = _dispatcher(
            engine, fallback=host, policy=RetryPolicy(max_retries=1)
        )
        jobs = [(Q, T, h0) for h0 in (10, 20, 30)]
        results = disp.extend_wave(jobs)
        want = make_engine("full").extend_wave(jobs)
        assert all(map(_same_result, results, want))
        assert engine.calls == 2
        assert host.waves == [3]
        assert disp.stats.fallbacks == 3

    def test_breaker_trips_between_waves(self):
        from repro.durability.breaker import (
            BreakerPolicy,
            BreakerState,
            CircuitBreaker,
        )

        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=1, probe_interval=8)
        )
        engine = FlakyEngine([_transient()] * 100)
        disp = _dispatcher(
            engine, policy=RetryPolicy(max_retries=0), breaker=breaker
        )
        jobs = [(Q, T, h0) for h0 in (10, 20, 30)]
        disp.extend_wave(jobs)  # the breaker is asked as the wave arrives
        assert engine.calls == 1
        assert disp.stats.fallbacks == 3
        assert breaker.state == BreakerState.OPEN
        assert breaker.trips == 1
        results = disp.extend_wave(jobs)  # short-circuited to the host
        assert engine.calls == 1
        assert breaker.short_circuits == 3
        want = make_engine("full").extend_wave(jobs)
        assert all(map(_same_result, results, want))


    def test_chaos_engine_frames_a_wave_around_one_inner_call(self):
        from repro.faults.chaos import ChaosEngine
        from repro.faults.injector import FaultInjector

        inner = FlakyEngine([])
        stats = ResilienceStats()
        chaos = ChaosEngine(
            inner, FaultInjector(rate=0.1, seed=3, sink=stats)
        )
        jobs = [(Q, T, h0) for h0 in range(5, 45, 2)]
        outs = chaos.extend_wave(jobs)
        want = make_engine("full").extend_wave(jobs)
        faulted = [out for out in outs if isinstance(out, FaultError)]
        assert inner.calls == 1
        assert 0 < len(faulted) < len(jobs)
        for out, ref in zip(outs, want):
            assert isinstance(out, FaultError) or _same_result(out, ref)
        for fault in faulted:
            stats.record_detected(fault.site)
        assert stats.accounted()


class TestDisabledNoOp:
    def test_faults_disabled_is_byte_identical(self):
        base = make_engine("full")
        disp = make_resilient(base, fault_rate=0.0)
        for h0 in (0, 10, 40):
            assert _same_result(_one(disp, h0), _one(base, h0))
        assert disp.stats.jobs == 3
        assert disp.stats.injected_total == 0
        assert disp.injector is None

    def test_make_resilient_attaches_chaos_when_rate_positive(self):
        disp = make_resilient(make_engine("full"), fault_rate=0.2, fault_seed=1)
        assert disp.injector is not None
        assert disp.name.startswith("resilient(chaos(")
        assert disp.injector.sink is disp.stats


class TestStats:
    def test_accounting_invariant_api(self):
        stats = ResilienceStats()
        stats.record_injected("line.bitflip")
        assert not stats.accounted()
        stats.record_detected("line.bitflip")
        assert stats.accounted()
        stats.record_injected("stream.stall")
        stats.record_tolerated("stream.stall")
        assert stats.accounted()

    def test_shared_registry_exports_counters(self):
        from repro.obs import names
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        engine = FlakyEngine([_transient()])
        disp = _dispatcher(engine, registry=reg)
        _one(disp)
        counters = reg.snapshot()["counters"]
        assert counters[names.RESILIENCE_JOBS] == 1
        assert counters[names.RESILIENCE_RETRIES] == 1


class TestAcceleratorBatchPath:
    """Fault injection through the device-level batch model."""

    def _jobs(self, n=60):
        from repro.genome.synth import ExtensionJob

        rng = np.random.default_rng(17)
        out = []
        for _ in range(n):
            q = rng.integers(0, 4, size=80).astype(np.uint8)
            t = rng.integers(0, 4, size=120).astype(np.uint8)
            out.append(ExtensionJob(query=q, target=t, h0=20))
        return out

    def test_corrupted_jobs_degrade_to_host_rerun(self):
        from repro.faults.injector import FaultInjector
        from repro.hw.accelerator import SeedExAccelerator

        jobs = self._jobs()
        inj = FaultInjector(rate=0.3, seed=5)
        report = SeedExAccelerator().run(jobs, injector=inj)
        assert report.faults_detected > 0
        assert report.dead_letter_indices == ()
        # Every job still has a result, corrupted or not.
        for k in range(len(jobs)):
            report.final_result(k)
        # Injection accounting holds on the batch path too.
        assert inj.total_injected >= report.faults_detected

    def test_clean_run_matches_faulted_run_results(self):
        from repro.faults.injector import FaultInjector
        from repro.hw.accelerator import SeedExAccelerator

        jobs = self._jobs(30)
        clean = SeedExAccelerator().run(jobs)
        inj = FaultInjector(rate=0.3, seed=6)
        chaos = SeedExAccelerator().run(jobs, injector=inj)
        for k in range(len(jobs)):
            assert _same_result(
                clean.final_result(k), chaos.final_result(k)
            )

    def test_bounded_rerun_queue_dead_letters(self):
        from repro.faults.injector import FaultInjector
        from repro.hw.accelerator import SeedExAccelerator

        jobs = self._jobs()
        inj = FaultInjector(rate=0.5, seed=7)
        report = SeedExAccelerator().run(
            jobs, injector=inj, rerun_queue_capacity=2
        )
        assert report.dead_letter_indices
        dead = report.dead_letter_indices[0]
        with pytest.raises(KeyError):
            report.final_result(dead)
