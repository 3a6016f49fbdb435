"""The resilience layer: retry, timeout, and graceful degradation.

:class:`ResilientDispatcher` wraps any wave engine (typically a
:class:`~repro.faults.chaos.ChaosEngine` over the SeedEx engine) and
guarantees the speculate-and-test contract survives a misbehaving
accelerator.  The pipeline hands it waves
(:meth:`ResilientDispatcher.extend_wave`); it runs each wave down the
degradation ladder in rounds, as the host of the paper reruns the
failed jobs of a batch from its rerun queue (Section V):

1. **retry on the accelerator** — each round sends every pending job
   in one engine call; a job whose frame faulted (each frame has its
   own CRC, so a fault names its job) goes back for the next round,
   up to its own retry budget, after one jittered exponential backoff
   per round; short stream stalls are absorbed without consuming a
   retry, long ones count as timeouts;
2. **rerun full-band on the host** — the paper's escape hatch,
   generalized: the jobs whose accelerator attempts were exhausted
   are recomputed as one wave by the full-band software kernel,
   which always answers (and is always correct).

The ladder ends at the host, so every job of a wave gets a result:
the dispatcher never crashes the pipeline and never drops a job.

With no injector attached the dispatcher is a passthrough: one
engine call per wave, as the bare engine makes, plus its per-job
counters, whose cost ``benchmarks/bench_resilience_overhead.py``
measures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.align.banded import ExtensionResult
from repro.faults.errors import FaultError, StalledStreamFault
from repro.faults.injector import ALL_SITES, FaultInjector
from repro.obs import names
from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the retry/timeout rung of the ladder.

    ``timeout_s`` is the per-attempt budget a stalled stream is judged
    against; ``backoff_base_s`` doubles per retry up to
    ``backoff_cap_s`` with ``jitter`` (a fraction of the delay)
    randomized to decorrelate retry storms.  ``max_tolerated_stalls``
    bounds how many sub-timeout stalls one job may absorb before they
    escalate to timeouts (an always-stalling stream must not loop).
    """

    max_retries: int = 3
    timeout_s: float = 0.25
    backoff_base_s: float = 0.001
    backoff_cap_s: float = 0.05
    jitter: float = 0.5
    max_tolerated_stalls: int = 8

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")

    def backoff_seconds(self, attempt: int, rng) -> float:
        """Delay before retry ``attempt`` (1-based), jittered."""
        base = min(
            self.backoff_cap_s,
            self.backoff_base_s * 2 ** (attempt - 1),
        )
        return base * (1.0 + self.jitter * float(rng.random()))


class ResilienceStats:
    """Registry-backed accounting of the fault/degradation ladder.

    Follows the :class:`~repro.core.extender.ExtenderStats` pattern: a
    private registry by default, or the process-wide one so
    ``--metrics-out`` and these properties report the same numbers.
    The accounting invariant the chaos suite asserts is
    ``injected == detected + tolerated``.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = (
            registry if registry is not None else MetricsRegistry()
        )
        reg = self.registry
        self._jobs = reg.counter(
            names.RESILIENCE_JOBS, "jobs through the dispatcher"
        )
        self._retries = reg.counter(
            names.RESILIENCE_RETRIES, "accelerator retries"
        )
        self._timeouts = reg.counter(
            names.RESILIENCE_TIMEOUTS, "per-attempt timeouts"
        )
        self._fallbacks = reg.counter(
            names.RESILIENCE_FALLBACKS, "host full-band fallbacks"
        )
        # A quantile sketch costs microseconds per job, so the
        # attempts histogram lives only where it can be read: in the
        # process-wide registry that --metrics-out snapshots.
        self._attempts = None
        if reg is obs.get_registry():
            self._attempts = reg.histogram(
                names.RESILIENCE_ATTEMPTS, "accelerator attempts per job"
            )
        self._injected = {
            site: reg.counter(
                names.FAULTS_INJECTED, "faults injected", site=site
            )
            for site in ALL_SITES
        }
        self._detected = {
            site: reg.counter(
                names.FAULTS_DETECTED, "faults detected", site=site
            )
            for site in ALL_SITES
        }
        self._tolerated = {
            site: reg.counter(
                names.FAULTS_TOLERATED, "faults tolerated", site=site
            )
            for site in ALL_SITES
        }

    # -- recording ------------------------------------------------------

    def record_job(self) -> None:
        """Account one job entering the dispatcher."""
        self._jobs.inc()

    def record_injected(self, site: str) -> None:
        """Account one fault injection (the injector's sink hook)."""
        self._injected[site].inc()

    def record_detected(self, site: str) -> None:
        """Account one fault that surfaced as a typed error."""
        self._detected[site].inc()

    def record_tolerated(self, site: str) -> None:
        """Account one fault absorbed without consequence."""
        self._tolerated[site].inc()

    def record_retry(self) -> None:
        """Account one accelerator retry."""
        self._retries.inc()

    def record_timeout(self) -> None:
        """Account one per-attempt timeout."""
        self._timeouts.inc()

    def record_fallback(self) -> None:
        """Account one host full-band fallback."""
        self._fallbacks.inc()

    def record_attempts(self, attempts: int) -> None:
        """Observe how many accelerator attempts one job used (in the
        process-wide registry only)."""
        if self._attempts is not None:
            self._attempts.observe(attempts)

    # -- façade ---------------------------------------------------------

    @property
    def jobs(self) -> int:
        """Jobs dispatched so far."""
        return self._jobs.value

    @property
    def retries(self) -> int:
        """Accelerator retries so far."""
        return self._retries.value

    @property
    def timeouts(self) -> int:
        """Per-attempt timeouts so far."""
        return self._timeouts.value

    @property
    def fallbacks(self) -> int:
        """Host full-band fallbacks so far."""
        return self._fallbacks.value

    @property
    def detected_total(self) -> int:
        """Detected faults across every site."""
        return sum(c.value for c in self._detected.values())

    @property
    def tolerated_total(self) -> int:
        """Tolerated faults across every site."""
        return sum(c.value for c in self._tolerated.values())

    @property
    def injected_total(self) -> int:
        """Injected faults across every site (mirrored from the injector)."""
        return sum(c.value for c in self._injected.values())

    def accounted(self) -> bool:
        """The invariant: every injection was detected or tolerated."""
        return self.injected_total == (
            self.detected_total + self.tolerated_total
        )


class ResilientDispatcher:
    """Engine wrapper that survives an untrusted accelerator.

    Satisfies the :class:`~repro.aligner.engines.ExtensionEngine`
    protocol (:meth:`extend_wave`), so it plugs straight into the
    aligner pipeline in place of the engine it wraps.  ``fallback``
    defaults to a lazily-built full-band
    :class:`~repro.aligner.engines.BatchedEngine` sharing the wrapped
    engine's scoring.

    ``breaker`` (a :class:`~repro.durability.breaker.CircuitBreaker`)
    adds one behaviour on top of the ladder: after enough
    *consecutive* host fallbacks it trips and subsequent jobs are
    short-circuited straight to the host full-band kernel without
    burning their retry/timeout budget on an accelerator that is
    plainly down, re-probing on the breaker's half-open schedule.
    It is asked once per job as a wave arrives and told each job's
    outcome, in job order, when the wave's rounds end, so it trips
    between waves.
    Output bytes are unchanged either way — the host kernel is the
    ground truth.
    """

    def __init__(
        self,
        engine,
        fallback=None,
        policy: RetryPolicy | None = None,
        injector: FaultInjector | None = None,
        registry: MetricsRegistry | None = None,
        sleep=time.sleep,
        seed: int = 0,
        breaker=None,
    ) -> None:
        self.engine = engine
        self.fallback = fallback
        self.policy = policy or RetryPolicy()
        self.injector = injector
        self.stats = ResilienceStats(registry)
        self.breaker = breaker
        self.name = f"resilient({engine.name})"
        self._sleep = sleep
        self._rng = np.random.default_rng(seed)
        if injector is not None and injector.sink is None:
            injector.sink = self.stats

    @property
    def scoring(self):
        """The wrapped engine's affine-gap scheme (pipeline contract)."""
        return self.engine.scoring

    def extend_wave(self, jobs) -> list[ExtensionResult]:
        """A wave of ``(query, target, h0)`` jobs, run down the ladder
        in rounds; one result per job, in job order.

        The breaker is asked once per job as the wave arrives.  Each
        round sends every pending job in one engine call; a faulted
        job goes back for the next round, a sub-timeout stall without
        using up a retry.  Jobs that exhaust their retries, and jobs
        the breaker denies, run as one host full-band wave, which
        answers every one of them.
        """
        policy = self.policy
        stats = self.stats
        breaker = self.breaker
        n = len(jobs)
        results: list = [None] * n
        attempts, stalls, exhausted = [1] * n, [0] * n, [False] * n
        pending, host = [], []
        for k in range(n):
            stats.record_job()
            if breaker is None or breaker.allow():
                pending.append(k)
            else:  # breaker open: straight to the host
                host.append(k)
        allowed = pending
        while pending:
            outs = self.engine.extend_wave([jobs[k] for k in pending])
            retry, backoff = [], 0
            for k, out in zip(pending, outs):
                if not isinstance(out, FaultError):
                    results[k] = out
                    stats.record_attempts(attempts[k])
                    continue
                if (
                    isinstance(out, StalledStreamFault)
                    and out.seconds <= policy.timeout_s
                    and stalls[k] < policy.max_tolerated_stalls
                ):
                    # The stream resumed within budget: wait it out
                    # without consuming a retry.
                    stalls[k] += 1
                    stats.record_tolerated(out.site)
                    retry.append(k)
                    continue
                stats.record_detected(out.site)
                if isinstance(out, StalledStreamFault):
                    stats.record_timeout()
                if attempts[k] > policy.max_retries:
                    exhausted[k] = True
                    continue
                stats.record_retry()
                backoff = max(backoff, attempts[k])
                attempts[k] += 1
                retry.append(k)
            if backoff:
                self._backoff(backoff)
            pending = retry

        # Rung 2: the host reruns every exhausted job full band, in
        # one wave; the breaker hears each outcome in job order.
        for k in allowed:
            if exhausted[k]:
                stats.record_fallback()
                stats.record_attempts(attempts[k])
                host.append(k)
            if breaker is not None:
                if exhausted[k]:
                    breaker.record_failure()
                else:
                    breaker.record_success()
        if host:
            host.sort()
            computed = self._fallback_engine().extend_wave(
                [jobs[k] for k in host]
            )
            for k, result in zip(host, computed):
                results[k] = result
        return results

    def _fallback_engine(self):
        """The host full-band engine, built lazily on first use."""
        if self.fallback is None:
            from repro.aligner.engines import BatchedEngine

            self.fallback = BatchedEngine(scoring=self.engine.scoring)
        return self.fallback

    def _backoff(self, attempt: int) -> None:
        """Sleep the jittered exponential backoff for ``attempt``."""
        delay = self.policy.backoff_seconds(attempt, self._rng)
        if delay > 0:
            self._sleep(delay)
