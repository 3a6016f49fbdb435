"""The resilience layer: retry, timeout, and graceful degradation.

:class:`ResilientDispatcher` wraps any extension engine (typically a
:class:`~repro.faults.chaos.ChaosEngine` over the SeedEx engine) and
guarantees the speculate-and-test contract survives a misbehaving
accelerator.  Per job it walks the degradation ladder:

1. **retry on the accelerator** — bounded attempts with exponential
   backoff plus deterministic jitter; short stream stalls are absorbed
   without consuming a retry, long ones count as timeouts;
2. **rerun full-band on the host** — the paper's escape hatch,
   generalized: any job whose accelerator attempts were exhausted is
   recomputed by the full-band software kernel (always correct);
3. **dead-letter** — only when the host rerun queue itself refuses the
   job: the job is recorded with its failure context and a typed
   :class:`~repro.faults.errors.DeadLetterError` tells the pipeline to
   mark the read unmapped-with-reason.  The dispatcher never crashes
   the pipeline and never silently drops a job.

With no injector attached the dispatcher is a measured no-op: one
counter increment and one histogram observation around the bare
engine call (see ``benchmarks/bench_resilience_overhead.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.faults.errors import (
    DeadLetterError,
    FaultError,
    StalledStreamFault,
)
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
        self._dead_letters = reg.counter(
            names.RESILIENCE_DEAD_LETTERS, "jobs that exhausted the ladder"
        )
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

    def record_dead_letter(self) -> None:
        """Account one job that exhausted the whole ladder."""
        self._dead_letters.inc()

    def record_attempts(self, attempts: int) -> None:
        """Observe how many accelerator attempts one job used."""
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
    def dead_letters(self) -> int:
        """Dead-lettered jobs so far."""
        return self._dead_letters.value

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


@dataclass(frozen=True)
class DeadLetter:
    """One job that exhausted the degradation ladder, with context."""

    query: np.ndarray = field(repr=False)
    target: np.ndarray = field(repr=False)
    h0: int = 0
    site: str = ""
    attempts: int = 0
    reason: str = ""


class ResilientDispatcher:
    """Engine wrapper that survives an untrusted accelerator.

    Satisfies the :class:`~repro.aligner.engines.ExtensionEngine`
    protocol, so it plugs straight into the aligner pipeline in place
    of the engine it wraps.  ``fallback`` defaults to a lazily-built
    full-band :class:`~repro.aligner.engines.BatchedEngine` sharing the
    wrapped engine's scoring; ``host_queue_capacity`` bounds how many fallback
    reruns the host accepts (``None`` = unbounded, the bit-identity
    configuration).

    ``breaker`` (a :class:`~repro.durability.breaker.CircuitBreaker`)
    adds a fourth behaviour on top of the ladder: after enough
    *consecutive* host fallbacks it trips and subsequent jobs are
    short-circuited straight to the host full-band kernel without
    burning their retry/timeout budget on an accelerator that is
    plainly down, re-probing on the breaker's half-open schedule.
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
        host_queue_capacity: int | None = None,
        seed: int = 0,
        breaker=None,
    ) -> None:
        self.engine = engine
        self.fallback = fallback
        self.policy = policy or RetryPolicy()
        self.injector = injector
        self.stats = ResilienceStats(registry)
        self.dead_letters: list[DeadLetter] = []
        self.host_queue_capacity = host_queue_capacity
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

    def extend(self, query, target, h0):
        """One extension, guaranteed to terminate down the ladder."""
        policy = self.policy
        stats = self.stats
        stats.record_job()
        if self.breaker is not None and not self.breaker.allow():
            # Breaker open: the accelerator is known-bad, so skip the
            # retry ladder entirely and go straight to the host.
            return self._fallback_engine().extend(query, target, h0)
        attempt = 1
        stalls = 0
        last_site = ""
        while True:
            try:
                result = self.engine.extend(query, target, h0)
            except StalledStreamFault as exc:
                if (
                    exc.seconds <= policy.timeout_s
                    and stalls < policy.max_tolerated_stalls
                ):
                    # The stream resumed within budget: wait it out
                    # without consuming a retry.
                    stalls += 1
                    stats.record_tolerated(exc.site)
                    continue
                stats.record_detected(exc.site)
                stats.record_timeout()
                last_site = exc.site
                if attempt > policy.max_retries:
                    break
                stats.record_retry()
                self._backoff(attempt)
                attempt += 1
                continue
            except FaultError as exc:
                stats.record_detected(exc.site)
                last_site = exc.site
                if attempt > policy.max_retries:
                    break
                stats.record_retry()
                self._backoff(attempt)
                attempt += 1
                continue
            stats.record_attempts(attempt)
            if self.breaker is not None:
                self.breaker.record_success()
            return result

        # Rung 2: full-band rerun on the host.
        if self.breaker is not None:
            self.breaker.record_failure()
        if self._host_accepts():
            stats.record_fallback()
            stats.record_attempts(attempt)
            return self._fallback_engine().extend(query, target, h0)

        # Rung 3: dead-letter — recorded, never silently dropped.
        letter = DeadLetter(
            query=np.asarray(query, dtype=np.uint8),
            target=np.asarray(target, dtype=np.uint8),
            h0=int(h0),
            site=last_site,
            attempts=attempt,
            reason="host rerun queue refused the job",
        )
        self.dead_letters.append(letter)
        stats.record_dead_letter()
        raise DeadLetterError(
            "extension exhausted the degradation ladder",
            site=last_site,
            attempts=attempt,
        )

    def _host_accepts(self) -> bool:
        """Whether the host rerun queue takes one more job."""
        if self.injector is not None and self.injector.overflow():
            self.stats.record_detected("queue.overflow")
            return False
        if self.host_queue_capacity is None:
            return True
        return self.stats.fallbacks < self.host_queue_capacity

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
