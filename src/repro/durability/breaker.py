"""Circuit breaker for the accelerator path of the resilience ladder.

The :class:`~repro.faults.resilience.ResilientDispatcher` already
guarantees every job an answer — retry, then host full-band rerun —
but a *persistently* broken accelerator makes that guarantee
expensive: every job burns its full retry/timeout budget before the
inevitable host fallback.  The breaker turns that repeated discovery
into state:

* **closed** — normal operation; consecutive host fallbacks are
  counted, and ``failure_threshold`` of them in a row trip the breaker
  **open**;
* **open** — jobs are *short-circuited* straight to the host full-band
  kernel (always correct, so SAM output is unchanged) without touching
  the accelerator; after ``probe_interval`` short-circuited jobs the
  breaker arms a probe and goes **half-open**;
* **half-open** — exactly one probe job is allowed onto the
  accelerator: success closes the breaker, another fallback re-opens
  it with the probe interval backed off (doubled, capped).

The schedule is counted in *jobs*, not wall-clock seconds, so breaker
behaviour is deterministic for a fixed input — the property the chaos
byte-identity suites rely on.  State changes are recorded as
:class:`BreakerEvent` entries and mirrored into the metrics registry
(``resilience.breaker.*``, see ``docs/observability.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import names
from repro.obs.metrics import MetricsRegistry


class BreakerState:
    """The three breaker states, as string constants."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


_STATE_GAUGE = {
    BreakerState.CLOSED: 0,
    BreakerState.HALF_OPEN: 1,
    BreakerState.OPEN: 2,
}


@dataclass(frozen=True)
class BreakerPolicy:
    """Knobs of the breaker state machine.

    ``failure_threshold`` consecutive host fallbacks trip the breaker;
    while open, every ``probe_interval`` short-circuited jobs arm one
    half-open probe; each failed probe multiplies the interval by
    ``probe_backoff`` up to ``probe_interval_cap`` (an accelerator
    that stays broken is probed ever more rarely).
    """

    failure_threshold: int = 5
    probe_interval: int = 32
    probe_backoff: float = 2.0
    probe_interval_cap: int = 512

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.probe_interval < 1:
            raise ValueError("probe_interval must be >= 1")
        if self.probe_backoff < 1.0:
            raise ValueError("probe_backoff must be >= 1.0")


@dataclass(frozen=True)
class BreakerEvent:
    """One state change: job index, old state, new state."""

    job: int
    old: str
    new: str


class CircuitBreaker:
    """Job-count-scheduled circuit breaker (closed/open/half-open).

    Single-threaded by design — one breaker guards one dispatcher in
    one process.  Callers ask :meth:`allow` for each job of a wave as
    it arrives and report each job-level outcome after the wave with
    :meth:`record_success` / :meth:`record_failure` (a *failure* is a
    job that fell back to the host, not an individual retry).
    """

    def __init__(
        self,
        policy: BreakerPolicy | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.policy = policy or BreakerPolicy()
        self.registry = registry
        self.state = BreakerState.CLOSED
        self.events: list[BreakerEvent] = []
        self.jobs = 0
        self.short_circuits = 0
        self.probes = 0
        self.trips = 0
        self._consecutive_failures = 0
        self._interval = self.policy.probe_interval
        self._until_probe = 0
        self._set_state_gauge()

    # -- the dispatcher-facing protocol ---------------------------------

    def allow(self) -> bool:
        """Whether the next job may attempt the accelerator.

        ``False`` means short-circuit: route the job straight to the
        host full-band kernel.  While open, each denied job advances
        the probe countdown; the job that reaches it becomes the
        half-open probe and is allowed through.
        """
        self.jobs += 1
        if self.state == BreakerState.CLOSED:
            return True
        if self.state == BreakerState.OPEN:
            self._until_probe -= 1
            if self._until_probe <= 0:
                self._transition(BreakerState.HALF_OPEN)
                self.probes += 1
                self._count(names.RESILIENCE_BREAKER_PROBES, "probes")
                return True
            self.short_circuits += 1
            self._count(
                names.RESILIENCE_BREAKER_SHORT_CIRCUITS, "short circuits"
            )
            return False
        # Half-open with the probe in flight: the rest of the probe's
        # wave short-circuits until its outcome is reported.
        self.short_circuits += 1
        self._count(
            names.RESILIENCE_BREAKER_SHORT_CIRCUITS, "short circuits"
        )
        return False

    def record_success(self) -> None:
        """One job's accelerator attempt ultimately succeeded."""
        self._consecutive_failures = 0
        if self.state == BreakerState.HALF_OPEN:
            # Probe passed: recover, and reset the probe backoff.
            self._interval = self.policy.probe_interval
            self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        """One job exhausted its accelerator attempts (host fallback)."""
        if self.state == BreakerState.HALF_OPEN:
            # Probe failed: back off the probe schedule and re-open.
            self._interval = min(
                self.policy.probe_interval_cap,
                max(
                    self._interval + 1,
                    int(self._interval * self.policy.probe_backoff),
                ),
            )
            self._open()
            return
        if self.state == BreakerState.CLOSED:
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.policy.failure_threshold:
                self.trips += 1
                self._open()

    # -- internals ------------------------------------------------------

    def _open(self) -> None:
        self._until_probe = self._interval
        self._consecutive_failures = 0
        self._transition(BreakerState.OPEN)

    def _transition(self, new: str) -> None:
        old = self.state
        if old == new:
            return
        self.state = new
        self.events.append(BreakerEvent(job=self.jobs, old=old, new=new))
        if self.registry is not None:
            self.registry.counter(
                names.RESILIENCE_BREAKER_TRANSITIONS,
                "breaker state changes",
                to=new,
            ).inc()
        self._set_state_gauge()

    def _set_state_gauge(self) -> None:
        if self.registry is not None:
            self.registry.gauge(
                names.RESILIENCE_BREAKER_STATE,
                "breaker state (0=closed, 1=half-open, 2=open)",
            ).set(_STATE_GAUGE[self.state])

    def _count(self, name: str, help_text: str) -> None:
        if self.registry is not None:
            self.registry.counter(name, help_text).inc()
