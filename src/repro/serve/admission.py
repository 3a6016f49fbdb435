"""Bounded admission with load shedding, deadlines, and drain.

The :class:`AdmissionQueue` is the server's only buffer between client
reader threads (producers) and the single batcher thread (consumer).
Its contract is the robustness envelope of ``repro serve``:

* **bounded** — at most ``capacity`` tickets wait; memory cannot grow
  with offered load;
* **load shedding** — a ticket arriving at depth >= ``high_water`` is
  rejected *immediately* (:data:`~repro.serve.protocol.E_OVERLOADED`)
  instead of queued — an overloaded server answers in microseconds
  with a retry-after hint rather than timing everyone out;
* **deadlines** — each ticket may carry an absolute monotonic
  deadline; expired tickets are dropped at pop time, *before* the
  wave scheduler ever sees them, and handed back to the server for a
  typed :data:`~repro.serve.protocol.E_DEADLINE` response;
* **drain** — :meth:`close` stops admission (typed
  :data:`~repro.serve.protocol.E_DRAINING` rejections) while the
  batcher keeps popping until the queue is empty, so every admitted
  request is answered before shutdown.

All time is caller-supplied monotonic seconds; the queue itself never
reads a clock, which keeps the shedding/deadline policies directly
unit-testable.  :class:`MicroBatchPolicy` says how many tickets one
:meth:`AdmissionQueue.pop_wave` takes and how long it lingers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from repro.serve.protocol import E_DRAINING, E_OVERLOADED, Request

DEFAULT_CAPACITY = 256
"""Default admission queue capacity (tickets)."""


@dataclass
class Ticket:
    """One admitted ALIGN request waiting for (or riding) a wave."""

    request: Request
    session: Any
    admitted_at: float
    deadline: float | None = None
    wal_seq: int | None = None

    def expired(self, now: float) -> bool:
        """Whether the ticket's deadline has passed at ``now``."""
        return self.deadline is not None and now >= self.deadline


@dataclass(frozen=True)
class Decision:
    """The outcome of one admission attempt."""

    admitted: bool
    code: str | None = None
    depth: int = 0


@dataclass
class Wave:
    """What one :meth:`AdmissionQueue.pop_wave` produced."""

    batch: list[Ticket] = field(default_factory=list)
    expired: list[Ticket] = field(default_factory=list)
    closed: bool = False
    """True when the queue is drained *and* closed: the batcher's
    signal to exit its loop."""


@dataclass(frozen=True)
class MicroBatchPolicy:
    """How the resident server coalesces requests into waves.

    ``repro serve`` pops admitted requests from its bounded queue and
    feeds them to the wave scheduler in micro-batches: up to
    ``max_batch`` reads per wave, waiting at most ``linger_ms`` from
    the first available request for the batch to fill.  Small
    ``linger_ms`` favours latency; large favours wave occupancy (the
    same producer/consumer trade :mod:`repro.system.batching`'s
    steady-state model quantifies for the paper's FPGA driver
    threads).
    """

    max_batch: int = 64
    linger_ms: float = 20.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.linger_ms < 0:
            raise ValueError("linger_ms must be non-negative")

    @property
    def linger_s(self) -> float:
        """The linger window in seconds (the queue's native unit)."""
        return self.linger_ms / 1000.0


class AdmissionQueue:
    """The bounded, shedding, drainable ticket queue (thread-safe)."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        high_water: int | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = int(capacity)
        self.high_water = (
            int(high_water) if high_water is not None else self.capacity
        )
        if not 1 <= self.high_water <= self.capacity:
            raise ValueError("high_water must be in [1, capacity]")
        self._items: list[Ticket] = []
        self._lock = threading.Lock()
        self._nonempty = threading.Condition(self._lock)
        self._closed = False

    # -- producer side --------------------------------------------------

    def try_admit(self, ticket: Ticket) -> Decision:
        """Admit ``ticket`` or shed it; never blocks.

        Rejections carry the typed code the caller turns into a wire
        response: ``draining`` once :meth:`close` ran, ``overloaded``
        at or past the high-water mark.
        """
        with self._nonempty:
            depth = len(self._items)
            if self._closed:
                return Decision(False, E_DRAINING, depth)
            if depth >= self.high_water:
                return Decision(False, E_OVERLOADED, depth)
            self._items.append(ticket)
            self._nonempty.notify()
            return Decision(True, None, depth + 1)

    def depth(self) -> int:
        """Tickets currently waiting."""
        with self._lock:
            return len(self._items)

    # -- consumer side --------------------------------------------------

    def pop_wave(
        self, max_batch: int, linger_s: float, clock
    ) -> Wave:
        """Pop the next micro-batch for the batcher thread.

        Blocks until at least one ticket arrived or the queue was
        closed, then lingers up to ``linger_s`` from the *first*
        ticket's availability for the batch to fill to ``max_batch``
        (close() cuts the linger short so drain is prompt).  Expired
        tickets are separated out, never batched.

        ``clock`` is a monotonic-seconds callable
        (``time.monotonic`` in production, scriptable in tests).
        """
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        with self._nonempty:
            while not self._items and not self._closed:
                self._nonempty.wait(timeout=0.25)
            if not self._items and self._closed:
                return Wave(closed=True)
            now = clock()
            linger_deadline = now + max(0.0, linger_s)
            while (
                len(self._items) < max_batch
                and not self._closed
                and now < linger_deadline
            ):
                self._nonempty.wait(timeout=linger_deadline - now)
                now = clock()
            taken = self._items[:max_batch]
            del self._items[: len(taken)]
        now = clock()
        wave = Wave()
        for ticket in taken:
            if ticket.expired(now):
                wave.expired.append(ticket)
            else:
                wave.batch.append(ticket)
        return wave

    # -- drain ----------------------------------------------------------

    def close(self) -> None:
        """Stop admitting; wake the batcher to drain what remains."""
        with self._nonempty:
            self._closed = True
            self._nonempty.notify_all()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (draining)."""
        return self._closed
