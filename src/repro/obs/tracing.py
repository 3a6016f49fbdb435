"""Lightweight span tracing with Chrome-trace export.

``tracer.span("extend.narrow")`` is a context manager (and decorator,
via :meth:`Tracer.traced`) that records nested wall-clock timings on a
per-thread stack.  The collected spans export to the Chrome trace
event format, loadable in ``chrome://tracing`` or Perfetto, and — when
a :class:`~repro.obs.metrics.MetricsRegistry` is attached — every
finished span ``x.y`` also observes the latency histogram
``x.y.seconds``, so traces and metrics stay in agreement.

Cost model: when the tracer is disabled, ``span()`` returns a shared
no-op context manager without touching the clock — the hot path pays
one attribute check and one function call.  When enabled, records are
bounded by ``max_records`` (oldest kept, overflow counted) so a long
benchmark session cannot grow memory without bound.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: what ran, when, for how long, under what."""

    name: str
    start: float
    duration: float
    depth: int
    thread_id: int
    labels: dict = field(default_factory=dict)


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    duration = 0.0
    """Disabled spans report zero duration."""

    def __enter__(self) -> "_NoopSpan":
        """No-op."""
        return self

    def __exit__(self, *exc) -> bool:
        """No-op; never swallows exceptions."""
        return False


NOOP_SPAN = _NoopSpan()
"""The singleton no-op span (exposed for tests)."""


class Span:
    """A live span: measures wall clock between enter and exit.

    Exception-safe: the duration is recorded and the stack popped even
    when the body raises; the exception always propagates.
    """

    __slots__ = ("tracer", "name", "labels", "start", "duration", "depth")

    def __init__(self, tracer: "Tracer", name: str, labels: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.labels = labels
        self.start = 0.0
        self.duration = 0.0
        self.depth = 0

    def __enter__(self) -> "Span":
        """Start the clock and push onto the per-thread span stack."""
        stack = self.tracer._stack()
        self.depth = len(stack)
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        """Stop the clock, record the span, pop the stack."""
        self.duration = time.perf_counter() - self.start
        stack = self.tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        self.tracer._finish(self)
        return False


class Tracer:
    """Collects spans; exports Chrome-trace JSON; feeds a registry."""

    def __init__(self, registry=None, max_records: int = 200_000) -> None:
        self.enabled = False
        self.registry = registry
        self.max_records = max_records
        self._records: list[SpanRecord] = []
        self._dropped = 0
        self._local = threading.local()
        self._origin = time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, **labels) -> Span | _NoopSpan:
        """A context manager timing ``name``; no-op while disabled."""
        if not self.enabled:
            return NOOP_SPAN
        return Span(self, name, labels)

    def traced(self, name: str, **labels):
        """Decorator form: wrap a callable in :meth:`span`."""

        def decorate(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                with self.span(name, **labels):
                    return func(*args, **kwargs)

            return wrapper

        return decorate

    def _finish(self, span: Span) -> None:
        if len(self._records) >= self.max_records:
            self._dropped += 1
        else:
            self._records.append(
                SpanRecord(
                    name=span.name,
                    start=span.start - self._origin,
                    duration=span.duration,
                    depth=span.depth,
                    thread_id=threading.get_ident(),
                    labels=span.labels,
                )
            )
        if self.registry is not None:
            self.registry.histogram(
                span.name + ".seconds",
                "wall-clock latency of the span",
            ).observe(span.duration)

    # -- inspection -----------------------------------------------------

    @property
    def records(self) -> list[SpanRecord]:
        """Finished spans, in completion order."""
        return self._records

    @property
    def dropped(self) -> int:
        """Spans discarded after ``max_records`` was reached."""
        return self._dropped

    def last(self, name: str) -> SpanRecord | None:
        """Most recently finished span named ``name``, if any."""
        for record in reversed(self._records):
            if record.name == name:
                return record
        return None

    # -- lifecycle ------------------------------------------------------

    def enable(self) -> None:
        """Start collecting spans."""
        self.enabled = True

    def disable(self) -> None:
        """Stop collecting spans (already-collected records remain)."""
        self.enabled = False

    def reset(self) -> None:
        """Discard collected spans and restart the time origin."""
        self._records = []
        self._dropped = 0
        self._origin = time.perf_counter()

    # -- export ---------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The collected spans in Chrome trace event format.

        Complete events (``ph: "X"``) with microsecond timestamps;
        loadable in ``chrome://tracing`` and Perfetto.
        """
        pid = os.getpid()
        events = [
            {
                "name": r.name,
                "cat": "repro",
                "ph": "X",
                "ts": r.start * 1e6,
                "dur": r.duration * 1e6,
                "pid": pid,
                "tid": r.thread_id,
                "args": dict(r.labels, depth=r.depth),
            }
            for r in self._records
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": self._dropped},
        }

    def export_chrome(self, path: str) -> None:
        """Write :meth:`chrome_trace` as JSON to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
            handle.write("\n")
