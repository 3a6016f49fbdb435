"""Outside-in span tracing: wrap layer entry points by object identity.

The benchmark may not edit ``src/``, so spans are recorded from here.
:meth:`Tracer.install` takes a table of ``(module, qualname)`` rows,
builds one wrapper per callable, and replaces **every binding of that
exact object** in every loaded ``repro.*`` module and class — so a
call site that did ``from repro.align.fullmatrix import fill_extension``
is covered just like ``fullmatrix.fill_extension``.  :meth:`restore`
puts the originals back the same way, by the identity of the wrapper.

Spans live in memory, one list per thread with a thread-local stack,
and each keeps the index of its parent.  A span's *self time* is its
duration minus the durations of its direct children, so the self times
of a tree sum to its root's duration by construction.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

PACKAGE = "repro"

_NAME, _START, _END, _PARENT, _JOBS, _CELLS, _OUT = range(7)


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point.

    ``count`` maps the call's ``(args, kwargs)`` to ``(jobs, cells)``
    at the call boundary; ``measure`` maps the return value to a count
    (seeds found, chains kept).
    """

    module: str
    qualname: str
    span: str
    count: Callable[[tuple, dict], tuple[int, int]] | None = None
    measure: Callable[[object], int] | None = None


@dataclass
class Span:
    """A finished span, as :meth:`Tracer.spans` returns it."""

    name: str
    start: float
    end: float
    parent: int
    """Index of the parent in the same list, -1 for a root."""
    thread: int
    jobs: int = 0
    cells: int = 0
    out: int = 0
    self_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> None:
    """Fill ``self_time`` of every span: duration minus its children."""
    for span in spans:
        span.self_time = span.duration
    for span in spans:
        if span.parent >= 0:
            spans[span.parent].self_time -= span.duration


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _rebind(old: object, new: object) -> int:
    """Replace every binding of ``old`` in ``repro.*`` by ``new``."""
    hits = 0
    for module in _repro_modules():
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)
                hits += 1
            elif isinstance(value, type) and value.__module__.startswith(
                PACKAGE
            ):
                for attr, member in list(vars(value).items()):
                    if member is old:
                        setattr(value, attr, new)
                        hits += 1
    return hits


class Tracer:
    """Records spans around wrapped callables and explicit regions."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[int, list[list]]] = []
        self._installed: list[tuple[object, object]] = []
        """(wrapper, original) pairs, for :meth:`restore`."""

    # -- recording ------------------------------------------------------

    def _state(self) -> tuple[list[list], list[int]]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [])
            self._local.state = state
            with self._lock:
                self._threads.append((threading.get_ident(), state[0]))
        return state

    def _open(self, name: str, jobs: int = 0, cells: int = 0) -> list:
        records, stack = self._state()
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, jobs, cells, 0]
        stack.append(len(records))
        records.append(record)
        record[_START] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[_END] = time.perf_counter()
        self._local.state[1].pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` under a span named ``name`` (the root span)."""
        record = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(record)

    def wrap(self, fn: Callable, entry: Entry) -> Callable:
        """The span-recording wrapper of ``fn``."""
        count, measure, name = entry.count, entry.measure, entry.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            jobs, cells = count(args, kwargs) if count else (0, 0)
            record = self._open(name, jobs, cells)
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    record[_OUT] = measure(result)
                return result
            finally:
                self._close(record)

        return wrapper

    def spans(self) -> list[Span]:
        """Every finished span, thread by thread, with self times."""
        with self._lock:
            threads = list(self._threads)
        out: list[Span] = []
        for tid, records in threads:
            base = len(out)
            out.extend(
                Span(
                    r[_NAME], r[_START], r[_END],
                    r[_PARENT] + base if r[_PARENT] >= 0 else -1,
                    tid, r[_JOBS], r[_CELLS], r[_OUT],
                )
                for r in list(records)
            )
        self_times(out)
        return out

    # -- install / restore ----------------------------------------------

    def install(self, entries: list[Entry]) -> list[str]:
        """Wrap every row of ``entries``; returns the unresolved rows.

        A row is unresolved when its module does not import, its
        qualname does not resolve, or no binding of the callable was
        found to replace.
        """
        unresolved = []
        for entry in entries:
            label = f"{entry.module}:{entry.qualname}"
            try:
                owner = importlib.import_module(entry.module)
                *path, attr = entry.qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                unresolved.append(label)
                continue
            if isinstance(original, (staticmethod, classmethod)):
                wrapper = type(original)(
                    self.wrap(original.__func__, entry)
                )
            else:
                wrapper = self.wrap(original, entry)
            if _rebind(original, wrapper):
                self._installed.append((wrapper, original))
            else:
                unresolved.append(label)
        return unresolved

    def restore(self) -> None:
        """Put every original back, wherever its wrapper is now bound."""
        for wrapper, original in reversed(self._installed):
            _rebind(wrapper, original)
        self._installed.clear()


def write_chrome_trace(spans: list[Span], path) -> None:
    """Write ``spans`` as Chrome-trace / Perfetto complete events."""
    if not spans:
        origin = 0.0
    else:
        origin = min(span.start for span in spans)
    events = [
        {
            "name": span.name,
            "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": 1,
            "tid": span.thread,
            "args": {"jobs": span.jobs, "cells": span.cells},
        }
        for span in spans
    ]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events}, handle)
