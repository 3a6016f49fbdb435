"""Supervision primitives: heartbeats, poison plans, quarantine.

The shard supervisor itself — the process-management loop — lives
with the multiprocessing code in :mod:`repro.aligner.parallel`
(:func:`~repro.aligner.parallel.align_supervised`); this module holds
its building blocks so they stay unit-testable without spawning a
single process:

* :class:`SupervisorPolicy` — restart budget, heartbeat cadence, the
  crash count at which a shard is declared poisoned and bisected;
* :class:`HeartbeatBoard` — a shared array of last-beat timestamps
  workers update from a daemon thread; the parent reads it to tell a
  *hung* worker (process alive, heart stopped) from a *dead* one
  (``exitcode`` set, e.g. SIGKILL);
* :class:`PoisonPlan` — deterministic chaos tooling in the spirit of
  :class:`~repro.faults.injector.FaultInjector`: names reads that
  crash (``kill``), crash exactly once (``kill_once``, via an on-disk
  marker so the retry survives), raise (``raise``), or wedge the
  worker (``hang``).  The crash-path suites drive the supervisor with
  these;
* :class:`Quarantine` — the sidecar writer: poison reads land in
  ``quarantine.fastq`` plus a ``quarantine.tsv`` reason file, and the
  run emits them unmapped with ``XF:Z:quarantined`` instead of dying.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.constants import ReproError
from repro.genome.sequence import decode

QUARANTINE_TAG = "XF:Z:quarantined"
"""SAM tag on reads isolated by poison-shard bisection."""

KILL = "kill"
KILL_ONCE = "kill_once"
RAISE = "raise"
HANG = "hang"
POISON_MODES = (KILL, KILL_ONCE, RAISE, HANG)
"""The poison behaviours :class:`PoisonPlan` can assign to a read."""


class SupervisorError(ReproError, RuntimeError):
    """The supervisor could not keep the run alive (budget exhausted)."""

    exit_code = 1  # the run failed; its inputs were fine


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs of the shard supervisor.

    ``max_restarts`` bounds worker respawns across the whole run (a
    crash loop must not spin forever); ``crash_threshold`` is how many
    times one task may crash before it is declared poisoned and
    bisected; ``heartbeat_interval`` is the worker beat cadence and
    ``hung_timeout`` how long a silent heart is tolerated before the
    worker is killed and its task re-dispatched; ``poll_interval`` is
    the parent's result-queue poll granularity.
    """

    max_restarts: int = 8
    crash_threshold: int = 2
    heartbeat_interval: float = 0.2
    hung_timeout: float = 30.0
    poll_interval: float = 0.05
    shutdown_grace_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.crash_threshold < 1:
            raise ValueError("crash_threshold must be >= 1")
        if self.heartbeat_interval <= 0 or self.hung_timeout <= 0:
            raise ValueError("heartbeat timings must be positive")


class HeartbeatBoard:
    """Shared last-beat timestamps, one slot per worker.

    Built on a lock-free ``multiprocessing`` double array: workers
    write their own slot from a daemon thread, the parent only reads.
    Timestamps are ``time.time()`` — one host, one clock.
    """

    def __init__(self, ctx, workers: int) -> None:
        self._array = ctx.Array("d", [time.time()] * workers, lock=False)

    def beat(self, slot: int) -> None:
        """Record one heartbeat for ``slot`` (worker-side)."""
        self._array[slot] = time.time()

    def touch(self, slot: int) -> None:
        """Reset ``slot`` to *now* (parent-side, at spawn/respawn)."""
        self._array[slot] = time.time()

    def age(self, slot: int) -> float:
        """Seconds since ``slot`` last beat (parent-side)."""
        return time.time() - self._array[slot]

    def start_thread(
        self, slot: int, interval: float
    ) -> threading.Event:
        """Start the worker-side beat thread; returns its stop event.

        The thread is a daemon: a worker that exits (or is killed)
        stops beating, which is exactly the signal the parent needs.
        Chaos hooks (``PoisonPlan`` ``hang`` mode) set the returned
        event to simulate a wedged process whose heart has stopped.
        """
        stop = threading.Event()

        def _beat() -> None:
            while not stop.is_set():
                self.beat(slot)
                stop.wait(interval)

        thread = threading.Thread(
            target=_beat, name=f"heartbeat-{slot}", daemon=True
        )
        thread.start()
        return stop


@dataclass(frozen=True)
class PoisonPlan:
    """Deterministic read-level crash injection for the supervisor.

    ``modes`` maps read names to a poison behaviour; everything is
    picklable so the plan ships to workers with their task.  The
    ``kill_once`` mode needs ``marker_dir``: the first encounter
    drops a marker file *before* dying, so the re-dispatched task
    sails through — modelling a transient crash rather than a poison
    read.
    """

    modes: dict[str, str] = field(default_factory=dict)
    marker_dir: str | None = None

    def __post_init__(self) -> None:
        for name, mode in self.modes.items():
            if mode not in POISON_MODES:
                raise ValueError(
                    f"unknown poison mode {mode!r} for read {name!r}"
                )
        if KILL_ONCE in self.modes.values() and self.marker_dir is None:
            raise ValueError("kill_once poison needs a marker_dir")

    def apply(self, name: str, heartbeat_stop=None) -> None:
        """Trigger the read's poison behaviour, if it has one.

        Called by the worker as it picks up each read.  ``kill`` and
        ``kill_once`` SIGKILL the worker process (no cleanup, exactly
        like the OOM killer); ``raise`` throws an ordinary exception;
        ``hang`` stops the heartbeat thread (``heartbeat_stop``) and
        sleeps forever, simulating a wedged process.
        """
        mode = self.modes.get(name)
        if mode is None:
            return
        if mode == KILL_ONCE:
            marker = Path(self.marker_dir) / f"killed-{name}"
            if marker.exists():
                return
            marker.touch()
            os.kill(os.getpid(), signal.SIGKILL)
        elif mode == KILL:
            os.kill(os.getpid(), signal.SIGKILL)
        elif mode == RAISE:
            raise RuntimeError(f"poison read {name!r} raised")
        elif mode == HANG:
            if heartbeat_stop is not None:
                heartbeat_stop.set()
            time.sleep(3600.0)


class Quarantine:
    """Writer for poison reads: ``quarantine.fastq`` + reason sidecar.

    Appends, deduplicating by read name, so a window re-run after an
    interrupt does not duplicate its quarantine entries.  Reads are
    written as plain FASTQ (placeholder ``I`` qualities — the pipeline
    does not thread qualities) so they can be re-fed to an aligner
    directly for offline triage.
    """

    FASTQ = "quarantine.fastq"
    SIDECAR = "quarantine.tsv"

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._seen: set[str] = set()
        sidecar = self.directory / self.SIDECAR
        if sidecar.exists():
            for line in sidecar.read_text().splitlines():
                if line and not line.startswith("#"):
                    self._seen.add(line.split("\t", 1)[0])

    @property
    def names(self) -> frozenset[str]:
        """Names of every read quarantined so far (including on disk)."""
        return frozenset(self._seen)

    def add(self, name: str, codes: np.ndarray, reason: str) -> bool:
        """Quarantine one read; returns False if already present."""
        if name in self._seen:
            return False
        self._seen.add(name)
        sequence = decode(np.asarray(codes, dtype=np.uint8))
        with open(self.directory / self.FASTQ, "a") as handle:
            handle.write(
                f"@{name}\n{sequence}\n+\n{'I' * len(sequence)}\n"
            )
        sidecar = self.directory / self.SIDECAR
        fresh = not sidecar.exists()
        with open(sidecar, "a") as handle:
            if fresh:
                handle.write("# read\treason\n")
            handle.write(f"{name}\t{reason}\n")
        return True
