"""Timing a child process, and the latency arithmetic."""

from __future__ import annotations

import math
import os
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Invocation:
    """One finished child process, timed from spawn to exit."""

    wall_s: float
    cpu_s: float
    """User plus system time of the child and the children it reaped."""
    rss_mb: float
    """``ru_maxrss`` of the child's process tree (kB on Linux)."""
    returncode: int


def reap(process: subprocess.Popen, started: float) -> Invocation:
    """Wait for ``process`` with ``os.wait4`` and read its rusage."""
    _, status, usage = os.wait4(process.pid, 0)
    wall = time.perf_counter() - started
    process.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        returncode=process.returncode,
    )


def timed(argv: list[str], env: dict, log: Path) -> Invocation:
    """Run ``argv`` to completion; stdout and stderr go to ``log``."""
    with open(log, "ab") as sink:
        started = time.perf_counter()
        process = subprocess.Popen(
            argv, env=env, stdout=sink, stderr=subprocess.STDOUT
        )
        return reap(process, started)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``q`` of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def due_latencies_ms(requests: list[dict]) -> list[float]:
    """Latency of each request from the instant it was due.

    A request that was never answered has infinite latency, so it
    misses any limit and drags the high percentiles with it.
    """
    return [
        math.inf
        if r["received"] is None
        else 1000.0 * (r["received"] - r["due"])
        for r in requests
    ]


def lateness_ms(requests: list[dict]) -> float:
    """How late the generator ran at worst: max of sent minus due."""
    return 1000.0 * max(r["sent"] - r["due"] for r in requests)
