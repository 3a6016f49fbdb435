"""Resilience-layer overhead with faults disabled (<1% target).

Not a paper figure — this is the no-op cost contract of the
fault-injection layer: with ``fault_rate=0`` the `ResilientDispatcher`
sends each wave to the bare engine in one `extend_wave` call and adds
only its per-job counters, so wrapping the production path in the
resilience layer must be free for fault-free runs.

Both sides are timed in one test, in interleaved pairs whose order
alternates (bare first, then wrapped first), so warm-up and drift of
the machine fall on both sides alike.  The median per-pair overhead
lands in `benchmarks/metrics_last_run.json` via the session obs dump
(`resilience.overhead.fraction`).
"""

import time

import numpy as np

from repro import obs
from repro.aligner.engines import make_engine, make_resilient
from repro.obs import names

BAND = 41
N_JOBS = 150
PAIRS = 12


def _engine():
    """The checked engine: every repeat recomputes its jobs."""
    return make_engine("seedex", BAND)


def _seconds(engine, wave) -> float:
    start = time.perf_counter()
    engine.extend_wave(wave)
    return time.perf_counter() - start


def test_resilience_overhead_faults_disabled(benchmark, platinum_corpus):
    wave = [
        (job.query, job.target, job.h0)
        for job in platinum_corpus[:N_JOBS]
    ]
    bare = _engine()
    wrapped = make_resilient(_engine(), fault_rate=0.0)
    for engine in (bare, wrapped):
        engine.extend_wave(wave)  # warm-up, untimed

    def pairs():
        """Per-pair ``wrapped / bare - 1``, the first side alternating."""
        out = []
        for k in range(PAIRS):
            if k % 2 == 0:
                t_bare = _seconds(bare, wave)
                t_wrapped = _seconds(wrapped, wave)
            else:
                t_wrapped = _seconds(wrapped, wave)
                t_bare = _seconds(bare, wave)
            out.append(t_wrapped / t_bare - 1.0)
        return out

    overheads = benchmark.pedantic(pairs, rounds=1, iterations=1)
    overhead = float(np.median(overheads))
    obs.get_registry().gauge(
        names.RESILIENCE_OVERHEAD,
        "dispatcher overhead with faults disabled",
    ).set(overhead)
    q1, q3 = np.percentile(overheads, [25, 75])
    print(
        f"\nresilience overhead at w={BAND} over {PAIRS} pairs of "
        f"{N_JOBS}-job waves: median {overhead:+.2%} "
        f"(IQR {q1:+.2%} .. {q3:+.2%}; target: < 1%)"
    )
    # Generous CI bound (timer noise dwarfs the real cost on shared
    # runners); the recorded gauge holds the measured number.
    assert overhead < 0.05
