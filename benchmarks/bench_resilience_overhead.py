"""Resilience-layer overhead with faults disabled (<1% target).

Not a paper figure — this is the no-op cost contract of the
fault-injection PR: with ``fault_rate=0`` the `ResilientDispatcher`
adds only a counter increment and a histogram observation around the
bare engine call, so wrapping the production path in the resilience
layer must be free for fault-free runs.  The measured overhead lands
in `benchmarks/metrics_last_run.json` via the session obs dump
(`resilience.overhead.fraction`).
"""

import pytest

from repro import obs
from repro.aligner.engines import make_engine, make_resilient
from repro.obs import names

BAND = 41
N_JOBS = 150
_rates: dict[str, float] = {}


def _engine():
    """The checked engine: every repeat recomputes its jobs."""
    return make_engine("seedex", BAND)


def _drive(engine, jobs):
    for job in jobs:
        engine.extend(job.query, job.target, job.h0)


def test_bare_engine(benchmark, platinum_corpus):
    jobs = platinum_corpus[:N_JOBS]
    engine = _engine()
    benchmark(lambda: _drive(engine, jobs))
    _rates["bare"] = len(jobs) / benchmark.stats.stats.mean


def test_resilient_dispatcher_faults_disabled(benchmark, platinum_corpus):
    jobs = platinum_corpus[:N_JOBS]
    engine = make_resilient(_engine(), fault_rate=0.0)
    benchmark(lambda: _drive(engine, jobs))
    _rates["wrapped"] = len(jobs) / benchmark.stats.stats.mean

    bare, wrapped = _rates["bare"], _rates["wrapped"]
    overhead = bare / wrapped - 1.0
    obs.get_registry().gauge(
        names.RESILIENCE_OVERHEAD,
        "dispatcher overhead with faults disabled",
    ).set(overhead)
    print(
        f"\nresilience overhead at w={BAND}: bare {bare:,.0f} ext/s, "
        f"wrapped {wrapped:,.0f} ext/s -> {overhead:+.2%} "
        "(target: < 1%)"
    )
    # Generous CI bound (timer noise dwarfs the real cost on shared
    # runners); the recorded gauge holds the measured number.
    assert overhead < 0.05
