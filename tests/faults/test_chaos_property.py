"""Headline chaos property: SAM bit-identity under injected faults.

The resilience contract of the whole PR: with the degradation ladder
in place, a SeedEx aligner whose datapath is being actively corrupted
still emits records bit-identical to the trusted full-band software
aligner — at 0%, 1%, and 10% fault rates across multiple fault seeds —
and every injected fault is accounted for (detected or tolerated;
never silent).
"""

import numpy as np
import pytest

from repro.aligner.engines import make_engine, make_resilient
from repro.aligner.pipeline import Aligner
from repro.genome.sam import diff_records
from repro.genome.synth import synthesize_reference

pytestmark = pytest.mark.chaos
"""Chaos tier: selected by the CI chaos job via ``-m chaos``."""

N_READS = 18
READ_LEN = 101

FAULT_RATES = (0.0, 0.01, 0.1)
FAULT_SEEDS = (1, 2, 3)


@pytest.fixture(scope="module")
def reference():
    rng = np.random.default_rng(1234)
    return synthesize_reference(15_000, rng)


@pytest.fixture(scope="module")
def reads(reference):
    rng = np.random.default_rng(77)
    out = []
    for k in range(N_READS):
        pos = int(rng.integers(0, len(reference) - READ_LEN))
        read = reference[pos : pos + READ_LEN].copy()
        # A couple of substitutions so extensions do real work.
        for site in rng.choice(READ_LEN, size=2, replace=False):
            read[site] = (read[site] + 1 + rng.integers(3)) % 4
        out.append((f"r{k}", read))
    return out


@pytest.fixture(scope="module")
def baseline(reference, reads):
    aligner = Aligner(reference, make_engine("full"), seeding="kmer")
    return [aligner.align_read(codes, name) for name, codes in reads]


@pytest.mark.parametrize("fault_seed", FAULT_SEEDS)
@pytest.mark.parametrize("fault_rate", FAULT_RATES)
def test_sam_bit_identity_under_chaos(
    reference, reads, baseline, fault_rate, fault_seed
):
    """diff_records == 0 at every fault rate, for every fault seed."""
    engine = make_resilient(
        make_engine("seedex", 9),
        fault_rate=fault_rate,
        fault_seed=fault_seed,
        max_retries=3,
        sleep=lambda s: None,
    )
    aligner = Aligner(reference, engine, seeding="kmer")
    records = [aligner.align_read(codes, name) for name, codes in reads]

    assert diff_records(baseline, records) == 0

    stats = engine.stats
    if fault_rate == 0.0:
        assert stats.injected_total == 0
        assert engine.injector is None
    else:
        # No silent corruption: every injection was either detected
        # by a CRC/timeout or provably absorbed at its seam.
        assert stats.accounted(), (
            f"injected={stats.injected_total} != "
            f"detected={stats.detected_total} + "
            f"tolerated={stats.tolerated_total}"
        )


def test_high_rate_chaos_actually_exercised(reference, reads, baseline):
    """At 10% the ladder must really fire — the suite is not vacuous."""
    engine = make_resilient(
        make_engine("seedex", 9),
        fault_rate=0.1,
        fault_seed=1,
        sleep=lambda s: None,
    )
    aligner = Aligner(reference, engine, seeding="kmer")
    records = [aligner.align_read(codes, name) for name, codes in reads]
    stats = engine.stats
    assert diff_records(baseline, records) == 0
    assert stats.injected_total > 10
    assert stats.detected_total > 0
    assert stats.retries > 0


def test_chaos_fault_sequence_is_reproducible(reference, reads):
    """Same (rate, seed) → identical injection counts and records."""

    def run():
        engine = make_resilient(
            make_engine("seedex", 9),
            fault_rate=0.1,
            fault_seed=2,
            sleep=lambda s: None,
        )
        aligner = Aligner(reference, engine, seeding="kmer")
        recs = [aligner.align_read(codes, name) for name, codes in reads]
        return recs, dict(engine.injector.injected)

    recs_a, injected_a = run()
    recs_b, injected_b = run()
    assert injected_a == injected_b
    assert diff_records(recs_a, recs_b) == 0


def test_zero_retries_answer_every_job_on_the_host(
    reference, reads, baseline
):
    """At a 90% fault rate with no retries, every job whose frame
    faults goes straight to the host, which answers it: the records
    equal the clean run's."""
    engine = make_resilient(
        make_engine("seedex", 9),
        fault_rate=0.9,
        fault_seed=3,
        max_retries=0,
        sleep=lambda s: None,
    )
    aligner = Aligner(reference, engine, seeding="kmer")
    records = [aligner.align_read(codes, name) for name, codes in reads]
    assert diff_records(baseline, records) == 0
    assert engine.stats.fallbacks > 0
    assert engine.stats.accounted()
