"""Journal overhead on a healthy corpus (<3% target).

Not a paper figure — this is the cost contract of the durability PR:
committing each completed read window to the checkpoint journal
(temp file + fsync + atomic rename + manifest rewrite) must stay in
the noise next to the alignment work it checkpoints.  Both arms run
:func:`align_supervised` single-process over the same corpus; the
only difference is whether a :class:`RunJournal` is attached.  The
measured throughputs and overhead land in
``bench/results/durability.json`` (formerly ``BENCH_durability.json``
at the repository root).
"""

from __future__ import annotations

import json
import pathlib
import shutil
import tempfile

import numpy as np
import pytest

from repro.aligner.parallel import align_supervised
from repro.durability.journal import RunJournal
from repro.genome.synth import (
    PLATINUM_LIKE,
    ReadSimulator,
    synthesize_reference,
)

BATCH = 64
N_READS = 192
RESULT_PATH = (
    pathlib.Path(__file__).parent.parent / "bench" / "results"
    / "durability.json"
)
_rates: dict[str, float] = {}


@pytest.fixture(scope="module")
def durability_corpus():
    rng = np.random.default_rng(20260806)
    reference = synthesize_reference(30_000, rng, repeat_fraction=0.02)
    sim = ReadSimulator(reference, PLATINUM_LIKE, seed=20260807)
    return reference, sim.simulate(N_READS)


def _run(reference, reads, journal=None):
    result = align_supervised(
        reference,
        reads,
        workers=1,
        batch_size=BATCH,
        seeding="kmer",
        journal=journal,
    )
    assert len(result.records) == len(reads)


def test_journal_off(benchmark, durability_corpus):
    reference, reads = durability_corpus
    benchmark(lambda: _run(reference, reads))
    _rates["off"] = N_READS / benchmark.stats.stats.mean


def test_journal_on(benchmark, durability_corpus):
    reference, reads = durability_corpus
    scratch = tempfile.mkdtemp(prefix="bench-durability-")

    def _journaled():
        run_dir = tempfile.mkdtemp(dir=scratch)
        journal = RunJournal.create(
            run_dir, {"bench": 1}, -(-len(reads) // BATCH)
        )
        _run(reference, reads, journal=journal)

    try:
        benchmark(_journaled)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    _rates["on"] = N_READS / benchmark.stats.stats.mean

    off, on = _rates["off"], _rates["on"]
    overhead = off / on - 1.0
    RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULT_PATH.write_text(
        json.dumps(
            {
                "schema": 1,
                "reads": N_READS,
                "batch_size": BATCH,
                "reads_per_s_journal_off": off,
                "reads_per_s_journal_on": on,
                "overhead_fraction": overhead,
                "target": "< 3% at the default window size",
            },
            indent=2,
        )
        + "\n"
    )
    print(
        f"\ndurability journal overhead: off {off:,.1f} reads/s, "
        f"on {on:,.1f} reads/s -> {overhead:+.2%} (target: < 3%)"
    )
    # Generous CI bound: fsync latency varies wildly on shared
    # runners; the recorded JSON holds the measured number.
    assert overhead < 0.15
