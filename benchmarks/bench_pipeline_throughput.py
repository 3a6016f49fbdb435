"""End-to-end pipeline throughput: scalar vs batched vs sharded.

Not a paper figure — this quantifies what the deferred-extension wave
scheduler (:mod:`repro.aligner.waves`) buys the functional model at
the pipeline level, the software analogue of the accelerator's
batch-of-thousands working set (paper Section V-B).  Three
configurations align the same Platinum-like corpus:

* **scalar** — ``tests/reference_drivers.align_reads``, the per-read
  reference the byte-identity harness compares against (the product
  has no per-read driver; a single read is a window of one): one
  ``engine.extend`` call per chain side, dense per-read host
  traceback.  It stays the baseline of this axis on purpose — the
  engine is the same full-band one in every leg, so the ratio is the
  scheduler's alone;
* **batched** — one aligner process, reads scheduled through left /
  right / traceback waves at the paper's batch geometry (4096);
* **sharded** — the batched pipeline behind the supervised
  multi-process runner.  On a single-core host this only measures the sharding
  overhead; real speedups need real cores.

The scalar pipeline is run on a fixed subset of the corpus (it is the
slow leg by design — that is the point of the comparison) and its rate
extrapolated; the cap is printed, never silent.  SAM byte-identity of
the three paths is pinned by ``tests/test_byte_identity.py``,
so this harness measures speed only.
"""

import numpy as np
import pytest

from repro.aligner.engines import EngineSpec, make_engine
from repro.aligner.parallel import align_supervised
from repro.aligner.pipeline import Aligner
from repro.genome.synth import (
    PLATINUM_LIKE,
    ReadSimulator,
    synthesize_reference,
)
from tests.reference_drivers import align_reads

CORPUS_SEED = 20200613
BATCH_SIZE = 4096
CORPUS_READS = 10_000
SCALAR_CAP = 1_000
"""Reads the scalar leg actually aligns; its reads/s extrapolates."""

_rates: dict[str, float] = {}


@pytest.fixture(scope="module")
def pipeline_corpus():
    """A 10k-read Platinum-like corpus over a 200 kbp reference."""
    rng = np.random.default_rng(CORPUS_SEED + 6)
    reference = synthesize_reference(200_000, rng, repeat_fraction=0.02)
    sim = ReadSimulator(reference, PLATINUM_LIKE, seed=CORPUS_SEED + 7)
    return reference, sim.simulate(CORPUS_READS)


def test_scalar_pipeline_throughput(benchmark, pipeline_corpus):
    """Reference rate: per-chain extends, per-read dense traceback."""
    reference, reads = pipeline_corpus
    subset = reads[:SCALAR_CAP]
    aligner = Aligner(reference, make_engine("full"), seeding="kmer")

    def run():
        align_reads(aligner, subset)

    benchmark.pedantic(run, rounds=1, iterations=1)
    _rates["scalar"] = len(subset) / benchmark.stats.stats.mean
    print(
        f"\nscalar pipeline: {_rates['scalar']:,.0f} reads/s "
        f"(measured on {len(subset):,} of {len(reads):,} reads)"
    )


def test_batched_pipeline_throughput(benchmark, pipeline_corpus):
    """Wave-scheduled rate at the paper's batch geometry."""
    reference, reads = pipeline_corpus
    aligner = Aligner(reference, make_engine("full"), seeding="kmer")

    def run():
        aligner.align_batched(reads, batch_size=BATCH_SIZE)

    benchmark.pedantic(run, rounds=1, iterations=1)
    _rates["batched"] = len(reads) / benchmark.stats.stats.mean
    scalar = _rates.get("scalar")
    speedup = _rates["batched"] / scalar if scalar else float("nan")
    print(
        f"\nbatched pipeline (batch {BATCH_SIZE}): "
        f"{_rates['batched']:,.0f} reads/s ({speedup:.1f}x scalar)"
    )
    if scalar:
        assert _rates["batched"] >= 5 * scalar


def test_sharded_pipeline_throughput(benchmark, pipeline_corpus):
    """Sharded rate; speedup over batched needs real CPU cores."""
    import os

    reference, reads = pipeline_corpus
    workers = min(4, os.cpu_count() or 1)
    spec = EngineSpec(kind="full")

    def run():
        align_supervised(
            reference,
            reads,
            spec=spec,
            workers=workers,
            batch_size=BATCH_SIZE,
            seeding="kmer",
        )

    benchmark.pedantic(run, rounds=1, iterations=1)
    _rates["sharded"] = len(reads) / benchmark.stats.stats.mean
    print(
        f"\nsharded pipeline ({workers} workers): "
        f"{_rates['sharded']:,.0f} reads/s "
        f"(host has {os.cpu_count()} CPU core(s))"
    )
