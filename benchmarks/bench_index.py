"""Persistent index store: build cost, load ladder, end-to-end rate.

Not a paper figure — this tracks what the :mod:`repro.index` artifact
buys and costs: how fast a reference serializes into the CRC-verified
store, what the two load-ladder rungs cost (cold verified load vs the
zero-copy mmap fast path workers take), and that an aligner seeded
from the artifact sustains pipeline throughput.

Recorded in ``bench/results/index.json``: ``index.build.bases_per_s``
(serialization rate), ``index.pipeline.reads_per_s`` (end-to-end
alignment over a memory-mapped artifact), ``index.load.cold_ms``
(full verify) and ``index.load.mmap_ms`` (header-only fast path) —
single-shot wall clocks, for inspection rather than comparison.
"""

from __future__ import annotations

import json
import pathlib
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.aligner.engines import make_engine
from repro.aligner.pipeline import Aligner
from repro.genome.synth import PLATINUM_LIKE, ReadSimulator, synthesize_reference
from repro.index.build import build_index
from repro.index.store import load_index

CORPUS_SEED = 20200613

RESULT_PATH = (
    pathlib.Path(__file__).parent.parent / "bench" / "results"
    / "index.json"
)
"""Machine-readable record of the last full bench run."""


def _measure() -> dict[str, float]:
    """Build rate, both load rungs, and the seeded pipeline rate."""
    rng = np.random.default_rng(CORPUS_SEED + 17)
    n_bases = 250_000
    reference = synthesize_reference(n_bases, rng, repeat_fraction=0.02)
    sim = ReadSimulator(reference, PLATINUM_LIKE, seed=CORPUS_SEED + 18)
    reads = [(r.name, r.codes) for r in sim.simulate(1_000)]

    with tempfile.TemporaryDirectory(prefix="bench-index-") as tmp:
        path = Path(tmp) / "ref.rpidx"

        start = time.perf_counter()
        build_index(reference, path)
        build_s = time.perf_counter() - start

        start = time.perf_counter()
        load_index(path, mmap=False, verify=True)
        cold_s = time.perf_counter() - start

        start = time.perf_counter()
        loaded = load_index(path, mmap=True, verify=False)
        mmap_s = time.perf_counter() - start

        aligner = Aligner(
            reference, make_engine("full"), seeding="kmer", index=loaded
        )
        start = time.perf_counter()
        aligner.align_batched(reads, batch_size=64)
        align_s = time.perf_counter() - start

    return {
        "index.build.bases_per_s": n_bases / build_s,
        "index.load.cold_ms": cold_s * 1e3,
        "index.load.mmap_ms": mmap_s * 1e3,
        "index.pipeline.reads_per_s": len(reads) / align_s,
    }


def test_index_store(benchmark):
    """Run once, record the numbers."""
    metrics = benchmark.pedantic(_measure, rounds=1, iterations=1)
    RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULT_PATH.write_text(
        json.dumps({"schema": 1, **metrics}, indent=2, sort_keys=True)
        + "\n"
    )

