"""Served-alignment throughput and latency percentiles.

Not a paper figure — this tracks what the resident server
(:mod:`repro.serve`) costs over direct batch alignment: requests
arrive one per socket frame, pass admission control, linger in a
micro-batch window, and return one per frame.  The suite drives an
in-process :class:`AlignmentServer` over loopback TCP with concurrent
pipelined clients, the exact shape `repro client` produces.

Gated metric: ``serve.requests_per_s`` (end-to-end served
throughput, higher is better, same rolling-median rules as every
``*_per_s``).  Trend-only: ``serve.latency.p50_ms`` /
``serve.latency.p99_ms`` — wall-clock percentiles are recorded for
inspection but too noisy to gate.
"""

from __future__ import annotations

import numpy as np

from repro.aligner.engines import make_engine
from repro.aligner.pipeline import Aligner
from repro.genome.sequence import decode
from repro.genome.synth import PLATINUM_LIKE, ReadSimulator, synthesize_reference
from repro.serve.client import run_load
from repro.serve.server import AlignmentServer, ServeConfig

CORPUS_SEED = 20200613
CONNECTIONS = 3
"""Concurrent pipelined client connections driving the server."""


def tier1_bench(quick: bool = False) -> dict[str, float]:
    """``repro bench`` hook: served requests/s plus latency trends."""
    rng = np.random.default_rng(CORPUS_SEED + 11)
    reference = synthesize_reference(
        40_000 if quick else 120_000, rng, repeat_fraction=0.02
    )
    sim = ReadSimulator(reference, PLATINUM_LIKE, seed=CORPUS_SEED + 12)
    reads = sim.simulate(200 if quick else 1_200)
    pairs = [(r.name, decode(r.codes)) for r in reads]
    aligner = Aligner(reference, make_engine("full"), seeding="kmer")
    server = AlignmentServer(
        aligner,
        ServeConfig(max_batch=64, linger_ms=2.0, queue_capacity=4096),
    )
    port = server.start()
    try:
        report = run_load(
            "127.0.0.1",
            port,
            pairs,
            connections=CONNECTIONS,
            client="bench",
            timeout_s=600.0,
        )
    finally:
        server.shutdown()
    if len(report.ok) != len(pairs):
        raise RuntimeError(
            f"bench load was not fully served: {len(report.ok)} ok of "
            f"{len(pairs)} sent ({report.shed_total} shed, "
            f"{len(report.unanswered)} unanswered)"
        )
    return {
        "serve.requests_per_s": len(pairs) / report.elapsed_s,
        "serve.latency.p50_ms": report.percentile_ms(0.50),
        "serve.latency.p99_ms": report.percentile_ms(0.99),
    }


if __name__ == "__main__":
    for name, value in tier1_bench(quick=True).items():
        print(f"{name}: {value:,.2f}")
