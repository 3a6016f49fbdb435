"""Functional-model throughput: scalar vs vectorized kernel backends.

Not a paper figure — this quantifies the reproduction's own simulation
capacity (the repro gate for this paper is "functional model only; too
slow for throughput claims").  Three configurations at the paper's
band sweet spot ``w=15``:

* ``scalar`` — the reference backend, one job at a time
  (:func:`repro.align.banded.extend`);
* ``scalar-batch`` — the scalar backend's batch kernel, the one
  lockstep sweep (:func:`repro.align.lockstep.extend_batch`);
* ``numpy`` — the anti-diagonal wavefront backend's fused batch
  kernel (:mod:`repro.kernels.wavefront`), which vectorizes jobs x
  diagonal cells;
* ``striped`` — the inter-sequence striped backend
  (:mod:`repro.kernels.striped`), which shape-buckets the batch and
  sweeps whole buckets in lockstep.  Its advantage grows with batch
  size (the per-row dispatch overhead amortizes across jobs), so it
  gets a dedicated big-batch axis with a **>= 5x over numpy at 4096
  jobs** gate.

Measured rates land in ``bench/results/kernels.json`` (formerly
``BENCH_kernels.json`` at the repo root); the numpy backend must clear
3x the single-thread scalar reference, striped must clear 5x numpy on
the big batch, and all backends are bit-identical
(``tests/kernels/``), so the speedups are free.
"""

import json
import pathlib
import time

from repro.align.scoring import BWA_MEM_SCORING
from repro.kernels import get_kernel

BAND = 15
N_JOBS = 100
BIG_BATCH = 4096
STRIPED_TARGET = 5.0
RESULT_PATH = (
    pathlib.Path(__file__).parent.parent / "bench" / "results"
    / "kernels.json"
)
_rates: dict[str, float] = {}


def _jobs(platinum_corpus):
    jobs = platinum_corpus[:N_JOBS]
    return (
        [j.query for j in jobs],
        [j.target for j in jobs],
        [j.h0 for j in jobs],
    )


def test_scalar_kernel_throughput(benchmark, platinum_corpus):
    kernel = get_kernel("scalar")
    queries, targets, h0s = _jobs(platinum_corpus)

    def run():
        for query, target, h0 in zip(queries, targets, h0s):
            kernel.extend(query, target, BWA_MEM_SCORING, h0, w=BAND)

    benchmark(run)
    _rates["scalar"] = N_JOBS / benchmark.stats.stats.mean


def test_scalar_batch_throughput(benchmark, platinum_corpus):
    kernel = get_kernel("scalar")
    queries, targets, h0s = _jobs(platinum_corpus)

    def run():
        kernel.extend_batch(
            queries, targets, h0s, BWA_MEM_SCORING, w=BAND
        )

    benchmark(run)
    _rates["scalar-batch"] = N_JOBS / benchmark.stats.stats.mean


def test_numpy_kernel_throughput(benchmark, platinum_corpus):
    kernel = get_kernel("numpy")
    queries, targets, h0s = _jobs(platinum_corpus)

    def run():
        kernel.extend_batch(
            queries, targets, h0s, BWA_MEM_SCORING, w=BAND
        )

    benchmark(run)
    _rates["numpy"] = N_JOBS / benchmark.stats.stats.mean

    scalar = _rates["scalar"]
    numpy_rate = _rates["numpy"]
    speedup = numpy_rate / scalar
    print(
        f"\nfunctional-model throughput at w={BAND}: "
        + ", ".join(
            f"{name} {rate:,.0f} ext/s" for name, rate in _rates.items()
        )
        + f" ({speedup:.1f}x numpy vs scalar)"
    )
    print(
        "paper device: 43.9 M ext/s — the functional model is "
        f"~{43.9e6 / numpy_rate:,.0f}x slower, which is why throughput "
        "figures are reproduced via the calibrated timing model"
    )
    RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULT_PATH.write_text(
        json.dumps(
            {
                "schema": 1,
                "band": BAND,
                "jobs": N_JOBS,
                "ext_per_s": {
                    name: rate for name, rate in sorted(_rates.items())
                },
                "numpy_speedup_vs_scalar": speedup,
                "target": ">= 3x single-thread scalar at w=15",
            },
            indent=2,
        )
        + "\n"
    )
    assert speedup >= 3.0


def test_striped_kernel_throughput(benchmark, platinum_corpus):
    """Small-batch axis: striped must at least stay in the numpy race.

    100 jobs is below the striped backend's occupancy floor, so this
    axis only pins that small batches are not pathological; the 5x
    gate lives on the big-batch axis below.
    """
    kernel = get_kernel("striped")
    queries, targets, h0s = _jobs(platinum_corpus)

    def run():
        kernel.extend_batch(
            queries, targets, h0s, BWA_MEM_SCORING, w=BAND
        )

    benchmark(run)
    _rates["striped"] = N_JOBS / benchmark.stats.stats.mean


def test_striped_big_batch_speedup(benchmark):
    """The tentpole gate: striped >= 5x numpy at a 4096-job batch.

    A ragged corpus (varied query lengths) so the shape-bucketing and
    padding machinery is on the measured path, not bypassed.
    """
    import numpy as np

    from repro.genome.synth import extension_corpus

    rng = np.random.default_rng(20200613)
    corpus = extension_corpus(
        BIG_BATCH, rng, query_length=101, vary_query_length=True
    )
    queries = [j.query for j in corpus]
    targets = [j.target for j in corpus]
    h0s = [j.h0 for j in corpus]

    striped = get_kernel("striped")
    benchmark(
        lambda: striped.extend_batch(
            queries, targets, h0s, BWA_MEM_SCORING, w=BAND
        )
    )
    # Best-vs-best: numpy's rate below is its fastest of three runs,
    # so compare against striped's fastest too — means are hostage to
    # whatever else the host was doing during the slowest round.
    striped_rate = BIG_BATCH / benchmark.stats.stats.min

    numpy_kernel = get_kernel("numpy")
    numpy_elapsed = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        numpy_kernel.extend_batch(
            queries, targets, h0s, BWA_MEM_SCORING, w=BAND
        )
        numpy_elapsed = min(numpy_elapsed, time.perf_counter() - start)
    numpy_rate = BIG_BATCH / numpy_elapsed
    speedup = striped_rate / numpy_rate
    print(
        f"\nbig-batch ({BIG_BATCH} jobs, w={BAND}): "
        f"striped {striped_rate:,.0f} ext/s vs "
        f"numpy {numpy_rate:,.0f} ext/s ({speedup:.1f}x)"
    )

    RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
    try:
        record = json.loads(RESULT_PATH.read_text())
    except (OSError, ValueError):
        record = {"schema": 1, "band": BAND}
    record.setdefault("ext_per_s", {}).update(
        {name: rate for name, rate in sorted(_rates.items())}
    )
    record["big_batch"] = {
        "jobs": BIG_BATCH,
        "ext_per_s": {"numpy": numpy_rate, "striped": striped_rate},
        "striped_speedup_vs_numpy": speedup,
        "target": f">= {STRIPED_TARGET}x numpy at {BIG_BATCH} jobs",
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    assert speedup >= STRIPED_TARGET
