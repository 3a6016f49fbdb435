"""Functional-model throughput: scalar vs vectorized kernel backends.

Not a paper figure — this quantifies the reproduction's own simulation
capacity (the repro gate for this paper is "functional model only; too
slow for throughput claims").  Four configurations at the paper's
band sweet spot ``w=15``:

* ``scalar`` — the reference backend, one job at a time
  (:func:`repro.align.banded.extend`);
* ``scalar-batch`` — the scalar backend's batch kernel, the one
  lockstep sweep (:func:`repro.align.lockstep.extend_batch`);
* ``numpy`` — the anti-diagonal wavefront backend's fused batch
  kernel (:mod:`repro.kernels.wavefront`), which vectorizes jobs x
  diagonal cells;
* ``striped`` — the inter-sequence backend
  (:mod:`repro.kernels.striped`), which hands every extension batch to
  the same lockstep sweep as ``scalar-batch``, so its rate should read
  as ``scalar-batch``'s.

Measured rates land in ``bench/results/kernels.json`` (formerly
``BENCH_kernels.json`` at the repo root); the numpy backend must clear
3x the single-thread scalar reference, and all backends are
bit-identical (``tests/kernels/``), so the speedups are free.
"""

import json
import pathlib

from repro.align.scoring import BWA_MEM_SCORING
from repro.kernels import get_kernel

BAND = 15
N_JOBS = 100
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
    """The striped backend's rate, added to the record the numpy
    test wrote."""
    kernel = get_kernel("striped")
    queries, targets, h0s = _jobs(platinum_corpus)

    def run():
        kernel.extend_batch(
            queries, targets, h0s, BWA_MEM_SCORING, w=BAND
        )

    benchmark(run)
    _rates["striped"] = N_JOBS / benchmark.stats.stats.mean

    try:
        record = json.loads(RESULT_PATH.read_text())
    except (OSError, ValueError):
        record = {"schema": 1, "band": BAND, "jobs": N_JOBS}
    record["ext_per_s"] = {
        name: rate for name, rate in sorted(_rates.items())
    }
    RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
