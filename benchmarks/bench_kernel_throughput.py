"""Functional-model throughput: the lockstep sweep vs the per-job oracle.

Not a paper figure — this quantifies the reproduction's own simulation
capacity (the repro gate for this paper is "functional model only; too
slow for throughput claims").  Two configurations at the paper's band
sweet spot ``w=15``, over the first 100 Platinum-profile jobs:

* ``banded`` — the per-job reference, one extension at a time
  (:func:`repro.align.banded.extend`), the conformance oracle;
* ``lockstep`` — the one lockstep sweep over the whole batch
  (:func:`repro.align.lockstep.extend_batch`).  Every ``--kernel``
  name runs this call, so it is the only extension fill the product
  has.

Measured rates land in ``bench/results/kernels.json``; the sweep must
clear 3x the per-job oracle, and the two are bit-identical
(``tests/kernels/``), so the speedup is free.
"""

import json
import pathlib

from repro.align import banded, lockstep
from repro.align.scoring import BWA_MEM_SCORING

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


def test_banded_reference_throughput(benchmark, platinum_corpus):
    queries, targets, h0s = _jobs(platinum_corpus)

    def run():
        for query, target, h0 in zip(queries, targets, h0s):
            banded.extend(query, target, BWA_MEM_SCORING, h0, w=BAND)

    benchmark(run)
    _rates["banded"] = N_JOBS / benchmark.stats.stats.mean


def test_lockstep_batch_throughput(benchmark, platinum_corpus):
    queries, targets, h0s = _jobs(platinum_corpus)

    def run():
        lockstep.extend_batch(
            queries, targets, h0s, BWA_MEM_SCORING, w=BAND
        )

    benchmark(run)
    _rates["lockstep"] = N_JOBS / benchmark.stats.stats.mean

    speedup = _rates["lockstep"] / _rates["banded"]
    print(
        f"\nfunctional-model throughput at w={BAND}: "
        + ", ".join(
            f"{name} {rate:,.0f} ext/s" for name, rate in _rates.items()
        )
        + f" ({speedup:.1f}x lockstep vs per-job banded)"
    )
    print(
        "paper device: 43.9 M ext/s — the functional model is "
        f"~{43.9e6 / _rates['lockstep']:,.0f}x slower, which is why "
        "throughput figures are reproduced via the calibrated timing model"
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
                "lockstep_speedup_vs_banded": speedup,
                "target": ">= 3x the per-job banded.extend at w=15",
            },
            indent=2,
        )
        + "\n"
    )
    assert speedup >= 3.0
