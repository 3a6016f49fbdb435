"""Workload throughput: overlap detection and batched long-read fills.

Not a paper figure — this tracks what the shared kernel substrate buys
the two non-short-read workloads (Section VII-D's argument that one
speculate-and-test scheme serves every alignment shape):

* **overlap** — the two-stage all-vs-all driver
  (:mod:`repro.apps.overlap`) on a tiling fragment corpus: k-mer
  voting plus banded verification waves, measured end to end;
* **long-read fill** — the inter-seed gap-fill stage, scalar
  (:class:`repro.core.globalcheck.GlobalSeedEx`, one gap at a time)
  versus the lockstep escalation ladder
  (:func:`repro.align.globalbatch.fill_gaps_guaranteed`), on the same
  gap corpus.  The batched schedule must clear **>= 3x scalar** — the
  reason ``repro longread --engine batched`` is the default.

The fill stage is measured in isolation because seeding and chaining
dominate the end-to-end long-read wall clock in the functional model
and are schedule-independent; byte-identity of the full pipelines is
pinned by ``tests/test_byte_identity.py`` (including the golden
fixtures), so this harness measures speed only.
"""

import numpy as np
import pytest

from repro.align.globalbatch import fill_gaps_guaranteed
from repro.align.scoring import BWA_MEM_SCORING
from repro.apps.overlap import OverlapParams, find_overlaps
from repro.core.globalcheck import GlobalSeedEx
from repro.genome.synth import fragment_corpus, synthesize_reference

CORPUS_SEED = 20200613
FILL_BAND = 9
"""Narrow enough that the escalation ladder actually engages."""
FILL_JOBS = 400
FILL_TARGET = 3.0
_rates: dict[str, float] = {}


def _gap_corpus(
    n: int, rng: np.random.Generator
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Inter-seed gap pairs: 30-140 bp, ~3% substitutions, occasional
    1-2 bp indels — the geometry chaining hands the fill stage."""
    queries: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    for _ in range(n):
        tlen = int(rng.integers(30, 140))
        target = rng.integers(0, 4, size=tlen).astype(np.uint8)
        query = target.copy()
        mask = rng.random(tlen) < 0.03
        query[mask] = (
            query[mask] + rng.integers(1, 4, size=int(mask.sum()))
        ) % 4
        if rng.random() < 0.3 and tlen > 10:
            pos = int(rng.integers(1, tlen - 5))
            span = int(rng.integers(1, 3))
            if rng.random() < 0.5:
                query = np.delete(query, slice(pos, pos + span))
            else:
                ins = rng.integers(0, 4, size=span).astype(np.uint8)
                query = np.insert(query, pos, ins)
        queries.append(query.astype(np.uint8))
        targets.append(target)
    return queries, targets


def _overlap_reads(
    n_frags: int, rng: np.random.Generator
) -> list[tuple[str, np.ndarray]]:
    reference = synthesize_reference(
        220 * (n_frags - 1) + 300 + 10, rng
    )
    frags = fragment_corpus(
        reference, rng, length=300, step=220, substitution_rate=0.01
    )
    return [(f.name, f.codes) for f in frags]


@pytest.fixture(scope="module")
def overlap_corpus():
    """A 60-fragment tiling corpus (59 true dovetail overlaps)."""
    return _overlap_reads(60, np.random.default_rng(CORPUS_SEED + 8))


@pytest.fixture(scope="module")
def gap_corpus():
    return _gap_corpus(FILL_JOBS, np.random.default_rng(CORPUS_SEED + 9))


def test_overlap_throughput(benchmark, overlap_corpus):
    """End-to-end all-vs-all rate: index + vote + verify waves."""
    params = OverlapParams(min_overlap=50)
    overlaps = find_overlaps(overlap_corpus, params)
    benchmark(lambda: find_overlaps(overlap_corpus, params))
    rate = len(overlaps) / benchmark.stats.stats.min
    print(
        f"\noverlap: {rate:,.0f} pairs/s "
        f"({len(overlaps)} overlaps from {len(overlap_corpus)} reads)"
    )
    assert len(overlaps) >= len(overlap_corpus) - 1


def test_scalar_fill_throughput(benchmark, gap_corpus):
    """Reference rate: one ``GlobalSeedEx`` call per gap."""
    queries, targets = gap_corpus
    filler = GlobalSeedEx(band=FILL_BAND, scoring=BWA_MEM_SCORING)

    def run():
        return [
            filler.align(q, t).result.score
            for q, t in zip(queries, targets)
        ]

    benchmark(run)
    _rates["scalar"] = FILL_JOBS / benchmark.stats.stats.min


def test_batched_fill_speedup(benchmark, gap_corpus):
    """The workload gate: lockstep escalation ladder >= 3x scalar.

    Both schedules return dense-optimal scores (the sanity assert
    repeats the conformance suite's core claim), so the speedup is
    free — it is why ``--engine batched`` is the long-read default.
    """
    queries, targets = gap_corpus
    benchmark(
        lambda: fill_gaps_guaranteed(
            queries, targets, BWA_MEM_SCORING, band=FILL_BAND
        )
    )
    _rates["batched"] = FILL_JOBS / benchmark.stats.stats.min

    outs = fill_gaps_guaranteed(
        queries, targets, BWA_MEM_SCORING, band=FILL_BAND
    )
    filler = GlobalSeedEx(band=FILL_BAND, scoring=BWA_MEM_SCORING)
    scalar_scores = [
        filler.align(q, t).result.score
        for q, t in zip(queries, targets)
    ]
    assert [o.result.score for o in outs] == scalar_scores

    scalar = _rates.get("scalar")
    speedup = _rates["batched"] / scalar if scalar else float("nan")
    print(
        f"\nlong-read fill ({FILL_JOBS} gaps, band {FILL_BAND}): "
        f"batched {_rates['batched']:,.0f} jobs/s vs "
        f"scalar {scalar or 0:,.0f} jobs/s ({speedup:.1f}x), "
        f"{sum(1 for o in outs if o.escalations)} escalated"
    )
    if scalar:
        assert speedup >= FILL_TARGET
