"""Differential end-to-end: striped SAM bytes equal scalar SAM bytes.

The conformance suite proves per-result agreement; these tests close
the loop at the pipeline level on a 500-read corpus, through the
configurations where the striped kernel's bucketing actually engages:
the sharded wave scheduler (``--engine batched --workers 2``) and the
chaos-tier resilience dispatcher at a 1% fault rate.  Everything
renders through :func:`tests.helpers.sam_bytes`, so the comparison is
plain ``==`` on bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aligner.engines import make_engine, make_resilient
from repro.aligner.parallel import EngineSpec
from repro.genome.synth import (
    PLATINUM_LIKE,
    ReadSimulator,
    synthesize_reference,
)

from tests.helpers import sam_bytes

BAND = 15
N_READS = 500


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(20260808)
    reference = synthesize_reference(20_000, rng, repeat_fraction=0.02)
    sim = ReadSimulator(reference, PLATINUM_LIKE, seed=811)
    reads = [(r.name, r.codes) for r in sim.simulate(N_READS)]
    return reference, reads


def test_striped_matches_scalar_sharded_batched(corpus):
    """Wave-scheduled, 2 workers: striped and scalar emit equal bytes."""
    reference, reads = corpus
    outputs = {
        kernel: sam_bytes(
            reference,
            reads,
            EngineSpec(kind="batched", kernel=kernel),
            workers=2,
            batch_size=128,
        )
        for kernel in ("scalar", "striped")
    }
    assert outputs["striped"] == outputs["scalar"]
    mapped = sum(
        1
        for line in outputs["striped"].decode().splitlines()
        if not line.startswith("@") and "\t4\t" not in line[:40]
    )
    assert mapped > 400


@pytest.fixture(scope="module")
def long_corpus():
    from repro.genome.synth import LongReadProfile, simulate_long_reads

    rng = np.random.default_rng(20260809)
    reference = synthesize_reference(40_000, rng, repeat_fraction=0.02)
    profile = LongReadProfile(read_length=1200, length_sd=250)
    reads = [
        (r.name, r.codes)
        for r in simulate_long_reads(reference, 24, rng, profile)
    ]
    return reference, reads


def _longread_lines(reference, reads, mode, kernel=None, workers=1):
    from repro.aligner.longread import LongReadRecipe
    from repro.aligner.parallel import align_supervised

    spec = None
    if mode == "batched":
        spec = EngineSpec(kind="batched", kernel=kernel)
    recipe = LongReadRecipe(mode=mode, spec=spec, batch_size=8)
    if workers > 1:
        records = align_supervised(
            reference, reads, recipe=recipe, workers=workers, batch_size=8
        ).records
    else:
        records = recipe.build(reference)(reads)
    return [rec.to_line() for rec in records]


@pytest.mark.parametrize("kernel", ("scalar", "numpy", "striped"))
@pytest.mark.parametrize("workers", (1, 2))
def test_longread_batched_matches_scalar(long_corpus, kernel, workers):
    """Long-read waves: batched SAM lines equal the scalar path's,
    for every kernel backend, sharded or not."""
    reference, reads = long_corpus
    scalar = _longread_lines(reference, reads, "scalar")
    batched = _longread_lines(
        reference, reads, "batched", kernel=kernel, workers=workers
    )
    assert batched == scalar
    mapped = sum(1 for line in scalar if "\t4\t" not in line[:40])
    assert mapped >= 20


def test_paired_batched_matches_scalar(corpus):
    """Batched mate rescue emits the scalar loop's records, bit for
    bit, on every kernel — including the rescued pairs."""
    from repro.aligner.paired import (
        PairedAligner,
        ReadPair,
        simulate_pairs,
    )

    reference, _ = corpus
    rng = np.random.default_rng(97)
    sims = simulate_pairs(reference, 60, rng)
    pairs = [pair for pair, _, _ in sims]
    # Corrupt some second mates with a substitution every 16 bases:
    # no clean 19-mer survives (seeding fails, the mate goes
    # unmapped) but clean 12-mers between the planted sites still
    # anchor the rescue probes — the rescue path has to engage for
    # the comparison to cover it.
    for i in (3, 7, 19, 33):
        second = pairs[i].second.copy()
        second[::16] = (second[::16] + 1) % 4
        pairs[i] = ReadPair(pairs[i].name, pairs[i].first, second)

    scalar = PairedAligner(reference, make_engine("seedex", BAND))
    want = [
        (a.to_line(), b.to_line())
        for a, b in scalar.align_pairs(pairs)
    ]
    want_stats = scalar.stats
    assert want_stats.rescued >= 1

    engines = [
        make_engine(kind, BAND, kernel=kernel)
        for kernel in ("scalar", "numpy", "striped")
        for kind in ("seedex", "full")
    ]
    for engine in engines:
        # Mates and rescue waves share the engine's (band, checks)
        # policy; both sound policies give the per-pair bytes.
        batched = PairedAligner(reference, engine)
        got = [
            (a.to_line(), b.to_line())
            for a, b in batched.align_pairs_batched(pairs, batch_size=16)
        ]
        assert got == want
        assert batched.stats.pairs == want_stats.pairs
        assert batched.stats.proper == want_stats.proper
        assert batched.stats.rescued == want_stats.rescued


@pytest.mark.chaos
def test_striped_chaos_bit_identity(corpus):
    """1% injected faults on the striped path still yield the clean
    scalar bytes — the degradation ladder composes with bucketing."""
    reference, reads = corpus
    clean = sam_bytes(
        reference, reads, make_engine("seedex", BAND, kernel="scalar")
    )
    chaotic_engine = make_resilient(
        make_engine("seedex", BAND, kernel="striped"),
        fault_rate=0.01,
        fault_seed=4,
        max_retries=3,
        sleep=lambda s: None,
    )
    chaotic = sam_bytes(reference, reads, chaotic_engine)
    assert chaotic == clean
    stats = chaotic_engine.stats
    assert stats.injected_total > 0
    assert stats.accounted()
