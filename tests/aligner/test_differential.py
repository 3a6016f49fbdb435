"""Differential SAM tests: every dispatch mode, one byte stream.

The pipeline's whole contract is *no new semantics*: the
deferred-extension wave scheduler, the chunked traceback wave and the
multi-process shard runner are pure scheduling transforms, and the
checked narrow band is the full band by the paper's guarantee — so
SAM output must be byte-identical to the per-read reference
(``Aligner.align`` / ``Aligner.align_read``, full band, one read and
one extension at a time).  This suite pins that contract across

* policies: every sound ``(band, checks)`` setting of the one engine —
  full band, and the checked bands 41 and 5 — while the *unchecked*
  band 5 is shown to diverge on structural indels, so the checks are
  what holds the bytes (Figure 13);
* dispatch: the per-read reference, the wave scheduler at window
  sizes 1, 7 and 4096, and the sharded runner at 1 and 4 workers;
* corpora: three independently-seeded Platinum-like read sets, an
  SV-rich set (every read carries a 15-40 bp indel), plus a ragged
  corpus of pipeline edge cases (empty read, all-``N`` read, junk read
  with no chains, read longer than the whole reference);
* traceback chunking: any chunk bound gives the records of a one-chunk
  fill.

Any divergence — a reordered record, a different CIGAR, a drifted
MAPQ — fails the byte comparison immediately.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.align import fullmatrix
from repro.aligner.engines import BatchedEngine
from repro.aligner.parallel import EngineSpec
from repro.aligner import waves
from repro.genome.sequence import encode
from repro.genome.synth import (
    PLATINUM_LIKE,
    ReadProfile,
    ReadSimulator,
    synthesize_reference,
)
from tests.helpers import sam_bytes

CORPUS_SEEDS = (11, 23, 47)


def _corpus(seed: int, reads: int = 24, ref_len: int = 20_000):
    """One Platinum-like corpus: reference plus simulated reads."""
    rng = np.random.default_rng(seed)
    reference = synthesize_reference(ref_len, rng, repeat_fraction=0.05)
    sim = ReadSimulator(reference, PLATINUM_LIKE, seed=seed + 1)
    return reference, sim.simulate(reads)


def _ragged_corpus():
    """Edge-case reads the wave scheduler must not choke on.

    Interleaved with ordinary mapped reads so every window mixes
    mapped, unmapped, and degenerate slots.
    """
    rng = np.random.default_rng(99)
    reference = synthesize_reference(4_000, rng)
    sim = ReadSimulator(reference, PLATINUM_LIKE, seed=100)
    normal = sim.simulate(8)
    specials = [
        ("empty", np.zeros(0, dtype=np.uint8)),
        ("short", encode("ACGT")),  # below the seed length: no seeds
        ("all_n", encode("N" * 80)),
        # Random junk: seeds may hit repeats but chains rarely form.
        ("junk", rng.integers(0, 4, size=120).astype(np.uint8)),
        # Longer than the whole reference window.
        (
            "megaread",
            np.concatenate(
                [reference, rng.integers(0, 4, size=500).astype(np.uint8)]
            ).astype(np.uint8),
        ),
    ]
    reads: list[tuple[str, np.ndarray]] = []
    for k, read in enumerate(normal):
        reads.append((read.name, np.asarray(read.codes, dtype=np.uint8)))
        if k < len(specials):
            reads.append(specials[k])
    return reference, reads


def _sv_corpus():
    """Every read carries one 15-40 bp indel: the band-hungry tail."""
    rng = np.random.default_rng(7)
    reference = synthesize_reference(20_000, rng, repeat_fraction=0.05)
    profile = ReadProfile(large_indel_rate=1.0, large_indel_min=15)
    return reference, ReadSimulator(reference, profile, seed=8).simulate(24)


_CORPORA = {
    "platinum": lambda: _corpus(CORPUS_SEEDS[0]),
    "ragged": _ragged_corpus,
    "sv": _sv_corpus,
}


@pytest.fixture(scope="module")
def corpora():
    """Each corpus with its per-read, full-band reference bytes."""
    out = {}
    for name, build in _CORPORA.items():
        reference, reads = build()
        out[name] = (
            reference,
            reads,
            sam_bytes(reference, reads, BatchedEngine(), seeding="kmer"),
        )
    return out


@pytest.mark.parametrize("window", [1, 7, 4096])
@pytest.mark.parametrize("band, checks", [(None, False), (41, True), (5, True)])
@pytest.mark.parametrize("corpus", sorted(_CORPORA))
def test_sound_policy_matches_per_read_reference(
    corpora, corpus, band, checks, window
):
    """Full band and checked narrow bands: one byte stream, any window."""
    reference, reads, baseline = corpora[corpus]
    waves = sam_bytes(
        reference,
        reads,
        BatchedEngine(band=band, checks=checks),
        batch_size=window,
        seeding="kmer",
    )
    assert waves == baseline


@pytest.mark.parametrize("window", [1, 7, 4096])
def test_unchecked_narrow_band_diverges_on_sv_corpus(corpora, window):
    """Band 5 without the checks misplaces indels the checked band 5
    gets right — it is the checks that hold the bytes (Figure 13)."""
    reference, reads, baseline = corpora["sv"]
    unchecked = sam_bytes(
        reference,
        reads,
        BatchedEngine(band=5, checks=False),
        batch_size=window,
        seeding="kmer",
    )
    assert unchecked != baseline


@pytest.mark.parametrize("chunk_cells", [1, 5_000])
def test_traceback_chunking_is_invisible(corpora, monkeypatch, chunk_cells):
    """Any bucket bound gives the records of an unbounded wave.

    A bound of one cell puts every traceback job alone in a bucket it
    exceeds; 5,000 cells mixes many-job buckets with jobs larger than
    the bound.  Either way winners with a left and a right job see
    them filled in different buckets, in shape order, not winner order.
    """
    reference, reads, baseline = corpora["sv"]
    waves_seen: list[tuple[list[tuple[int, int]], list[list[int]]]] = []
    pairs_seen: list[list[tuple]] = []
    plan = fullmatrix.plan_buckets
    sides = waves.trace_sides

    def recording_plan(queries, targets, *args):
        buckets = plan(queries, targets, *args)
        shapes = [(len(t) + 1, len(q) + 1) for q, t in zip(queries, targets)]
        waves_seen.append((shapes, buckets))
        return buckets

    def recording_sides(scoring, pairs):
        pairs_seen.append(pairs)
        return sides(scoring, pairs)

    monkeypatch.setattr(fullmatrix, "plan_buckets", recording_plan)
    monkeypatch.setattr(waves, "trace_sides", recording_sides)

    def run(bound):
        waves_seen.clear()
        pairs_seen.clear()
        monkeypatch.setattr(fullmatrix, "TRACEBACK_CHUNK_CELLS", bound)
        out = sam_bytes(
            reference, reads, BatchedEngine(), batch_size=4096, seeding="kmer"
        )
        [(shapes, buckets)] = waves_seen  # one traceback wave per window
        [pairs] = pairs_seen
        return out, shapes, buckets, pairs

    out, shapes, unbounded, _ = run(10**9)
    assert out == baseline
    out, bounded_shapes, buckets, pairs = run(chunk_cells)
    assert out == baseline
    assert bounded_shapes == shapes
    assert len(buckets) > len(unbounded)
    assert sorted(k for bucket in buckets for k in bucket) == list(
        range(len(shapes))
    )
    for bucket in buckets:
        padded = (
            len(bucket)
            * max(shapes[k][0] for k in bucket)
            * max(shapes[k][1] for k in bucket)
        )
        assert len(bucket) == 1 or padded <= chunk_cells
    assert any(
        shapes[bucket[0]][0] * shapes[bucket[0]][1] > chunk_cells
        for bucket in buckets
    )
    if chunk_cells == 1:
        assert all(len(bucket) == 1 for bucket in buckets)
    else:
        assert any(len(bucket) > 1 for bucket in buckets)

    # A winner's two sides are neighbours in the flat job list.
    bucket_of = {k: b for b, bucket in enumerate(buckets) for k in bucket}
    flat = 0
    split = 0
    for left, right in pairs:
        if left is not None and right is not None:
            split += bucket_of[flat] != bucket_of[flat + 1]
        flat += (left is not None) + (right is not None)
    assert split


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_batched_engine_matches_scalar(seed):
    """Wave scheduler + lockstep kernel == scalar loop, byte for byte."""
    reference, reads = _corpus(seed)
    baseline = sam_bytes(reference, reads, BatchedEngine(), seeding="kmer")
    batched = sam_bytes(
        reference,
        reads,
        BatchedEngine(),
        batch_size=7,  # ragged windows: 24 reads -> 7+7+7+3
        seeding="kmer",
    )
    assert batched == baseline


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
@pytest.mark.parametrize("kind", ["full", "batched"])
def test_sharded_matches_scalar(seed, kind):
    """Both full-band engine names x 4 workers == the per-read reference."""
    reference, reads = _corpus(seed)
    baseline = sam_bytes(reference, reads, BatchedEngine(), seeding="kmer")
    sharded = sam_bytes(
        reference,
        reads,
        EngineSpec(kind=kind),
        workers=4,
        batch_size=16,
        seeding="kmer",
    )
    assert sharded == baseline


def test_one_worker_inline_path_matches_scalar():
    """``workers=1`` (no multiprocessing) is the same byte stream too."""
    reference, reads = _corpus(CORPUS_SEEDS[0])
    baseline = sam_bytes(reference, reads, BatchedEngine(), seeding="kmer")
    inline = sam_bytes(
        reference,
        reads,
        EngineSpec(kind="batched"),
        workers=1,
        batch_size=16,
        seeding="kmer",
    )
    assert inline == baseline


@pytest.mark.parametrize("batch_size", [1, 5, 64])
def test_ragged_corpus_matches_scalar(batch_size):
    """Degenerate reads survive every window geometry unchanged."""
    reference, reads = _ragged_corpus()
    baseline = sam_bytes(reference, reads, BatchedEngine(), seeding="kmer")
    batched = sam_bytes(
        reference,
        reads,
        BatchedEngine(),
        batch_size=batch_size,
        seeding="kmer",
    )
    assert batched == baseline


def test_ragged_corpus_sharded_matches_scalar():
    """The ragged corpus also shards cleanly across 4 workers."""
    reference, reads = _ragged_corpus()
    baseline = sam_bytes(reference, reads, BatchedEngine(), seeding="kmer")
    sharded = sam_bytes(
        reference,
        reads,
        EngineSpec(kind="batched"),
        workers=4,
        batch_size=5,
        seeding="kmer",
    )
    assert sharded == baseline


def test_smem_seeding_differential():
    """The contract holds under the FM-index seeding backend as well."""
    reference, reads = _corpus(CORPUS_SEEDS[1], reads=10, ref_len=6_000)
    baseline = sam_bytes(reference, reads, BatchedEngine(), seeding="smem")
    batched = sam_bytes(
        reference, reads, BatchedEngine(), batch_size=4, seeding="smem"
    )
    assert batched == baseline


@pytest.mark.slow
def test_corpus_scale_differential():
    """A corpus-scale run (1k reads) at the paper's batch geometry."""
    reference, reads = _corpus(CORPUS_SEEDS[0], reads=1_000, ref_len=50_000)
    baseline = sam_bytes(reference, reads, BatchedEngine(), seeding="kmer")
    batched = sam_bytes(
        reference, reads, BatchedEngine(), batch_size=4096, seeding="kmer"
    )
    sharded = sam_bytes(
        reference,
        reads,
        EngineSpec(kind="batched"),
        workers=4,
        batch_size=4096,
        seeding="kmer",
    )
    assert batched == baseline
    assert sharded == baseline
