"""Integration tests for the long-read seed-chain-fill aligner."""

import numpy as np
import pytest

from repro.align.cigar import Cigar
from repro.aligner.engines import BatchedEngine, make_resilient
from repro.aligner.longread import (
    LongReadAligner,
    _non_overlapping,
    sam_record,
)
from repro.genome.synth import (
    LongReadProfile,
    simulate_long_reads,
    synthesize_reference,
)
from repro.seeding.mems import Seed


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(33)
    reference = synthesize_reference(80_000, rng)
    reads = simulate_long_reads(reference, 10, rng)
    return reference, reads


class TestAccuracy:
    def test_positions_recovered(self, setup):
        reference, reads = setup
        aligner = LongReadAligner(reference, fill_band=16)
        near = 0
        for read in reads:
            result = aligner.align(read.codes, read.name)
            assert result is not None
            if abs(result.pos - read.true_pos) <= 80:
                near += 1
        assert near >= len(reads) - 1

    def test_cigar_consumes_whole_read(self, setup):
        reference, reads = setup
        aligner = LongReadAligner(reference, fill_band=16)
        for read in reads[:5]:
            result = aligner.align(read.codes, read.name)
            assert result.cigar.query_length == len(read.codes)

    def test_cigar_reference_span_is_consistent(self, setup):
        reference, reads = setup
        aligner = LongReadAligner(reference, fill_band=16)
        read = reads[0]
        result = aligner.align(read.codes, read.name)
        span = result.cigar.reference_length
        # The aligned span must sit inside the reference.
        assert 0 <= result.pos
        assert result.pos + span <= len(reference)


class TestGuarantee:
    def test_fills_are_full_band_equivalent(self, setup):
        """Every fill score equals the full-band global score —
        whether proved by the checks or recovered by rerun."""
        from repro.align.globalband import global_align
        from repro.align.scoring import BWA_MEM_SCORING

        reference, reads = setup
        aligner = LongReadAligner(reference, fill_band=12)
        read = reads[0]
        result = aligner.align(read.codes, read.name)
        # Re-derive one fill independently: total score must not
        # change when fills run at any other band.
        wide = LongReadAligner(reference, fill_band=200)
        wide_result = wide.align(read.codes, read.name)
        assert result.score == wide_result.score
        assert str(result.cigar) == str(wide_result.cigar)

    def test_most_fills_prove_optimal_on_narrow_band(self, setup):
        reference, reads = setup
        aligner = LongReadAligner(reference, fill_band=16)
        for read in reads:
            aligner.align(read.codes, read.name)
        assert aligner.stats.fills > 50
        assert aligner.stats.fill_pass_rate > 0.90

    def test_narrower_band_lowers_pass_rate(self, setup):
        reference, reads = setup
        profile_reads = reads[:6]
        narrow = LongReadAligner(reference, fill_band=3)
        wide = LongReadAligner(reference, fill_band=24)
        for read in profile_reads:
            narrow.align(read.codes, read.name)
            wide.align(read.codes, read.name)
        assert narrow.stats.fill_pass_rate <= wide.stats.fill_pass_rate


class TestEndWaves:
    def test_faulted_end_waves_are_answered_on_the_host(self, setup):
        """End waves behind the fault layer with no retries change
        nothing: every end job whose frame faults is answered by the
        host's full-band wave, equal to the clean waves' result."""
        reference, reads = setup

        def lines(engine):
            aligner = LongReadAligner(reference, fill_band=16)
            alns = aligner.align_batch(reads, engine, batch_size=4)
            return [
                sam_record(r.name, r.codes, aln).to_line()
                for r, aln in zip(reads, alns)
            ]

        faulted = make_resilient(
            BatchedEngine(),
            fault_rate=0.5,
            fault_seed=1,
            max_retries=0,
            sleep=lambda s: None,
        )
        assert lines(faulted) == lines(BatchedEngine())
        assert faulted.stats.fallbacks > 0
        assert faulted.stats.accounted()


class TestPlumbing:
    def test_unalignable_read_returns_none(self, setup):
        reference, _ = setup
        rng = np.random.default_rng(0)
        junk = rng.integers(0, 4, size=800).astype(np.uint8)
        aligner = LongReadAligner(reference)
        assert aligner.align(junk, "junk") is None
        assert aligner.stats.unaligned == 1

    def test_non_overlapping_backbone(self):
        seeds = [
            Seed(0, 30, 100),
            Seed(20, 50, 125),  # overlaps the first in query
            Seed(35, 60, 140),
            Seed(70, 90, 170),
        ]
        backbone = _non_overlapping(seeds)
        assert backbone == [Seed(0, 30, 100), Seed(35, 60, 140),
                            Seed(70, 90, 170)]

    def test_long_read_simulator_truth(self):
        rng = np.random.default_rng(1)
        ref = synthesize_reference(20_000, rng)
        profile = LongReadProfile(
            substitution_rate=0.0, indel_rate=0.0, sv_rate=0.0
        )
        reads = simulate_long_reads(ref, 5, rng, profile)
        for r in reads:
            window = ref[r.true_pos : r.true_pos + len(r.codes)]
            assert (r.codes == window).all()

    def test_simulator_rejects_short_reference(self):
        rng = np.random.default_rng(2)
        ref = synthesize_reference(500, rng)
        with pytest.raises(ValueError):
            simulate_long_reads(ref, 1, rng)
