"""Integration tests for the end-to-end aligner."""

import numpy as np
import pytest

from repro.align.cigar import Cigar
from repro.aligner.engines import make_engine
from repro.aligner.pipeline import Aligner
from repro.genome.sam import diff_records
from repro.genome.sequence import decode, random_sequence
from repro.genome.synth import (
    CLEAN,
    PLATINUM_LIKE,
    ReadProfile,
    ReadSimulator,
    synthesize_reference,
)


@pytest.fixture(scope="module")
def reference():
    rng = np.random.default_rng(1234)
    return synthesize_reference(30_000, rng, repeat_fraction=0.0)


@pytest.fixture(scope="module")
def platinum_reads(reference):
    return ReadSimulator(reference, PLATINUM_LIKE, seed=7).simulate(40)


class TestAccuracy:
    def test_clean_reads_map_exactly(self, reference):
        reads = ReadSimulator(reference, CLEAN, seed=3).simulate(25)
        aligner = Aligner(reference, make_engine("full"))
        for read, rec in zip(reads, aligner.align(reads)):
            assert not rec.is_unmapped
            assert rec.pos == read.true_pos
            assert rec.is_reverse == read.reverse
            assert rec.cigar == "101M"
            assert rec.mapq > 0

    def test_noisy_reads_map_near_truth(self, reference, platinum_reads):
        aligner = Aligner(reference, make_engine("full"))
        near = 0
        for read, rec in zip(platinum_reads, aligner.align(platinum_reads)):
            if rec.is_unmapped:
                continue
            if (
                abs(rec.pos - read.true_pos) <= 50
                and rec.is_reverse == read.reverse
            ):
                near += 1
        assert near >= len(platinum_reads) - 3

    def test_cigar_consumes_whole_read(self, reference, platinum_reads):
        aligner = Aligner(reference, make_engine("full"))
        for rec in aligner.align(platinum_reads):
            if rec.is_unmapped:
                continue
            assert Cigar.parse(rec.cigar).query_length == 101

    def test_unalignable_read_is_unmapped(self, reference):
        rng = np.random.default_rng(99)
        junk = random_sequence(101, rng)
        aligner = Aligner(reference, make_engine("full"))
        rec = aligner.align_read(junk, "junk")
        # Either unmapped or a low-quality accidental hit.
        assert rec.is_unmapped or rec.mapq < 30

    def test_sequence_reported_as_given(self, reference, platinum_reads):
        aligner = Aligner(reference, make_engine("full"))
        read = platinum_reads[0]
        rec = aligner.align_read(read.codes, read.name)
        assert rec.seq == decode(read.codes)


class TestEngineEquivalence:
    def test_seedex_bit_equivalent_to_full_band(
        self, reference, platinum_reads
    ):
        """The headline claim (Figure 13's flat-zero SeedEx curve)."""
        full = Aligner(reference, make_engine("full")).align(platinum_reads)
        for band in (5, 11, 41):
            seedex = Aligner(reference, make_engine("seedex", band)).align(
                platinum_reads
            )
            assert diff_records(full, seedex) == 0

    def test_plain_banded_diverges_with_structural_indels(self, reference):
        """A narrow band without checks must eventually disagree."""
        profile = ReadProfile(large_indel_rate=1.0, large_indel_min=20)
        reads = ReadSimulator(reference, profile, seed=11).simulate(25)
        full = Aligner(reference, make_engine("full")).align(reads)
        banded = Aligner(reference, make_engine("banded", 3)).align(reads)
        assert diff_records(full, banded) > 0

    def test_seedex_handles_structural_indels(self, reference):
        profile = ReadProfile(large_indel_rate=1.0, large_indel_min=20)
        reads = ReadSimulator(reference, profile, seed=11).simulate(25)
        full = Aligner(reference, make_engine("full")).align(reads)
        seedex_engine = make_engine("seedex", 8)
        seedex = Aligner(reference, seedex_engine).align(reads)
        assert diff_records(full, seedex) == 0
        # With w=8 and 20+bp indels there must have been reruns.
        assert seedex_engine.stats.reruns > 0

    def test_kmer_backend_matches_smem_on_clean_reads(self, reference):
        reads = ReadSimulator(reference, CLEAN, seed=5).simulate(15)
        smem = Aligner(reference, make_engine("full"), seeding="smem")
        kmer = Aligner(reference, make_engine("full"), seeding="kmer")
        for read in reads:
            a = smem.align_read(read.codes, read.name)
            b = kmer.align_read(read.codes, read.name)
            assert a.pos == b.pos
            assert a.cigar == b.cigar


class TestConstruction:
    def test_unknown_seeding_rejected(self, reference):
        with pytest.raises(ValueError):
            Aligner(reference, seeding="hash-table")

    def test_engine_counts_extensions(self, reference, platinum_reads):
        engine = make_engine("full")
        Aligner(reference, engine).align(platinum_reads[:10])
        assert engine.extensions > 0
        assert engine.cells > 0
