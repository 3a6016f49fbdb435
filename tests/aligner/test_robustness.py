"""Robustness: ambiguous bases, degenerate reads, adversarial repeats."""

import numpy as np
import pytest

from repro.aligner.engines import make_engine
from repro.aligner.pipeline import Aligner
from repro.genome.sam import diff_records
from repro.genome.sequence import AMBIGUOUS_CODE, decode, encode
from repro.genome.synth import synthesize_reference


@pytest.fixture(scope="module")
def reference():
    rng = np.random.default_rng(99)
    return synthesize_reference(25_000, rng)


class TestAmbiguousBases:
    def test_read_with_n_bases_still_aligns(self, reference):
        aligner = Aligner(reference, make_engine("full"), seeding="kmer")
        read = reference[5000:5101].copy()
        read[50] = AMBIGUOUS_CODE
        read[51] = AMBIGUOUS_CODE
        rec = aligner.align_read(read, "n-read")
        assert not rec.is_unmapped
        assert rec.pos == 5000
        assert "N" in rec.seq

    def test_n_never_matches_in_scoring(self):
        from repro.align import banded
        from repro.align.scoring import BWA_MEM_SCORING

        q = encode("ACGNACGT")
        t = encode("ACGTACGT")
        res = banded.extend(q, t, BWA_MEM_SCORING, 20)
        # 7 matches, 1 forced mismatch at the N.
        assert res.gscore == 20 + 7 - 4

    def test_seedex_handles_n_reads_identically(self, reference):
        full = Aligner(reference, make_engine("full"), seeding="kmer")
        seedex = Aligner(reference, make_engine("seedex", 9), seeding="kmer")
        reads = []
        rng = np.random.default_rng(3)
        for k in range(10):
            pos = int(rng.integers(0, len(reference) - 101))
            read = reference[pos : pos + 101].copy()
            sites = rng.choice(101, size=3, replace=False)
            read[sites] = AMBIGUOUS_CODE
            reads.append((f"n{k}", read))
        a = [full.align_read(c, n) for n, c in reads]
        b = [seedex.align_read(c, n) for n, c in reads]
        assert diff_records(a, b) == 0


class TestDegenerateReads:
    def test_homopolymer_read(self, reference):
        aligner = Aligner(reference, make_engine("full"), seeding="kmer")
        rec = aligner.align_read(encode("A" * 101), "polyA")
        # Either unmapped or some low-confidence placement; never crash.
        assert rec.qname == "polyA"

    def test_very_short_read(self, reference):
        aligner = Aligner(reference, make_engine("full"), seeding="kmer")
        rec = aligner.align_read(reference[100:125].copy(), "short")
        if not rec.is_unmapped:
            assert rec.pos >= 0

    def test_read_overhanging_reference_end(self, reference):
        aligner = Aligner(reference, make_engine("full"), seeding="kmer")
        read = np.concatenate(
            [reference[-80:], encode("ACGTACGTACGTACGTACGTA")]
        ).astype(np.uint8)
        rec = aligner.align_read(read, "overhang")
        assert rec.qname == "overhang"  # must not crash at the edge


class TestAdversarialRepeats:
    def test_tandem_repeat_region(self):
        rng = np.random.default_rng(5)
        unit = rng.integers(0, 4, size=50).astype(np.uint8)
        reference = np.concatenate(
            [rng.integers(0, 4, size=2000).astype(np.uint8)]
            + [unit] * 20
            + [rng.integers(0, 4, size=2000).astype(np.uint8)]
        ).astype(np.uint8)
        full = Aligner(reference, make_engine("full"), seeding="kmer")
        seedex = Aligner(reference, make_engine("seedex", 7), seeding="kmer")
        # A read spanning repeat copies: positions are ambiguous but
        # both engines must make the same deterministic call.
        read = reference[2025:2126].copy()
        a = full.align_read(read, "rep")
        b = seedex.align_read(read, "rep")
        assert a.to_line() == b.to_line()

    def test_structural_corpus_generator_shape(self):
        from repro.genome.synth import structural_corpus

        rng = np.random.default_rng(7)
        jobs = structural_corpus(50, rng)
        assert len(jobs) == 50
        for job in jobs:
            assert 1 <= len(job.query) <= 101
            assert len(job.target) >= len(job.query)
            assert job.h0 >= 19


class TestAdversarialInputs:
    """Degenerate shapes must not crash and must not diverge engines."""

    def _both(self, reference):
        return (
            Aligner(reference, make_engine("full"), seeding="kmer"),
            Aligner(reference, make_engine("seedex", 9), seeding="kmer"),
        )

    def test_zero_length_read(self, reference):
        for aligner in self._both(reference):
            rec = aligner.align_read(
                np.array([], dtype=np.uint8), "empty"
            )
            assert rec.is_unmapped
            assert rec.qname == "empty"

    def test_zero_length_read_identical_records(self, reference):
        full, seedex = self._both(reference)
        empty = np.array([], dtype=np.uint8)
        a = full.align_read(empty, "empty")
        b = seedex.align_read(empty, "empty")
        assert a.to_line() == b.to_line()

    def test_read_longer_than_reference(self):
        rng = np.random.default_rng(13)
        tiny = synthesize_reference(200, rng)
        read = np.concatenate([tiny, tiny, tiny[:50]]).astype(np.uint8)
        for aligner in self._both(tiny):
            rec = aligner.align_read(read, "giant")
            assert rec.qname == "giant"  # no crash, mapped or not

    def test_read_longer_than_reference_identical_records(self):
        rng = np.random.default_rng(14)
        tiny = synthesize_reference(300, rng)
        read = np.concatenate([tiny, tiny[:120]]).astype(np.uint8)
        full, seedex = self._both(tiny)
        a = full.align_read(read, "giant")
        b = seedex.align_read(read, "giant")
        assert a.to_line() == b.to_line()

    def test_all_n_read(self, reference):
        all_n = np.full(101, AMBIGUOUS_CODE, dtype=np.uint8)
        records = []
        for aligner in self._both(reference):
            rec = aligner.align_read(all_n, "allN")
            assert rec.is_unmapped  # N never matches: nothing to seed
            assert rec.seq == "N" * 101
            records.append(rec)
        assert records[0].to_line() == records[1].to_line()

    def test_adversarial_batch_identical_across_engines(self, reference):
        """The degenerate shapes, run as one batch through diff_records."""
        empty = np.array([], dtype=np.uint8)
        all_n = np.full(101, AMBIGUOUS_CODE, dtype=np.uint8)
        single = np.array([2], dtype=np.uint8)
        reads = [
            ("empty", empty),
            ("allN", all_n),
            ("single", single),
            ("normal", reference[1000:1101].copy()),
        ]
        full, seedex = self._both(reference)
        a = [full.align_read(c, n) for n, c in reads]
        b = [seedex.align_read(c, n) for n, c in reads]
        assert diff_records(a, b) == 0
