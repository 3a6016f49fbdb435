"""End-to-end CIGAR/score consistency.

For every mapped record the pipeline emits, re-walk the CIGAR against
the reference and recompute the affine-gap score of the aligned
(non-clipped) region from scratch.  It must equal the AS tag exactly —
a single invariant that catches traceback bugs, stitching bugs,
h0-threading bugs, and coordinate bugs anywhere in the pipeline.
"""

import numpy as np
import pytest

from repro.align.cigar import Cigar
from repro.align.scoring import BWA_MEM_SCORING
from repro.aligner.engines import BatchedEngine, make_engine
from repro.aligner.pipeline import Aligner
from repro.genome.sequence import encode, reverse_complement
from repro.genome.synth import (
    PLATINUM_LIKE,
    ReadProfile,
    ReadSimulator,
    synthesize_reference,
)


def rescore(record, reference, scoring=BWA_MEM_SCORING):
    """Affine score of the record's aligned region, from first
    principles."""
    query = encode(record.seq)
    if record.is_reverse:
        query = reverse_complement(query)
    cigar = Cigar.parse(record.cigar)
    score = 0
    i = record.pos
    j = 0
    for length, op in cigar.ops:
        if op == "S":
            j += length
        elif op == "M":
            for _ in range(length):
                score += scoring.substitution(
                    int(reference[i]), int(query[j])
                )
                i += 1
                j += 1
        elif op == "D":
            score -= scoring.gap_open + length * scoring.gap_extend_del
            i += length
        elif op == "I":
            score -= scoring.gap_open + length * scoring.gap_extend_ins
            j += length
        else:
            raise AssertionError(f"unexpected op {op}")
    assert j == len(query), "CIGAR must consume the whole read"
    return score


def as_tag(record):
    """Extract the AS:i score tag."""
    for tag in record.tags:
        if tag.startswith("AS:i:"):
            return int(tag[5:])
    raise AssertionError("record carries no AS tag")


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(2026)
    reference = synthesize_reference(40_000, rng, repeat_fraction=0.02)
    return reference


class TestScoreConsistency:
    @pytest.mark.parametrize(
        "engine_cls",
        [BatchedEngine, lambda: make_engine("seedex", 11)],
        ids=["full-band", None],
    )
    def test_as_equals_rescored_cigar(self, setup, engine_cls):
        reference = setup
        reads = ReadSimulator(reference, PLATINUM_LIKE, seed=9).simulate(40)
        engine = engine_cls() if callable(engine_cls) else engine_cls
        aligner = Aligner(reference, engine, seeding="kmer")
        for read in reads:
            record = aligner.align_read(read.codes, read.name)
            if record.is_unmapped:
                continue
            assert as_tag(record) == rescore(record, reference), (
                f"{read.name}: AS tag disagrees with its own CIGAR"
            )

    def test_structural_indel_reads(self, setup):
        reference = setup
        profile = ReadProfile(large_indel_rate=1.0, large_indel_min=15)
        reads = ReadSimulator(reference, profile, seed=10).simulate(25)
        aligner = Aligner(reference, make_engine("full"), seeding="kmer")
        checked = 0
        for read in reads:
            record = aligner.align_read(read.codes, read.name)
            if record.is_unmapped:
                continue
            assert as_tag(record) == rescore(record, reference)
            checked += 1
        assert checked >= 20

    def test_rescued_mate_scores_reconstruct(self, setup):
        """Mate-rescue records carry a CIGAR built by a separate code
        path; their AS tag must satisfy the same invariant."""
        from repro.aligner.paired import (
            PairedAligner,
            ReadPair,
            simulate_pairs,
        )

        reference = setup
        rng = np.random.default_rng(21)
        pairs = simulate_pairs(reference, 15, rng)
        pa = PairedAligner(reference, make_engine("full"))
        checked = 0
        for pair, _, _ in pairs:
            bad = pair.second.copy()
            sites = rng.choice(len(bad), size=9, replace=False)
            bad[sites] = (bad[sites] + rng.integers(1, 4, size=9)) % 4
            _, r2 = pa.align_pair(ReadPair(pair.name, pair.first, bad))
            if r2.is_unmapped or "XR:i:1" not in r2.tags:
                continue
            assert as_tag(r2) == rescore(r2, reference)
            checked += 1
        assert checked >= 1

    def test_longread_scores_reconstruct(self, setup):
        """The long-read pipeline's stitched score: re-walk its CIGAR."""
        from repro.aligner.longread import LongReadAligner
        from repro.genome.synth import simulate_long_reads

        reference = setup
        rng = np.random.default_rng(11)
        reads = simulate_long_reads(reference, 4, rng)
        aligner = LongReadAligner(reference, fill_band=16)
        for read in reads:
            result = aligner.align(read.codes, read.name)
            assert result is not None
            # Re-walk the stitched CIGAR.
            score = 0
            i = result.pos
            j = 0
            for length, op in result.cigar.ops:
                if op == "S":
                    j += length
                elif op == "M":
                    for _ in range(length):
                        score += BWA_MEM_SCORING.substitution(
                            int(reference[i]), int(read.codes[j])
                        )
                        i += 1
                        j += 1
                elif op == "D":
                    score -= 6 + length
                    i += length
                else:
                    score -= 6 + length
                    j += length
            assert j == len(read.codes)
            assert score == result.score, (
                f"{read.name}: stitched score {result.score} != "
                f"re-walked {score}"
            )
