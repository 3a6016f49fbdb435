"""Accuracy no-drop rule on a fixed-seed corpus.

Deterministic end to end (derandomized corpus, deterministic engine),
so a change in the counts is a behaviour change in the aligner.  The
reference is repeat-free because a repeat copied over a read's origin
would make "correct locus" ambiguous: the corpus measures the aligner,
not the reference's self-similarity.
"""

import numpy as np
import pytest

from repro.aligner.engines import BatchedEngine
from repro.aligner.pipeline import Aligner
from repro.genome.synth import (
    PLATINUM_LIKE,
    ReadSimulator,
    synthesize_reference,
)
from repro.scorecard.score import score_records
from repro.scorecard.truth import TruthRecord

SEED = 20200613


@pytest.mark.parametrize(
    "length, n_reads, min_correct, max_wrong",
    [(20_000, 120, 120, 0), (60_000, 400, 399, 1)],
)
def test_correct_locus_floor(length, n_reads, min_correct, max_wrong):
    rng = np.random.default_rng(SEED)
    reference = synthesize_reference(length, rng, repeat_fraction=0.0)
    reads = ReadSimulator(reference, PLATINUM_LIKE, seed=SEED).simulate(
        n_reads
    )
    truth = {r.name: TruthRecord.from_read(r) for r in reads}
    aligner = Aligner(reference, BatchedEngine(), seeding="kmer")
    records = aligner.align_batched([(r.name, r.codes) for r in reads])
    card = score_records(records, truth, tolerance=20)
    assert card.total == n_reads
    assert card.outcomes["correct"] >= min_correct
    assert (
        card.outcomes["wrong_locus"] + card.outcomes["wrong_strand"]
        <= max_wrong
    )
