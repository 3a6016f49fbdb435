"""The verifier must reject what it exists to reject."""

import numpy as np

from perfbench import verify, workloads


def _case():
    """A 300 bp reference, three reads and their correct SAM lines."""
    rng = np.random.default_rng(7)
    reference = workloads.decode(rng.integers(0, 4, size=300, dtype=np.uint8))
    # read0: exact 40-mer; read1: one mismatch; read2: 2 bp deletion,
    # reverse strand.
    seq0 = reference[10:50]
    middle = "A" if reference[120] != "A" else "C"
    seq1 = reference[100:120] + middle + reference[121:140]
    forward2 = reference[200:220] + reference[222:242]
    seq2 = workloads.reverse_complement(forward2)
    reads = [
        workloads.Read("read0", seq0, 10, False, 0),
        workloads.Read("read1", seq1, 100, False, 0),
        workloads.Read("read2", seq2, 200, True, 2),
    ]
    lines = [
        f"read0\t0\tchr1\t11\t60\t40M\t*\t0\t0\t{seq0}\t*\tAS:i:40",
        f"read1\t0\tchr1\t101\t60\t40M\t*\t0\t0\t{seq1}\t*\tAS:i:35",
        f"read2\t16\tchr1\t201\t60\t20M2D20M\t*\t0\t0\t{seq2}\t*\tAS:i:32",
    ]
    return reference, reads, lines


def test_correct_records_pass_and_land_on_truth():
    reference, reads, lines = _case()
    verdict = verify.verify_lines(lines, reads, reference, lines[:2])
    assert verdict.failed == 0, verdict.first_failure
    assert verdict.truth_recall == 1.0


def test_one_altered_cigar_op_is_rejected():
    reference, reads, lines = _case()
    lines[2] = lines[2].replace("20M2D20M", "20M3D20M")
    verdict = verify.verify_lines(lines, reads, reference)
    assert verdict.failed_reads == {"read2"}
    assert "CIGAR path scores" in verdict.first_failure


def test_cigar_that_does_not_consume_the_read_is_rejected():
    reference, reads, lines = _case()
    lines[0] = lines[0].replace("40M", "39M")
    verdict = verify.verify_lines(lines, reads, reference)
    assert verdict.failed_reads == {"read0"}


def test_dropped_record_is_rejected():
    reference, reads, lines = _case()
    verdict = verify.verify_lines(lines[:1] + lines[2:], reads, reference)
    assert verdict.failed_reads == {"read1"}
    assert "0 records" in verdict.first_failure
    assert verdict.truth_recall == 2 / 3


def test_duplicated_record_and_wrong_order_are_rejected():
    reference, reads, lines = _case()
    twice = verify.verify_lines(lines + lines[:1], reads, reference)
    assert twice.failed_reads == {"read0"}
    swapped = verify.verify_lines(lines[::-1], reads, reference)
    assert swapped.failed == 3


def test_record_differing_from_the_oracle_is_rejected():
    reference, reads, lines = _case()
    oracle = [lines[0].replace("\t60\t", "\t59\t")]
    verdict = verify.verify_lines(lines, reads, reference, oracle)
    assert verdict.failed_reads == {"read0"}
    assert "differs from the oracle" in verdict.first_failure


def test_wrong_strand_or_far_position_is_off_truth_not_failed():
    reference, reads, lines = _case()
    reads[0] = workloads.Read("read0", reads[0].sequence, 150, False, 0)
    verdict = verify.verify_lines(lines, reads, reference)
    assert verdict.failed == 0
    assert verdict.truth_recall == 2 / 3


def test_repeat_twin_counts_as_truth():
    reference, reads, lines = _case()
    reads[0] = workloads.Read(
        "read0", reads[0].sequence, 150, False, 0, alternatives=(12,)
    )
    verdict = verify.verify_lines(lines, reads, reference)
    assert verdict.truth_recall == 1.0


def test_overlap_rows_must_equal_the_tiling():
    fragments = workloads.tiling_fragments(np.random.default_rng(3), 4)
    truth = workloads.expected_overlaps(fragments)
    assert len(truth) == 5
    rows = [
        "\t".join(
            map(str, (*pair[:4], "+", *pair[4:], 99, 31, "proved"))
        )
        for pair in sorted(truth)
    ]
    good = verify.verify_overlaps("\n".join(rows), truth)
    assert good.failed == 0 and good.truth_recall == 1.0
    # one end coordinate off by four: that pair fails, once
    bad = rows[:]
    bad[0] = bad[0].replace("\t0\t250\t", "\t0\t246\t")
    verdict = verify.verify_overlaps("\n".join(bad), truth)
    assert verdict.failed_reads == {"frag00000>frag00001"}
    assert verdict.attempted == len(truth)
    assert verdict.truth_recall == 4 / 5
    # a pair that should not overlap at all is one more failed operation
    extra = rows + [rows[0].replace("frag00001", "frag00003")]
    verdict = verify.verify_overlaps("\n".join(extra), truth)
    assert verdict.failed == 1 and verdict.attempted == len(truth) + 1
