"""Truth sidecar format: round trip, versioning, strictness."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.genome.synth import (
    PLATINUM_LIKE,
    ReadSimulator,
    synthesize_reference,
)
from repro.scorecard.truth import (
    TruthError,
    TruthRecord,
    read_truth,
    truth_path_for,
    write_truth,
)


@pytest.fixture(scope="module")
def simulated_reads():
    rng = np.random.default_rng(11)
    reference = synthesize_reference(20_000, rng, repeat_fraction=0.0)
    sim = ReadSimulator(reference, PLATINUM_LIKE, seed=11)
    return sim.simulate(30)


class TestRoundTrip:
    def test_write_then_read_recovers_every_read(
        self, simulated_reads, tmp_path
    ):
        path = tmp_path / "reads.fastq.truth.tsv"
        with open(path, "w") as handle:
            n = write_truth(
                handle,
                (TruthRecord.from_read(r) for r in simulated_reads),
            )
        assert n == len(simulated_reads)
        truth = read_truth(path)
        assert len(truth) == len(simulated_reads)
        for read in simulated_reads:
            row = truth[read.name]
            assert row.true_pos == read.true_pos
            assert row.reverse == read.reverse
            assert row.substitutions == read.substitutions
            assert row.indel_span == read.indel_span

    def test_unknown_edit_cells_round_trip_as_none(self, tmp_path):
        record = TruthRecord("pair000001/2", 9023, reverse=True)
        path = tmp_path / "t.tsv"
        with open(path, "w") as handle:
            write_truth(handle, [record])
        row = read_truth(path)["pair000001/2"]
        assert row.substitutions is None
        assert row.indel_span is None

    def test_sidecar_path_convention(self):
        assert (
            truth_path_for("/a/b/reads.fastq").name
            == "reads.fastq.truth.tsv"
        )

    def test_sidecar_written_next_to_fastq(self, simulated_reads, tmp_path):
        # The way `simulate` writes it: truth_path_for + write_truth.
        fastq = tmp_path / "reads.fastq"
        fastq.write_text("")
        path = truth_path_for(fastq)
        with open(path, "w") as handle:
            write_truth(
                handle, (TruthRecord.from_read(r) for r in simulated_reads)
            )
        assert path.parent == fastq.parent
        assert len(read_truth(path)) == len(simulated_reads)


def _sidecar(body: str, header: str = "#repro-truth\tv1") -> str:
    return f"{header}\n#read\ttrue_pos\tstrand\tsubs\tins\tdels\n{body}"


class TestStrictness:
    def _read(self, tmp_path, text):
        path = tmp_path / "t.tsv"
        path.write_text(text)
        return read_truth(path)

    def test_missing_magic_rejected(self, tmp_path):
        with pytest.raises(TruthError, match="not a truth sidecar"):
            self._read(tmp_path, "read\t1\t+\t0\t0\t0\n")

    def test_future_version_rejected(self, tmp_path):
        with pytest.raises(TruthError, match="unsupported"):
            self._read(
                tmp_path, _sidecar("", header="#repro-truth\tv99")
            )

    def test_wrong_column_count_rejected(self, tmp_path):
        with pytest.raises(TruthError, match="6 columns"):
            self._read(tmp_path, _sidecar("r1\t5\t+\t0\t0\n"))

    def test_bad_strand_rejected(self, tmp_path):
        with pytest.raises(TruthError, match="strand"):
            self._read(tmp_path, _sidecar("r1\t5\tx\t0\t0\t0\n"))

    def test_duplicate_name_rejected(self, tmp_path):
        body = "r1\t5\t+\t0\t0\t0\nr1\t9\t-\t0\t0\t0\n"
        with pytest.raises(TruthError, match="duplicate"):
            self._read(tmp_path, _sidecar(body))

    def test_non_integer_position_rejected(self, tmp_path):
        with pytest.raises(TruthError, match="true_pos"):
            self._read(tmp_path, _sidecar("r1\tfive\t+\t0\t0\t0\n"))

    def test_negative_edit_count_rejected(self, tmp_path):
        with pytest.raises(TruthError, match="negative"):
            self._read(tmp_path, _sidecar("r1\t5\t+\t-1\t0\t0\n"))

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        body = "\n# a comment\nr1\t5\t+\t1\t0\t2\n"
        truth = self._read(tmp_path, _sidecar(body))
        assert truth["r1"].indel_span == 2


class TestWriteFormat:
    def test_header_and_row_shape(self):
        out = io.StringIO()
        write_truth(out, [TruthRecord("r1", 42, reverse=False, substitutions=1, insertions=2, deletions=3)])
        lines = out.getvalue().splitlines()
        assert lines[0] == "#repro-truth\tv1"
        assert lines[1].startswith("#read\t")
        assert lines[2] == "r1\t42\t+\t1\t2\t3"
