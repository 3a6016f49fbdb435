"""End-to-end tests for journaled runs: interrupt, resume, stitch."""

from __future__ import annotations

import io
import signal

import numpy as np
import pytest

from repro import obs
from repro.aligner.engines import EngineSpec
from repro.aligner.parallel import AlignRecipe
from repro.durability.journal import JournalError, RunJournal
from repro.durability.runner import (
    GracefulShutdown,
    RunInterrupted,
    fingerprint_reads,
    run_fingerprint,
    run_journaled,
)
from repro.genome.sam import write_sam
from repro.genome.synth import (
    PLATINUM_LIKE,
    ReadSimulator,
    synthesize_reference,
)

BATCH = 4


@pytest.fixture(scope="module")
def corpus():
    """24 simulated reads — 6 windows of 4 at the test batch size."""
    rng = np.random.default_rng(31)
    reference = synthesize_reference(8_000, rng)
    sim = ReadSimulator(reference, PLATINUM_LIKE, seed=32)
    return reference, sim.simulate(24)


@pytest.fixture(autouse=True)
def _clean_obs():
    """Keep the global obs state isolated per test."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def baseline_sam(corpus):
    """The uninterrupted ground truth: write_sam of a plain run."""
    reference, reads = corpus
    records = AlignRecipe(seeding="kmer").build(reference)(
        [(r.name, r.codes) for r in reads]
    )
    buf = io.StringIO()
    write_sam(buf, records, "chr1", len(reference))
    return buf.getvalue().encode()


def _fingerprint(reads):
    return {"test": 1, "reads": fingerprint_reads(
        (r.name, r.codes) for r in reads
    )}


class TestRunJournaled:
    def test_complete_run_stitches_baseline_bytes(
        self, corpus, baseline_sam, tmp_path
    ):
        reference, reads = corpus
        out = tmp_path / "out.sam"
        report = run_journaled(
            tmp_path / "run",
            reference,
            reads,
            _fingerprint(reads),
            out,
            "chr1",
            workers=2,
            batch_size=BATCH,
            seeding="kmer",
        )
        assert out.read_bytes() == baseline_sam
        assert report.total_windows == 6
        assert report.skipped_windows == 0
        assert not report.resumed

    def test_interrupt_then_resume_is_byte_identical(
        self, corpus, baseline_sam, tmp_path
    ):
        reference, reads = corpus
        run_dir = tmp_path / "run"
        out = tmp_path / "out.sam"
        first_segment = run_dir / "segments" / "window-00000.sam"

        # Drain as soon as the first window commits: some windows are
        # journaled, the rest are not, exactly like a mid-run SIGTERM.
        with pytest.raises(RunInterrupted) as excinfo:
            run_journaled(
                run_dir,
                reference,
                reads,
                _fingerprint(reads),
                out,
                "chr1",
                workers=2,
                batch_size=BATCH,
                seeding="kmer",
                should_stop=first_segment.exists,
            )
        assert 0 < excinfo.value.done < excinfo.value.total == 6
        assert "--resume" in str(excinfo.value)
        assert not out.exists()

        report = run_journaled(
            run_dir,
            reference,
            reads,
            _fingerprint(reads),
            out,
            "chr1",
            workers=2,
            batch_size=BATCH,
            resume=True,
            seeding="kmer",
        )
        assert report.resumed
        assert report.skipped_windows == excinfo.value.done
        assert out.read_bytes() == baseline_sam

    def test_resume_at_different_worker_count(
        self, corpus, baseline_sam, tmp_path
    ):
        """Worker count is not in the fingerprint: a 2-worker run may
        resume single-process with identical output."""
        reference, reads = corpus
        run_dir = tmp_path / "run"
        out = tmp_path / "out.sam"
        first_segment = run_dir / "segments" / "window-00000.sam"
        with pytest.raises(RunInterrupted):
            run_journaled(
                run_dir, reference, reads, _fingerprint(reads), out,
                "chr1", workers=2, batch_size=BATCH, seeding="kmer",
                should_stop=first_segment.exists,
            )
        run_journaled(
            run_dir, reference, reads, _fingerprint(reads), out,
            "chr1", workers=1, batch_size=BATCH, resume=True,
            seeding="kmer",
        )
        assert out.read_bytes() == baseline_sam

    def test_fresh_run_refuses_used_directory(self, corpus, tmp_path):
        reference, reads = corpus
        out = tmp_path / "out.sam"
        run_journaled(
            tmp_path / "run", reference, reads, _fingerprint(reads),
            out, "chr1", batch_size=BATCH, seeding="kmer",
        )
        with pytest.raises(JournalError, match="already holds"):
            run_journaled(
                tmp_path / "run", reference, reads,
                _fingerprint(reads), out, "chr1", batch_size=BATCH,
                seeding="kmer",
            )

    def test_resume_of_finished_run_restitches(
        self, corpus, baseline_sam, tmp_path
    ):
        reference, reads = corpus
        out = tmp_path / "out.sam"
        run_journaled(
            tmp_path / "run", reference, reads, _fingerprint(reads),
            out, "chr1", batch_size=BATCH, seeding="kmer",
        )
        out.unlink()
        report = run_journaled(
            tmp_path / "run", reference, reads, _fingerprint(reads),
            out, "chr1", batch_size=BATCH, resume=True, seeding="kmer",
        )
        assert report.skipped_windows == 6
        assert out.read_bytes() == baseline_sam

    def test_resume_with_drifted_fingerprint_refused(
        self, corpus, tmp_path
    ):
        reference, reads = corpus
        run_dir = tmp_path / "run"
        out = tmp_path / "out.sam"
        first_segment = run_dir / "segments" / "window-00000.sam"
        with pytest.raises(RunInterrupted):
            run_journaled(
                run_dir, reference, reads, _fingerprint(reads), out,
                "chr1", workers=2, batch_size=BATCH, seeding="kmer",
                should_stop=first_segment.exists,
            )
        with pytest.raises(JournalError, match="configuration changed"):
            run_journaled(
                run_dir, reference, reads, {"test": 2}, out, "chr1",
                batch_size=BATCH, resume=True, seeding="kmer",
            )


class TestFingerprints:
    def test_run_fingerprint_pins_contents_not_paths(self, tmp_path):
        a = tmp_path / "a.fa"
        b = tmp_path / "b.fa"
        a.write_text(">chr1\nACGT\n")
        b.write_text(">chr1\nACGT\n")
        reads = tmp_path / "r.fq"
        reads.write_text("@r1\nACGT\n+\nIIII\n")
        spec = EngineSpec(kind="batched")
        fp_a = run_fingerprint(a, reads, spec, 64, "kmer")
        fp_b = run_fingerprint(b, reads, spec, 64, "kmer")
        assert fp_a == fp_b

    def test_run_fingerprint_sees_every_knob(self, tmp_path):
        ref = tmp_path / "a.fa"
        ref.write_text(">chr1\nACGT\n")
        reads = tmp_path / "r.fq"
        reads.write_text("@r1\nACGT\n+\nIIII\n")
        base = run_fingerprint(
            ref, reads, EngineSpec(kind="batched"), 64, "kmer"
        )
        assert base != run_fingerprint(
            ref, reads, EngineSpec(kind="full"), 64, "kmer"
        )
        assert base != run_fingerprint(
            ref, reads, EngineSpec(kind="batched"), 32, "kmer"
        )
        assert base != run_fingerprint(
            ref, reads, EngineSpec(kind="batched"), 64, "kmer",
            on_bad_record="quarantine",
        )

    def test_fingerprint_reads_orders_and_contents(self):
        a = [("r1", np.array([0, 1], dtype=np.uint8)),
             ("r2", np.array([2, 3], dtype=np.uint8))]
        b = list(reversed(a))
        assert fingerprint_reads(a) == fingerprint_reads(a)
        assert fingerprint_reads(a) != fingerprint_reads(b)


class TestGracefulShutdown:
    def test_first_signal_requests_drain(self):
        with GracefulShutdown(signals=(signal.SIGTERM,)) as shutdown:
            assert not shutdown()
            signal.raise_signal(signal.SIGTERM)
            assert shutdown()
            assert shutdown.signal_number == signal.SIGTERM

    def test_second_signal_escalates(self):
        with pytest.raises(KeyboardInterrupt):
            with GracefulShutdown(signals=(signal.SIGTERM,)):
                signal.raise_signal(signal.SIGTERM)
                signal.raise_signal(signal.SIGTERM)

    def test_handlers_restored_on_exit(self):
        before = signal.getsignal(signal.SIGTERM)
        with GracefulShutdown(signals=(signal.SIGTERM,)):
            pass
        assert signal.getsignal(signal.SIGTERM) is before
