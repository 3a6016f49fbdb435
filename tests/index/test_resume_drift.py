"""Resume semantics: a journaled run pins its index by *content*.

``run_fingerprint`` carries the index fingerprint, so ``--resume``
against a swapped or rebuilt-with-different-params artifact is refused
by the journal's configuration check — while deleting the artifact and
rebuilding it byte-identically still resumes, because the pin is
content-addressed rather than path- or mtime-based.
"""

from __future__ import annotations

import pytest

from repro.aligner.engines import EngineSpec
from repro.durability.journal import JournalError
from repro.durability.runner import run_fingerprint, run_journaled
from repro.index.build import build_index
from tests.helpers import fingerprint_reads


def _fingerprint(reads, index_fingerprint):
    return {
        "test": 1,
        "reads": fingerprint_reads(reads),
        "index": index_fingerprint,
    }


def _run(tmp_path, reference, reads, loaded, *, resume=False):
    return run_journaled(
        tmp_path / "run",
        reference,
        reads,
        _fingerprint(reads, loaded.fingerprint),
        tmp_path / "out.sam",
        "chr1",
        workers=1,
        batch_size=8,
        resume=resume,
        index=loaded.handle(),
    )


class TestFingerprintContract:
    def test_run_fingerprint_records_the_index(self, tmp_path):
        ref = tmp_path / "ref.fasta"
        reads = tmp_path / "reads.fastq"
        ref.write_text(">chr1\nACGT\n")
        reads.write_text("@r\nACGT\n+\n!!!!\n")
        spec = EngineSpec(kind="full")
        bare = run_fingerprint(ref, reads, spec, 8, "kmer")
        pinned = run_fingerprint(
            ref, reads, spec, 8, "kmer", index_fingerprint="deadbeef"
        )
        assert bare["index"] is None
        assert pinned["index"] == "deadbeef"
        assert bare != pinned

    def test_identical_rebuild_keeps_the_pin(self, reference, tmp_path):
        path = tmp_path / "ref.rpidx"
        first = build_index(reference, path).fingerprint
        path.unlink()
        assert build_index(reference, path).fingerprint == first


class TestJournaledRuns:
    def test_resume_refuses_a_drifted_index(
        self, reference, reads, tmp_path
    ):
        loaded = build_index(reference, tmp_path / "ref.rpidx")
        _run(tmp_path, reference, reads, loaded)
        drifted = build_index(
            reference, tmp_path / "drifted.rpidx", sa_sample_rate=4
        )
        with pytest.raises(JournalError, match="configuration changed"):
            _run(tmp_path, reference, reads, drifted, resume=True)

    def test_resume_accepts_a_content_identical_rebuild(
        self, reference, reads, tmp_path
    ):
        path = tmp_path / "ref.rpidx"
        loaded = build_index(reference, path)
        _run(tmp_path, reference, reads, loaded)
        path.unlink()
        rebuilt = build_index(reference, path)
        report = _run(tmp_path, reference, reads, rebuilt, resume=True)
        assert report.resumed
        assert report.skipped_windows == report.total_windows
