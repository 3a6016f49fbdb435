"""Artifact format: roundtrip fidelity, determinism, atomicity.

The store's value proposition is "build once, load anywhere, trust
always": a loaded index must answer every seeding query exactly like
a freshly built one, identical inputs must produce identical bytes
(the fingerprint is content-addressed), and a crashed build must
never leave a torn artifact behind.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.durability.journal import atomic_write_bytes
from repro.index.build import build_index
from repro.index.format import (
    SCHEMA_VERSION,
    SECTION_NAMES,
    read_header,
    reference_crc,
)
from repro.index.store import load_index, verify_artifact
from repro.seeding.fmindex import FMIndex
from repro.seeding.kmer_index import KmerIndex


class TestRoundtrip:
    def test_header_records_identity(self, reference, artifact):
        path, loaded = artifact
        header = read_header(path)
        assert header.schema_version == SCHEMA_VERSION
        assert header.reference_length == len(reference)
        assert header.reference_crc == reference_crc(reference)
        assert header.fingerprint == loaded.fingerprint
        assert set(header.sections) == set(SECTION_NAMES)

    def test_reference_section_is_the_reference(self, reference, artifact):
        _, loaded = artifact
        assert np.array_equal(np.asarray(loaded.reference), reference)

    def test_fm_index_answers_like_a_fresh_build(self, reference, artifact):
        _, loaded = artifact
        fresh = FMIndex(reference)
        fm = loaded.fm_index()
        for start in (0, 137, 5_000, len(reference) - 40):
            pattern = reference[start : start + 30]
            assert fm.count(pattern) == fresh.count(pattern)
            assert fm.find(pattern) == fresh.find(pattern)

    def test_kmer_index_seeds_like_a_fresh_build(self, reference, artifact):
        _, loaded = artifact
        fresh = KmerIndex(reference.astype(np.int64), k=19)
        km = loaded.kmer_index()
        rng = np.random.default_rng(5)
        for _ in range(5):
            start = int(rng.integers(0, len(reference) - 120))
            query = reference[start : start + 100].copy()
            got = [(s.qbegin, s.qend, s.rbegin) for s in km.seed_read(query)]
            want = [
                (s.qbegin, s.qend, s.rbegin) for s in fresh.seed_read(query)
            ]
            assert got == want

    def test_mmap_and_memory_modes_agree(self, reference, artifact):
        path, _ = artifact
        mapped = load_index(path, mmap=True)
        copied = load_index(path, mmap=False)
        pattern = reference[200:240]
        assert mapped.fm_index().find(pattern) == copied.fm_index().find(
            pattern
        )
        assert isinstance(mapped.fm_index().tables()["occ"], np.memmap)
        assert not isinstance(copied.fm_index().tables()["occ"], np.memmap)


class TestDeterminism:
    def test_same_inputs_same_bytes(self, reference, tmp_path):
        a, b = tmp_path / "a.rpidx", tmp_path / "b.rpidx"
        build_index(reference, a)
        build_index(reference, b)
        assert a.read_bytes() == b.read_bytes()

    def test_fingerprint_tracks_content(self, reference, tmp_path):
        base = build_index(reference, tmp_path / "base.rpidx")
        other_k = build_index(reference, tmp_path / "k.rpidx", k=21)
        other_rate = build_index(
            reference, tmp_path / "r.rpidx", sa_sample_rate=4
        )
        edited = reference.copy()
        edited[0] = (edited[0] + 1) % 4
        other_ref = build_index(edited, tmp_path / "e.rpidx")
        prints = {
            base.fingerprint,
            other_k.fingerprint,
            other_rate.fingerprint,
            other_ref.fingerprint,
        }
        assert len(prints) == 4

    def test_rebuilt_artifact_keeps_its_fingerprint(
        self, reference, tmp_path
    ):
        path = tmp_path / "ref.rpidx"
        first = build_index(reference, path).fingerprint
        path.unlink()
        assert build_index(reference, path).fingerprint == first


class TestAtomicity:
    def test_no_temp_droppings_after_build(self, reference, tmp_path):
        path = tmp_path / "ref.rpidx"
        build_index(reference, path)
        assert [p.name for p in tmp_path.iterdir()] == ["ref.rpidx"]

    def test_build_over_existing_replaces_whole_file(
        self, reference, tmp_path
    ):
        path = tmp_path / "ref.rpidx"
        atomic_write_bytes(path, b"junk that is not an artifact")
        build_index(reference, path)
        verify_artifact(path)

    def test_verify_passes_on_fresh_build(self, artifact):
        path, loaded = artifact
        header = verify_artifact(path)
        assert header.fingerprint == loaded.fingerprint


class TestValidation:
    def test_section_set_is_closed(self, reference):
        from repro.index.format import encode_artifact

        with pytest.raises(ValueError, match="section set"):
            encode_artifact(
                {"reference": reference},
                reference_crc(reference),
                len(reference),
                {"k": 19},
            )
