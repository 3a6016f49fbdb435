"""Store semantics: handles, drift pins, and the worker handoff.

An :class:`IndexHandle` is a *capability*: path plus pinned content
fingerprint.  These tests pin its contract — picklable, re-openable,
and impossible to satisfy with a different artifact than the one the
parent validated — alongside the drift rules that keep an intact
artifact from serving the wrong run.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.index.build import build_index
from repro.index.errors import IndexDriftError, IndexMissingError
from repro.index.store import IndexHandle, load_index


class TestHandles:
    def test_handle_roundtrips_through_pickle(self, artifact):
        _, loaded = artifact
        handle = loaded.handle()
        clone = pickle.loads(pickle.dumps(handle))
        assert clone == handle
        assert clone.open().fingerprint == loaded.fingerprint

    def test_vanished_artifact_is_missing(self, reference, tmp_path):
        path = tmp_path / "ref.rpidx"
        handle = build_index(reference, path).handle()
        path.unlink()
        with pytest.raises(IndexMissingError):
            handle.open()

    def test_swapped_artifact_refused_by_fingerprint_pin(
        self, reference, tmp_path
    ):
        path = tmp_path / "ref.rpidx"
        handle = build_index(reference, path).handle()
        build_index(reference, path, k=23)  # same path, different content
        with pytest.raises(IndexDriftError) as excinfo:
            handle.open()
        assert excinfo.value.field == "fingerprint"

    def test_fast_open_skips_section_read_but_keeps_the_pin(
        self, artifact
    ):
        path, loaded = artifact
        fast = loaded.handle().open(verify=False)
        assert fast.fingerprint == loaded.fingerprint


class TestDriftRules:
    def test_reference_edit_refused(self, reference, artifact):
        _, loaded = artifact
        edited = reference.copy()
        edited[100] = (edited[100] + 1) % 4
        with pytest.raises(IndexDriftError) as excinfo:
            loaded.check_reference(edited)
        assert excinfo.value.field == "reference_crc"

    def test_reference_length_refused_first(self, reference, artifact):
        _, loaded = artifact
        with pytest.raises(IndexDriftError) as excinfo:
            loaded.check_reference(reference[:-10])
        assert excinfo.value.field == "reference_length"

    def test_kmer_size_refused(self, artifact):
        _, loaded = artifact
        with pytest.raises(IndexDriftError) as excinfo:
            loaded.check_kmer_size(25)
        assert excinfo.value.field == "k"
        loaded.check_kmer_size(19)  # the built size passes

    def test_aligner_refuses_drifted_reference(self, reference, artifact):
        from repro.aligner.pipeline import Aligner

        _, loaded = artifact
        edited = reference.copy()
        edited[0] = (edited[0] + 1) % 4
        with pytest.raises(IndexDriftError):
            Aligner(edited, index=loaded)

    def test_aligner_refuses_kmer_size_mismatch(self, reference, artifact):
        from repro.aligner.pipeline import Aligner

        _, loaded = artifact
        with pytest.raises(IndexDriftError):
            Aligner(
                reference, seeding="kmer", min_seed_length=25, index=loaded
            )


class TestMeta:
    def test_meta_names_the_artifact(self, artifact):
        path, loaded = artifact
        meta = loaded.meta()
        assert meta["path"] == str(path)
        assert meta["fingerprint"] == loaded.fingerprint
        assert meta["schema_version"] == 1
        assert meta["mode"] == "mmap"
        assert load_index(path, mmap=False).meta()["mode"] == "memory"

    def test_aligner_exposes_index_meta(self, reference, artifact):
        from repro.aligner.pipeline import Aligner

        _, loaded = artifact
        with_index = Aligner(reference, index=loaded)
        without = Aligner(reference)
        assert with_index.index_meta == loaded.meta()
        assert without.index_meta is None

    def test_suffix_array_section_matches_fresh_build(
        self, reference, artifact
    ):
        from repro.seeding.suffixarray import build_suffix_array

        _, loaded = artifact
        assert np.array_equal(
            np.asarray(loaded.suffix_array), build_suffix_array(reference)
        )
