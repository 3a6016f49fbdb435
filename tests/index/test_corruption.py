"""Corruption chaos: every injected fault detected, zero silent seeds.

The acceptance bar of the persistent store: for every corruption seam
(a bit flipped in *any* section, truncation at any depth, stale magic,
a foreign schema version, a tampered header) the load ladder must
raise exactly the right typed error — and no code path, including a
full aligner constructed over the damaged artifact, may ever emit a
seed derived from the damaged bytes.
"""

from __future__ import annotations

import pickle

import pytest

from repro.index.errors import (
    IndexArtifactError,
    IndexCorruptError,
    IndexMissingError,
    IndexVersionError,
)
from repro.index.format import _FIXED, SECTION_NAMES
from repro.index.store import load_index, verify_artifact
from tests.index.seams import (
    bitflip_section,
    stale_magic,
    stale_version,
    tamper_header,
    truncate_at,
)

pytestmark = pytest.mark.chaos


class TestBitflips:
    @pytest.mark.parametrize("section", SECTION_NAMES)
    @pytest.mark.parametrize("at", (0.0, 0.5, 0.999))
    def test_every_section_every_position_detected(
        self, artifact, tmp_path, section, at
    ):
        src, _ = artifact
        bad = bitflip_section(src, tmp_path / "bad.rpidx", section, at=at)
        with pytest.raises(IndexCorruptError) as excinfo:
            load_index(bad)
        assert excinfo.value.section == section
        assert excinfo.value.offset is not None

    @pytest.mark.parametrize("section", SECTION_NAMES)
    def test_verify_names_the_damaged_section(
        self, artifact, tmp_path, section
    ):
        src, _ = artifact
        bad = bitflip_section(src, tmp_path / "bad.rpidx", section)
        with pytest.raises(IndexCorruptError) as excinfo:
            verify_artifact(bad)
        assert excinfo.value.section == section


class TestTruncation:
    @pytest.mark.parametrize(
        "nbytes",
        (0, 4, _FIXED.size, _FIXED.size + 10, 200, 4096, 100_000),
    )
    def test_truncated_artifact_refused(self, artifact, tmp_path, nbytes):
        src, _ = artifact
        assert nbytes < src.stat().st_size
        bad = truncate_at(src, tmp_path / "bad.rpidx", nbytes)
        with pytest.raises((IndexCorruptError, IndexVersionError)):
            load_index(bad)

    def test_one_byte_short_is_refused(self, artifact, tmp_path):
        src, _ = artifact
        bad = truncate_at(
            src, tmp_path / "bad.rpidx", src.stat().st_size - 1
        )
        with pytest.raises(IndexCorruptError):
            load_index(bad)


class TestStaleFiles:
    def test_wrong_magic_is_a_version_error(self, artifact, tmp_path):
        src, _ = artifact
        bad = stale_magic(src, tmp_path / "bad.rpidx")
        with pytest.raises(IndexVersionError):
            load_index(bad)

    def test_future_schema_is_a_version_error(self, artifact, tmp_path):
        src, _ = artifact
        bad = stale_version(src, tmp_path / "bad.rpidx", version=999)
        with pytest.raises(IndexVersionError) as excinfo:
            load_index(bad)
        assert excinfo.value.found == 999

    def test_tampered_header_is_corrupt(self, artifact, tmp_path):
        src, _ = artifact
        bad = tamper_header(src, tmp_path / "bad.rpidx")
        with pytest.raises(IndexCorruptError) as excinfo:
            load_index(bad)
        assert excinfo.value.section == "header"

    def test_missing_artifact_is_typed_and_oserror(self, tmp_path):
        with pytest.raises(IndexMissingError) as excinfo:
            load_index(tmp_path / "never-built.rpidx")
        assert isinstance(excinfo.value, OSError)
        assert excinfo.value.path is not None


class TestNoSilentSeeds:
    """A damaged artifact must never reach the seeding stage at all."""

    @pytest.mark.parametrize("section", SECTION_NAMES)
    def test_aligner_over_corrupt_handle_raises_before_seeding(
        self, reference, artifact, tmp_path, section
    ):
        from repro.aligner.pipeline import Aligner
        from repro.index.store import IndexHandle

        src, loaded = artifact
        bad = bitflip_section(src, tmp_path / "bad.rpidx", section)
        handle = IndexHandle(
            path=str(bad),
            fingerprint=loaded.fingerprint,
            schema_version=loaded.header.schema_version,
        )
        with pytest.raises(IndexArtifactError):
            Aligner(reference, index=handle.open(verify=True))

    def test_sharded_run_over_vanished_artifact_fails_typed(
        self, reference, reads, tmp_path
    ):
        from repro.aligner.engines import EngineSpec
        from repro.aligner.parallel import align_supervised
        from repro.index.build import build_index

        path = tmp_path / "ref.rpidx"
        handle = build_index(reference, path).handle()
        path.unlink()
        with pytest.raises(IndexMissingError):
            align_supervised(
                reference,
                reads,
                spec=EngineSpec(kind="full"),
                workers=2,
                index=handle,
            )


class TestErrorPickling:
    """Typed errors cross process boundaries from spawn workers."""

    def test_each_error_roundtrips_with_payload(self):
        errors = [
            IndexVersionError("msg", found=2, expected=1),
            IndexCorruptError("msg", section="sa", offset=64),
            IndexMissingError("msg", path="/x/y.rpidx"),
        ]
        from repro.index.errors import IndexDriftError

        errors.append(
            IndexDriftError("msg", field="k", found=21, expected=19)
        )
        for exc in errors:
            clone = pickle.loads(pickle.dumps(exc))
            assert type(clone) is type(exc)
            assert clone.args == exc.args
            assert vars(clone) == vars(exc)
