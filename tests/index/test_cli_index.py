"""End-to-end CLI coverage for the ``repro index`` family and ``--index``.

Drives the real argument parser: build/verify/info on real artifacts,
``align --index`` byte-identity against index-less runs (``@PG``
stripped — the tag intentionally names the fingerprint), the
``--rebuild-index`` ladder rung, and the typed refusal without it.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from tests.index.seams import bitflip_section


def _strip_pg(path):
    return [
        line
        for line in path.read_text().splitlines()
        if not line.startswith("@PG")
    ]


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_index")
    ref = str(root / "ref.fasta")
    reads = str(root / "reads.fastq")
    assert (
        main(
            [
                "simulate",
                "--length",
                "12000",
                "--reads",
                "12",
                "--seed",
                "7",
                "--out-reference",
                ref,
                "--out-reads",
                reads,
            ]
        )
        == 0
    )
    idx = str(root / "ref.rpidx")
    assert main(["index", "build", "--reference", ref, "--out", idx]) == 0
    return root, ref, reads, idx


class TestIndexSubcommands:
    def test_verify_passes_on_fresh_build(self, workload, capsys):
        _, _, _, idx = workload
        assert main(["index", "verify", "--index", idx]) == 0
        assert "intact" in capsys.readouterr().out

    def test_verify_fails_typed_on_corruption(
        self, workload, tmp_path, capsys
    ):
        root, _, _, idx = workload
        from pathlib import Path

        bad = bitflip_section(Path(idx), tmp_path / "bad.rpidx", "sa")
        assert main(["index", "verify", "--index", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "IndexCorruptError" in err
        assert "sa" in err

    def test_info_json_names_every_section(self, workload, capsys):
        _, _, _, idx = workload
        assert main(["index", "info", "--index", idx, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        from repro.index.format import SECTION_NAMES

        assert set(payload["sections"]) == set(SECTION_NAMES)
        assert payload["schema_version"] == 1
        assert len(payload["fingerprint"]) == 8


class TestAlignWithIndex:
    @pytest.mark.parametrize("workers", ("1", "2"))
    def test_sam_identical_to_index_less_run(self, workload, workers):
        root, ref, reads, idx = workload
        plain = root / f"plain{workers}.sam"
        indexed = root / f"indexed{workers}.sam"
        base = [
            "align", "--reference", ref, "--reads", reads,
            "--workers", workers, "--batch-size", "6",
        ]
        assert main(base + ["--out", str(plain)]) == 0
        assert main(base + ["--out", str(indexed), "--index", idx]) == 0
        assert _strip_pg(indexed) == _strip_pg(plain)

    def test_pg_line_names_the_fingerprint(self, workload):
        root, ref, reads, idx = workload
        out = root / "tagged.sam"
        assert (
            main(
                [
                    "align", "--reference", ref, "--reads", reads,
                    "--out", str(out), "--index", idx,
                ]
            )
            == 0
        )
        from repro.index.format import read_header

        header = read_header(idx)
        (pg,) = [
            line
            for line in out.read_text().splitlines()
            if line.startswith("@PG")
        ]
        assert f"index={header.fingerprint}" in pg
        assert "schema=1" in pg

    def test_corrupt_index_refused_without_rebuild_flag(
        self, workload, tmp_path, capsys
    ):
        _, ref, reads, _ = workload
        from pathlib import Path

        _, _, _, idx = workload
        bad = bitflip_section(
            Path(idx), tmp_path / "bad.rpidx", "fm_occ"
        )
        assert main(
            [
                "align", "--reference", ref, "--reads", reads,
                "--out", str(tmp_path / "out.sam"),
                "--index", str(bad),
            ]
        ) == 2
        err = capsys.readouterr().err
        assert "IndexCorruptError" in err and "--rebuild-index" in err
        assert not (tmp_path / "out.sam").exists()

    def test_rebuild_flag_recovers_in_place(self, workload, tmp_path):
        root, ref, reads, idx = workload
        from pathlib import Path

        bad = bitflip_section(
            Path(idx), tmp_path / "bad.rpidx", "kmer_positions"
        )
        out = tmp_path / "out.sam"
        assert (
            main(
                [
                    "align", "--reference", ref, "--reads", reads,
                    "--out", str(out), "--index", str(bad),
                    "--rebuild-index",
                ]
            )
            == 0
        )
        assert main(["index", "verify", "--index", str(bad)]) == 0
        plain = root / "plain1.sam"
        if plain.exists():
            assert _strip_pg(out) == _strip_pg(plain)


class TestServeStatus:
    def test_status_payload_carries_index_meta(self, workload):
        from repro.aligner.pipeline import Aligner
        from repro.cli import _load_reference
        from repro.index.store import load_index
        from repro.serve.server import AlignmentServer

        _, ref, _, idx = workload
        _, reference = _load_reference(ref)
        loaded = load_index(idx)
        server = AlignmentServer(Aligner(reference, index=loaded))
        assert server.status()["index"] == loaded.meta()
        bare = AlignmentServer(Aligner(reference))
        assert bare.status()["index"] is None
