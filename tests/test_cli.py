"""End-to-end tests of the command-line interface."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.genome.io_fasta import read_fasta, read_fastq
from repro.genome.sam import SamRecord


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    ref = str(root / "ref.fasta")
    reads = str(root / "reads.fastq")
    rc = main(
        [
            "simulate",
            "--length",
            "20000",
            "--reads",
            "25",
            "--seed",
            "5",
            "--out-reference",
            ref,
            "--out-reads",
            reads,
        ]
    )
    assert rc == 0
    return root, ref, reads


class TestSimulate:
    def test_outputs_parse(self, workload):
        _, ref, reads = workload
        (record,) = read_fasta(ref)
        assert record.name == "chr1"
        assert len(record.sequence) == 20000
        fq = read_fastq(reads)
        assert len(fq) == 25
        assert all(len(r.sequence) == 101 for r in fq)

    def test_deterministic(self, workload, tmp_path):
        _, ref, _ = workload
        ref2 = str(tmp_path / "ref2.fasta")
        reads2 = str(tmp_path / "reads2.fastq")
        main(
            [
                "simulate",
                "--length",
                "20000",
                "--reads",
                "25",
                "--seed",
                "5",
                "--out-reference",
                ref2,
                "--out-reads",
                reads2,
            ]
        )
        assert read_fasta(ref)[0] == read_fasta(ref2)[0]


class TestAlign:
    def _sam_records(self, path):
        with open(path) as handle:
            return [
                SamRecord.from_line(line)
                for line in handle
                if not line.startswith("@")
            ]

    def test_align_produces_sam(self, workload):
        root, ref, reads = workload
        out = str(root / "out.sam")
        rc = main(
            ["align", "--reference", ref, "--reads", reads, "--out", out]
        )
        assert rc == 0
        records = self._sam_records(out)
        assert len(records) == 25
        mapped = [r for r in records if not r.is_unmapped]
        assert len(mapped) >= 23

    def test_seedex_equals_full(self, workload):
        root, ref, reads = workload
        out_seedex = str(root / "seedex.sam")
        out_full = str(root / "full.sam")
        main(
            ["align", "--reference", ref, "--reads", reads,
             "--out", out_seedex, "--engine", "seedex", "--band", "9"]
        )
        main(
            ["align", "--reference", ref, "--reads", reads,
             "--out", out_full, "--engine", "full"]
        )
        assert self._sam_records(out_seedex) == self._sam_records(
            out_full
        )

    def test_missing_reference_errors(self, workload, tmp_path, capsys):
        root, _, reads = workload
        empty = tmp_path / "empty.fasta"
        empty.write_text("")
        assert main(
            ["align", "--reference", str(empty), "--reads", reads,
             "--out", str(tmp_path / "x.sam")]
        ) == 2
        assert "contains no FASTA records" in capsys.readouterr().err


class TestPaired:
    def test_paired_roundtrip(self, tmp_path):
        ref = str(tmp_path / "ref.fasta")
        reads = str(tmp_path / "pairs.fastq")
        out = str(tmp_path / "pairs.sam")
        rc = main(
            ["simulate", "--length", "20000", "--reads", "12",
             "--paired", "--seed", "3",
             "--out-reference", ref, "--out-reads", reads]
        )
        assert rc == 0
        fq = read_fastq(reads)
        assert len(fq) == 24  # interleaved mates
        assert fq[0].name.endswith("/1")
        assert fq[1].name.endswith("/2")
        rc = main(
            ["align", "--reference", ref, "--reads", reads,
             "--out", out, "--paired"]
        )
        assert rc == 0
        with open(out) as handle:
            records = [
                SamRecord.from_line(line)
                for line in handle
                if not line.startswith("@")
            ]
        assert len(records) == 24
        # The /1 suffix is removed as a suffix, not as a character
        # set: pair000001 and pair000011 keep their trailing 1s.
        assert [r.qname for r in records] == [
            mate.name[:-2] for mate in fq
        ]
        proper = sum(1 for r in records if r.flag & 0x2)
        assert proper >= 20

    def test_paired_odd_count_rejected(self, tmp_path, workload, capsys):
        _, ref, reads = workload
        assert main(
            ["align", "--reference", ref, "--reads", reads,
             "--out", str(tmp_path / "x.sam"), "--paired"]
        ) == 2
        assert "even number of reads" in capsys.readouterr().err


class TestAnalyze:
    def test_analyze_runs(self, workload, capsys):
        _, ref, reads = workload
        rc = main(
            ["analyze", "--reference", ref, "--reads", reads,
             "--band", "41"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "overall passing rate" in out
        assert "band: 41" in out
        # The passing-rate report is a shared-format table now.
        assert "metric" in out and "value" in out


class TestObservability:
    def _sam_records(self, path):
        with open(path) as handle:
            return [
                line for line in handle if not line.startswith("@")
            ]

    def test_metrics_and_trace_outputs(self, workload, tmp_path):
        root, ref, reads = workload
        out = str(tmp_path / "obs.sam")
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.json"
        rc = main(
            ["align", "--reference", ref, "--reads", reads,
             "--out", out, "--metrics-out", str(metrics),
             "--trace-out", str(trace)]
        )
        assert rc == 0
        snap = json.loads(metrics.read_text())
        counters = snap["counters"]
        assert counters["aligner.reads.total"] == 25
        assert counters["seedex.extensions.total"] > 0
        assert any(
            key.startswith("seedex.check.outcome{") for key in counters
        )
        # The default engine keeps its user-facing label on the waves,
        # and every job it serves is a checked extension.
        assert (
            counters["engine.extensions{engine=seedex-w41}"]
            == counters["seedex.extensions.total"]
        )
        assert counters["pipeline.batch.waves{side=left}"] == 1
        hists = snap["histograms"]
        assert hists["extend.narrow.seconds"]["count"] > 0
        assert hists["extend.check.seconds"]["count"] > 0
        assert (
            hists["seedex.cells.per_extension{stage=narrow}"]["count"]
            > 0
        )
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"], "trace must contain spans"
        assert all(e["ph"] == "X" for e in doc["traceEvents"])

    def test_sam_identical_with_and_without_obs(self, workload, tmp_path):
        _, ref, reads = workload
        plain = str(tmp_path / "plain.sam")
        observed = str(tmp_path / "observed.sam")
        main(["align", "--reference", ref, "--reads", reads,
              "--out", plain])
        main(["align", "--reference", ref, "--reads", reads,
              "--out", observed,
              "--metrics-out", str(tmp_path / "m.json"),
              "--trace-out", str(tmp_path / "t.json")])
        assert self._sam_records(observed) == self._sam_records(plain)

    def test_stats_pretty_printer(self, workload, tmp_path, capsys):
        _, ref, reads = workload
        metrics = tmp_path / "m.json"
        main(["align", "--reference", ref, "--reads", reads,
              "--out", str(tmp_path / "x.sam"),
              "--metrics-out", str(metrics)])
        capsys.readouterr()
        rc = main(["stats", str(metrics)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "== counters ==" in out
        assert "aligner.reads.total" in out
        assert "== histograms ==" in out
        assert "p50" in out


class TestDurableCli:
    def _sam_bytes(self, path):
        with open(path, "rb") as handle:
            return handle.read()

    def test_durable_run_matches_plain_align(self, workload, tmp_path):
        _, ref, reads = workload
        plain = str(tmp_path / "plain.sam")
        durable = str(tmp_path / "durable.sam")
        main(["align", "--reference", ref, "--reads", reads,
              "--out", plain, "--batch-size", "8"])
        rc = main(["align", "--reference", ref, "--reads", reads,
                   "--out", durable, "--batch-size", "8",
                   "--workers", "2",
                   "--run-dir", str(tmp_path / "run")])
        assert rc == 0
        assert self._sam_bytes(durable) == self._sam_bytes(plain)
        assert (tmp_path / "run" / "manifest.json").exists()

    def test_reusing_run_dir_without_resume_errors(
        self, workload, tmp_path, capsys
    ):
        _, ref, reads = workload
        out = str(tmp_path / "out.sam")
        argv = ["align", "--reference", ref, "--reads", reads,
                "--out", out, "--batch-size", "8",
                "--run-dir", str(tmp_path / "run")]
        assert main(argv) == 0
        assert main(argv) == 2
        assert "already holds" in capsys.readouterr().err

    def test_resume_of_finished_run_reuses_every_window(
        self, workload, tmp_path, capsys
    ):
        _, ref, reads = workload
        out = str(tmp_path / "out.sam")
        argv = ["align", "--reference", ref, "--reads", reads,
                "--out", out, "--batch-size", "8",
                "--run-dir", str(tmp_path / "run")]
        assert main(argv) == 0
        first = self._sam_bytes(out)
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        assert "windows reused from the journal" in capsys.readouterr().out
        assert self._sam_bytes(out) == first

    def test_resume_without_run_dir_rejected(
        self, workload, tmp_path, capsys
    ):
        _, ref, reads = workload
        assert main(["align", "--reference", ref, "--reads", reads,
                     "--out", str(tmp_path / "x.sam"), "--resume"]) == 2
        assert "--resume needs" in capsys.readouterr().err


class TestBadRecordPolicy:
    CORRUPT = (
        "@good1\nACGTACGT\n+\nIIIIIIII\n"
        "@broken\nACGT\nIIII\n"          # missing '+' separator
        "@good2\nTTTTACGT\n+\n########\n"
    )

    def _workload(self, tmp_path):
        ref = tmp_path / "ref.fasta"
        ref.write_text(">chr1\n" + "ACGTTGCA" * 200 + "\n")
        reads = tmp_path / "reads.fastq"
        reads.write_text(self.CORRUPT)
        return str(ref), str(reads)

    def test_fail_policy_aborts(self, tmp_path, capsys):
        ref, reads = self._workload(tmp_path)
        assert main(["align", "--reference", ref, "--reads", reads,
                     "--out", str(tmp_path / "x.sam")]) == 2
        assert "on-bad-record" in capsys.readouterr().err

    def test_quarantine_policy_skips_and_reports(
        self, tmp_path, capsys
    ):
        ref, reads = self._workload(tmp_path)
        out = tmp_path / "out.sam"
        rc = main(["align", "--reference", ref, "--reads", reads,
                   "--out", str(out), "--on-bad-record", "quarantine",
                   "--run-dir", str(tmp_path / "run")])
        assert rc == 0
        assert "skipped bad record" in capsys.readouterr().err
        body = [
            line for line in out.read_text().splitlines()
            if not line.startswith("@")
        ]
        assert [line.split("\t")[0] for line in body] == [
            "good1", "good2"
        ]
        sidecar = (tmp_path / "run" / "bad_records.tsv").read_text()
        assert "separator" in sidecar


class TestScorecardCli:
    def _sam_bytes(self, path):
        with open(path, "rb") as handle:
            return handle.read()

    def test_simulate_writes_truth_sidecar(self, workload):
        from repro.scorecard.truth import read_truth

        _, _, reads = workload
        truth = read_truth(reads + ".truth.tsv")
        assert len(truth) == 25
        assert all(row.true_pos >= 0 for row in truth.values())

    def test_no_truth_suppresses_sidecar(self, tmp_path):
        ref = str(tmp_path / "ref.fasta")
        reads = str(tmp_path / "reads.fastq")
        rc = main(
            ["simulate", "--length", "5000", "--reads", "5",
             "--seed", "1", "--no-truth",
             "--out-reference", ref, "--out-reads", reads]
        )
        assert rc == 0
        assert not (tmp_path / "reads.fastq.truth.tsv").exists()

    def test_scoring_never_changes_the_sam(self, workload, tmp_path):
        _, ref, reads = workload
        plain = str(tmp_path / "plain.sam")
        scored = str(tmp_path / "scored.sam")
        main(["align", "--reference", ref, "--reads", reads,
              "--out", plain])
        card_out = tmp_path / "scorecard.json"
        rc = main(["align", "--reference", ref, "--reads", reads,
                   "--out", scored, "--scorecard-out", str(card_out)])
        assert rc == 0
        assert self._sam_bytes(scored) == self._sam_bytes(plain)
        payload = json.loads(card_out.read_text())
        assert payload["schema"] == 1
        assert sum(payload["outcomes"].values()) == 25
        assert payload["rates"]["correct_locus"] >= 0.9

    def test_score_subcommand_grades_existing_sam(
        self, workload, tmp_path, capsys
    ):
        _, ref, reads = workload
        out = str(tmp_path / "run.sam")
        main(["align", "--reference", ref, "--reads", reads,
              "--out", out])
        capsys.readouterr()
        rc = main(["score", "--sam", out,
                   "--truth", reads + ".truth.tsv"])
        assert rc == 0
        assert "correct-locus" in capsys.readouterr().out

    def test_score_subcommand_bad_sidecar_exits_2(
        self, workload, tmp_path, capsys
    ):
        _, ref, reads = workload
        out = str(tmp_path / "run.sam")
        main(["align", "--reference", ref, "--reads", reads,
              "--out", out])
        bad = tmp_path / "bad.tsv"
        bad.write_text("this is not a sidecar\n")
        assert main(["score", "--sam", out, "--truth", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_log_json_emits_wave_progress(
        self, workload, tmp_path, capsys
    ):
        _, ref, reads = workload
        rc = main(["align", "--reference", ref, "--reads", reads,
                   "--out", str(tmp_path / "x.sam"),
                   "--batch-size", "8", "--log-json"])
        assert rc == 0
        events = [
            json.loads(line)
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("{")
        ]
        waves = [e for e in events if e.get("event") == "wave"]
        assert len(waves) >= 3  # 25 reads / batch 8
        last = waves[-1]
        assert last["reads_done"] == 25
        assert last["reads_total"] == 25
        assert last["reads_per_s"] >= 0
        assert set(last) >= {"wave", "eta_s", "elapsed_s"}


@pytest.fixture(scope="module")
def long_workload(tmp_path_factory):
    """A small long-read corpus with its truth sidecar."""
    root = tmp_path_factory.mktemp("cli_long")
    ref = str(root / "ref.fasta")
    reads = str(root / "long.fastq")
    rc = main(
        ["simulate", "--length", "15000", "--reads", "8", "--seed", "9",
         "--long", "--long-length", "900", "--length-sd", "150",
         "--out-reference", ref, "--out-reads", reads]
    )
    assert rc == 0
    return root, ref, reads


class TestSimulateLong:
    def test_long_reads_have_spread_lengths(self, long_workload):
        _, _, reads = long_workload
        fq = read_fastq(reads)
        assert len(fq) == 8
        lengths = {len(r.sequence) for r in fq}
        assert len(lengths) > 1  # --length-sd actually spread them
        assert all(300 <= n <= 900 + 4 * 150 for n in lengths)

    def test_truth_sidecar_written(self, long_workload):
        root, _, reads = long_workload
        truth = reads + ".truth.tsv"
        with open(truth) as handle:
            rows = [
                line.split("\t") for line in handle
                if not line.startswith("#")
            ]
        assert len(rows) == 8

    def test_long_and_paired_exclusive(self, tmp_path, capsys):
        assert main(
            ["simulate", "--length", "15000", "--reads", "4",
             "--long", "--paired",
             "--out-reference", str(tmp_path / "r.fa"),
             "--out-reads", str(tmp_path / "r.fq")]
        ) == 2
        assert "--long and --paired are exclusive" in capsys.readouterr().err


class TestLongReadCli:
    def _run(self, long_workload, tmp_path, *extra):
        _, ref, reads = long_workload
        out = str(tmp_path / "long.sam")
        rc = main(
            ["longread", "--reference", ref, "--reads", reads,
             "--out", out, *extra]
        )
        assert rc == 0
        with open(out) as handle:
            return handle.read()

    def test_batched_matches_scalar_engine(self, long_workload, tmp_path):
        scalar = self._run(
            long_workload, tmp_path, "--engine", "scalar"
        )
        batched = self._run(
            long_workload, tmp_path,
            "--engine", "batched", "--kernel", "striped",
        )
        strip = lambda text: [
            line for line in text.splitlines()
            if not line.startswith("@PG")
        ]
        assert strip(batched) == strip(scalar)
        mapped = [
            line for line in scalar.splitlines()
            if not line.startswith("@") and "\t4\t" not in line[:40]
        ]
        assert len(mapped) >= 7

    def test_scorecard_grades_the_run(self, long_workload, tmp_path):
        _, ref, reads = long_workload
        out = str(tmp_path / "long.sam")
        card = str(tmp_path / "card.json")
        rc = main(
            ["longread", "--reference", ref, "--reads", reads,
             "--out", out, "--scorecard-out", card,
             "--truth-tolerance", "80"]
        )
        assert rc == 0
        with open(card) as handle:
            score = json.load(handle)
        assert score["total"] == 8
        assert score["rates"]["correct_locus"] >= 0.8


class TestOverlapCli:
    @pytest.fixture(scope="class")
    def fragments(self, tmp_path_factory):
        """Tiling fragments of a fresh reference: known overlaps."""
        import numpy as np

        from repro.genome.io_fasta import FastqRecord, write_fastq
        from repro.genome.sequence import decode
        from repro.genome.synth import fragment_corpus, synthesize_reference

        root = tmp_path_factory.mktemp("cli_overlap")
        rng = np.random.default_rng(11)
        reference = synthesize_reference(4_000, rng)
        frags = fragment_corpus(
            reference, rng, length=300, step=220,
            substitution_rate=0.01,
        )
        reads = str(root / "frags.fastq")
        with open(reads, "w") as handle:
            write_fastq(
                handle,
                [
                    FastqRecord(f.name, decode(f.codes), "I" * len(f.codes))
                    for f in frags
                ],
            )
        return reads, len(frags)

    def test_overlap_finds_adjacent_fragments(self, fragments, tmp_path):
        reads, n_frags = fragments
        out = str(tmp_path / "overlap.tsv")
        rc = main(["overlap", "--reads", reads, "--out", out])
        assert rc == 0
        with open(out) as handle:
            rows = [line.rstrip("\n").split("\t") for line in handle]
        assert len(rows) >= n_frags - 1
        for row in rows:
            assert len(row) == 12
            assert row[4] == "+"
            assert row[11] in ("proved", "rerun")
            assert int(row[8]) >= 50  # b_end >= --min-overlap

    def test_overlap_kernel_independent(self, fragments, tmp_path):
        reads, _ = fragments
        outputs = {}
        for kernel in ("scalar", "numpy", "striped"):
            out = str(tmp_path / f"overlap.{kernel}.tsv")
            rc = main(
                ["overlap", "--reads", reads, "--out", out,
                 "--kernel", kernel]
            )
            assert rc == 0
            with open(out) as handle:
                outputs[kernel] = handle.read()
        assert outputs["scalar"] == outputs["numpy"]
        assert outputs["scalar"] == outputs["striped"]


class TestFlagBounds:
    """Out-of-range integer flags fail in argparse (usage error, exit
    2) before any input is read, instead of as a traceback later."""

    IO = ["--reference", "ref.fa", "--reads", "reads.fq", "--out", "o"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["align", *IO, "--band", "0"],
            ["analyze", "--reference", "ref.fa", "--reads", "r.fq",
             "--band", "0"],
            ["longread", *IO, "--fill-band", "-1"],
            ["serve", "--reference", "ref.fa", "--max-batch", "0"],
            ["align", *IO, "--truth-tolerance", "-5"],
            ["align", *IO, "--batch-size", "0"],
            ["align", *IO, "--workers", "0"],
            ["longread", *IO, "--batch-size", "0"],
            ["longread", *IO, "--workers", "0"],
            ["overlap", "--reads", "r.fq", "--out", "o",
             "--batch-size", "0"],
            ["overlap", "--reads", "r.fq", "--out", "o", "--k", "0"],
            ["overlap", "--reads", "r.fq", "--out", "o", "--band", "-1"],
            ["overlap", "--reads", "r.fq", "--out", "o",
             "--min-shared", "0"],
            ["overlap", "--reads", "r.fq", "--out", "o",
             "--min-overlap", "-10"],
            ["client", "--port", "1", "--deadline-ms", "0"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}",
    )
    def test_out_of_range_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {argv[-2]}: must be at least" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            # 4**32 wraps the int64 k-mer key: k-mers would collide.
            ("--k", "33", "must be at most 32"),
            ("--accept", "nan", "must be a fraction in [0, 1]"),
            ("--accept", "1.5", "must be a fraction in [0, 1]"),
        ],
        ids=["k=33", "accept=nan", "accept=1.5"],
    )
    def test_out_of_range_overlap_flag_is_a_usage_error(
        self, flag, value, message, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(["overlap", "--reads", "r.fq", "--out", "o", flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: {message}" in err

    SERVE = ["serve", "--reference", "ref.fa"]
    CLIENT = ["client", "--port", "1"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["align", *IO, "--chaos", "--fault-rate", "nan"], "fraction"),
            (["analyze", "--reference", "ref.fa", "--reads", "r.fq",
              "--chaos", "--fault-rate", "nan"], "fraction"),
            (["align", *IO, "--fault-rate", "1.5"], "fraction"),
            (["align", *IO, "--max-retries", "-1"], "at least 0"),
            (["align", *IO, "--timeout", "0"], "greater than 0"),
            (["align", *IO, "--breaker-threshold", "0"], "at least 1"),
            (["align", *IO, "--max-restarts", "-1"], "at least 0"),
            (["align", *IO, "--hung-timeout", "0"], "greater than 0"),
            (["simulate", "--out-reference", "r", "--out-reads", "q",
              "--reads", "-1"], "at least 1"),
            (["simulate", "--out-reference", "r", "--out-reads", "q",
              "--length", "0"], "at least 1"),
            (["simulate", "--out-reference", "r", "--out-reads", "q",
              "--long-length", "0"], "at least 1"),
            (["simulate", "--out-reference", "r", "--out-reads", "q",
              "--length-sd", "-5"], "at least 0"),
            (["index", "build", "--reference", "r", "--out", "o",
              "--sa-sample-rate", "0"], "at least 1"),
            (["index", "build", "--reference", "r", "--out", "o",
              "--min-seed-length", "0"], "at least 1"),
            ([*SERVE, "--quota-rate", "-1"], "greater than 0"),
            ([*SERVE, "--default-deadline-ms", "-5"], "at least 1"),
            ([*SERVE, "--linger-ms", "nan"], "at least 0"),
            ([*SERVE, "--linger-ms", "-1"], "at least 0"),
            ([*SERVE, "--queue-capacity", "0"], "at least 1"),
            ([*SERVE, "--net-stall-rate", "2"], "fraction"),
            ([*SERVE, "--net-disconnect-rate", "2"], "fraction"),
            ([*SERVE, "--port", "70000"], "at most 65535"),
            (["simulate", "--out-reference", "r", "--out-reads", "q",
              "--seed", "-1"], "at least 0"),
            (["align", *IO, "--chaos", "--fault-seed", "-1"], "at least 0"),
            (["align", *IO, "--breaker-probe-interval", "0"], "at least 1"),
            (["analyze", "--reference", "ref.fa", "--reads", "r.fq",
              "--breaker-probe-interval", "0"], "at least 1"),
            ([*SERVE, "--breaker-probe-interval", "0"], "at least 1"),
            ([*SERVE, "--breaker-threshold", "0"], "at least 1"),
            ([*SERVE, "--quota-burst", "-1"], "at least 1"),
            ([*SERVE, "--quota-burst", "nan"], "at least 1"),
            (["client", "--port", "-5"], "at least 1"),
            (["client", "--port", "70000"], "at most 65535"),
            ([*CLIENT, "--repeat", "0"], "at least 1"),
            ([*CLIENT, "--connections", "0"], "at least 1"),
            (["score", "--sam", "s", "--truth", "t", "--tolerance", "-5"],
             "at least 0"),
        ],
        ids=lambda v: v if isinstance(v, str) else f"{v[0]}{v[-2]}={v[-1]}",
    )
    def test_out_of_range_value_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {argv[-2]}: " in err
        assert message in err

    def test_overlap_bounds_are_inclusive(self):
        from repro.cli import build_parser

        parse = build_parser().parse_args
        base = ["overlap", "--reads", "r.fq", "--out", "o"]
        low = parse([*base, "--k", "1", "--band", "0", "--accept", "0"])
        high = parse([*base, "--k", "32", "--accept", "1"])
        assert (low.k, low.band, low.accept) == (1, 0, 0.0)
        assert (high.k, high.accept) == (32, 1.0)

    def test_lowest_accepted_values_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["longread", *self.IO, "--fill-band", "0",
             "--truth-tolerance", "0"]
        )
        assert (args.fill_band, args.truth_tolerance) == (0, 0)


# -- one error boundary: every bad input or output ends in one line ----

@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    """Good and broken copies of every kind of file a command names."""
    root = tmp_path_factory.mktemp("boundary")
    ref, reads = str(root / "ref.fa"), str(root / "reads.fq")
    assert main(["simulate", "--length", "3000", "--reads", "4",
                 "--seed", "2", "--out-reference", ref,
                 "--out-reads", reads]) == 0
    sam, idx = str(root / "good.sam"), str(root / "good.idx")
    assert main(["align", "--reference", ref, "--reads", reads,
                 "--out", sam]) == 0
    assert main(["index", "build", "--reference", ref, "--out", idx]) == 0
    body = Path(sam).read_text()
    artifact = Path(idx).read_bytes()
    files = {
        "empty": "",
        "bad_fq": "@r1\nACGTACGT\n+\nIII\n",
        "cut_fq": Path(reads).read_text()[:-150],
        "bad_fa": "ACGT\n>chr1\nACGT\n",
        "cut_fa": ">chr1\n",
        "short_fa": ">chr1\nACGTACGTAC\n",
        "bad_sam": "@HD\tVN:1.6\nr1\t0\tchr1\n",
        "cut_sam": body[: body.rstrip().rindex("\n") + 20],
        "bad_truth": "this is not a sidecar\n",
        "cut_truth": Path(reads + ".truth.tsv").read_text()[:-9],
        "list_json": "[1, 2]",
        "bad_json": '{"counters": [1, 2]}',
        "cut_json": '{"counters": {"a": 1',
        "bad_idx": "not an index artifact\n" * 8,
        "bad_port": "port\n",
        "bare_fq": Path(reads).read_text(),  # no sidecar beside it
    }
    paths = {"ref": ref, "reads": reads, "sam": sam, "idx": idx,
             "truth": reads + ".truth.tsv",
             "missing": str(root / "missing")}
    for name, text in files.items():
        paths[name] = str(root / name)
        Path(paths[name]).write_text(text)
    paths["cut_idx"] = str(root / "cut_idx")
    Path(paths["cut_idx"]).write_bytes(artifact[: len(artifact) // 2])
    return paths


ALIGN = "align --reference {ref} --reads {reads} --out {out}/x.sam"
LONG = "longread --reference {ref} --reads {reads} --out {out}/x.sam"
ANALYZE = "analyze --reference {ref} --reads {reads}"
OVERLAP = "overlap --reads {reads} --out {out}/x.tsv"
SCORE = "score --sam {sam} --truth {truth}"
SERVE = "serve --reference {ref} --seeding kmer"
BUILD = "index build --reference {ref} --out {out}/x.idx"
CLIENT = "client --port 1 --reads {reads}"

BOUNDARY = {
    # a missing file
    "align-missing-reads": ALIGN.replace("{reads}", "{missing}"),
    "align-missing-reference": ALIGN.replace("{ref}", "{missing}"),
    "longread-missing-reads": LONG.replace("{reads}", "{missing}"),
    "longread-missing-reference": LONG.replace("{ref}", "{missing}"),
    "analyze-missing-reads": ANALYZE.replace("{reads}", "{missing}"),
    "overlap-missing-reads": OVERLAP.replace("{reads}", "{missing}"),
    "score-missing-sam": SCORE.replace("{sam}", "{missing}"),
    "score-missing-truth": SCORE.replace("{truth}", "{missing}"),
    "stats-missing": "stats {missing}",
    "serve-missing-reference": SERVE.replace("{ref}", "{missing}"),
    "index-build-missing-reference": BUILD.replace("{ref}", "{missing}"),
    "index-verify-missing": "index verify --index {missing}",
    "index-info-missing": "index info --index {missing}",
    "client-missing-reads": CLIENT.replace("{reads}", "{missing}"),
    "client-missing-port-file": "client --port-file {missing} "
    "--reads {reads}",
    # an empty file
    "align-empty-reference": ALIGN.replace("{ref}", "{empty}"),
    "longread-empty-reference": LONG.replace("{ref}", "{empty}"),
    "analyze-empty-reference": ANALYZE.replace("{ref}", "{empty}"),
    "score-empty-truth": SCORE.replace("{truth}", "{empty}"),
    "stats-empty": "stats {empty}",
    "serve-empty-reference": SERVE.replace("{ref}", "{empty}"),
    "index-build-empty-reference": BUILD.replace("{ref}", "{empty}"),
    "index-verify-empty": "index verify --index {empty}",
    "index-info-empty": "index info --index {empty}",
    "client-empty-port-file": "client --port-file {empty} --reads {reads}",
    # a malformed record
    "align-malformed-reads": ALIGN.replace("{reads}", "{bad_fq}"),
    "align-malformed-reference": ALIGN.replace("{ref}", "{bad_fa}"),
    "longread-malformed-reads": LONG.replace("{reads}", "{bad_fq}"),
    "analyze-malformed-reads": ANALYZE.replace("{reads}", "{bad_fq}"),
    "overlap-malformed-reads": OVERLAP.replace("{reads}", "{bad_fq}"),
    "client-malformed-reads": CLIENT.replace("{reads}", "{bad_fq}"),
    "score-malformed-sam": SCORE.replace("{sam}", "{bad_sam}"),
    "score-malformed-truth": SCORE.replace("{truth}", "{bad_truth}"),
    "stats-json-list": "stats {list_json}",
    "stats-section-not-object": "stats {bad_json}",
    "serve-malformed-reference": SERVE.replace("{ref}", "{bad_fa}"),
    "index-build-malformed-reference": BUILD.replace("{ref}", "{bad_fa}"),
    "index-verify-malformed": "index verify --index {bad_idx}",
    "index-info-malformed": "index info --index {bad_idx}",
    "client-malformed-port-file": "client --port-file {bad_port} "
    "--reads {reads}",
    "align-reads-not-text": ALIGN.replace("{reads}", "{idx}"),
    "stats-not-text": "stats {idx}",
    # a truncated record
    "align-truncated-reads": ALIGN.replace("{reads}", "{cut_fq}"),
    "align-truncated-reference": ALIGN.replace("{ref}", "{cut_fa}"),
    "longread-truncated-reads": LONG.replace("{reads}", "{cut_fq}"),
    "analyze-truncated-reads": ANALYZE.replace("{reads}", "{cut_fq}"),
    "overlap-truncated-reads": OVERLAP.replace("{reads}", "{cut_fq}"),
    "client-truncated-reads": CLIENT.replace("{reads}", "{cut_fq}"),
    "score-truncated-sam": SCORE.replace("{sam}", "{cut_sam}"),
    "score-truncated-truth": SCORE.replace("{truth}", "{cut_truth}"),
    "stats-truncated": "stats {cut_json}",
    "index-verify-truncated": "index verify --index {cut_idx}",
    "index-info-truncated": "index info --index {cut_idx}",
    # a reference shorter than k (k-mer seeding)
    "align-short-reference": ALIGN.replace("{ref}", "{short_fa}"),
    "longread-short-reference": LONG.replace("{ref}", "{short_fa}"),
    "analyze-short-reference": ANALYZE.replace("{ref}", "{short_fa}"),
    "serve-short-reference": SERVE.replace("{ref}", "{short_fa}"),
    "index-build-short-reference": BUILD.replace("{ref}", "{short_fa}"),
    "simulate-short-reference": "simulate --length 100 "
    "--out-reference {out}/r.fa --out-reads {out}/r.fq",
    "simulate-paired-short-reference": "simulate --length 100 --paired "
    "--out-reference {out}/r.fa --out-reads {out}/r.fq",
    "simulate-long-short-reference": "simulate --length 100 --long "
    "--out-reference {out}/r.fa --out-reads {out}/r.fq",
    # an output path in a missing directory, refused before any work
    "align-out": ALIGN.replace("{out}", "{nodir}"),
    "align-scorecard-out": ALIGN + " --scorecard-out {nodir}/c.json",
    "align-metrics-out": ALIGN + " --metrics-out {nodir}/m.json",
    "align-trace-out": ALIGN + " --trace-out {nodir}/t.json",
    "longread-out": LONG.replace("{out}", "{nodir}"),
    "analyze-metrics-out": ANALYZE + " --metrics-out {nodir}/m.json",
    "overlap-out": OVERLAP.replace("{out}", "{nodir}"),
    "score-out": SCORE + " --out {nodir}/c.json",
    "stats-trace-out": "stats {sam} --trace-out {nodir}/t.json",
    "simulate-out-reference": "simulate --out-reference {nodir}/r.fa "
    "--out-reads {out}/r.fq",
    "simulate-out-reads": "simulate --out-reference {out}/r.fa "
    "--out-reads {nodir}/r.fq",
    "serve-port-file": SERVE + " --port-file {nodir}/port",
    "index-build-out": BUILD.replace("{out}", "{nodir}"),
    "client-out": CLIENT + " --out {nodir}/x.sam",
    # a truth sidecar that cannot be read, refused before any work
    "align-missing-truth": ALIGN + " --truth {missing}",
    "align-malformed-truth": ALIGN + " --truth {bad_truth}",
    "align-implied-truth-missing": ALIGN.replace("{reads}", "{bare_fq}")
    + " --scorecard-out {out}/c.json",
    "align-paired-missing-truth": ALIGN + " --paired --truth {missing}",
    "align-workers-missing-truth": ALIGN + " --workers 2 --truth {missing}",
    "longread-missing-truth": LONG + " --truth {missing}",
    "longread-implied-truth-missing": LONG.replace("{reads}", "{bare_fq}")
    + " --scorecard-out {out}/c.json",
    # a failed command exports no snapshot
    "align-missing-reads-metrics-out": ALIGN.replace("{reads}", "{missing}")
    + " --metrics-out {out}/m.json",
    "align-missing-reads-trace-out": ALIGN.replace("{reads}", "{missing}")
    + " --trace-out {out}/t.json",
}
"""``repro`` invocations (``{name}`` is a file of :func:`bad_inputs`,
``{out}`` an empty directory, ``{nodir}`` a missing one), by command
and case; every one exits 2: usage, or an input or output the command
cannot use (README.md, "Exit codes")."""


class TestCliErrorBoundary:
    @pytest.mark.parametrize("argv", BOUNDARY.values(), ids=BOUNDARY)
    def test_refused_with_one_error_line(
        self, argv, bad_inputs, tmp_path, capsys
    ):
        out = tmp_path / "out"
        out.mkdir()
        paths = {**bad_inputs, "out": str(out), "nodir": str(out / "nodir")}
        code = main(argv.format(**paths).split())
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.err
        assert captured.err.splitlines()[-1].startswith("error: ")
        assert sorted(out.iterdir()) == []  # no output, and no work
        assert not captured.out

    @pytest.mark.parametrize(
        "flags",
        [["--paired"], ["--workers", "2"], ["--run-dir", "RUN"]],
        ids=["paired", "workers", "run-dir"],
    )
    def test_log_json_refused_where_it_prints_nothing(
        self, flags, bad_inputs, tmp_path, capsys
    ):
        flags = [str(tmp_path / "run") if f == "RUN" else f for f in flags]
        code = main(["align", "--reference", bad_inputs["ref"],
                     "--reads", bad_inputs["reads"], "--log-json",
                     "--out", str(tmp_path / "x.sam"), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("error: --log-json ")
        assert sorted(tmp_path.iterdir()) == []

    def test_failed_snapshot_export_exits_1(
        self, bad_inputs, tmp_path, capsys
    ):
        out = tmp_path / "x.sam"
        code = main(["align", "--reference", bad_inputs["ref"],
                     "--reads", bad_inputs["reads"], "--out", str(out),
                     "--metrics-out", str(tmp_path)])  # a directory
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(
            "error: cannot write snapshot: "
        )
        assert out.exists()  # the run finished; only the export failed

    def test_smem_seeding_aligns_a_short_reference(
        self, bad_inputs, tmp_path
    ):
        assert main(["align", "--reference", bad_inputs["short_fa"],
                     "--reads", bad_inputs["reads"], "--seeding", "smem",
                     "--out", str(tmp_path / "x.sam")]) == 0


# -- the CLI surface and the run identity, pinned as literals -----------

OPTIONS = {
    ('simulate', '--metrics-out'):
        ('metrics_out', None, None, None, False, 'store'),
    ('simulate', '--trace-out'):
        ('trace_out', None, None, None, False, 'store'),
    ('simulate', '--length'): ('length', 50000, None, 'int', False, 'store'),
    ('simulate', '--reads'): ('reads', 100, None, 'int', False, 'store'),
    ('simulate', '--profile'):
        ('profile', 'platinum', ('clean', 'platinum'), None, False, 'store'),
    ('simulate', '--seed'): ('seed', 0, None, 'int', False, 'store'),
    ('simulate', '--out-reference'):
        ('out_reference', None, None, None, True, 'store'),
    ('simulate', '--out-reads'):
        ('out_reads', None, None, None, True, 'store'),
    ('simulate', '--paired'):
        ('paired', False, None, None, False, 'store_true'),
    ('simulate', '--no-truth'):
        ('no_truth', False, None, None, False, 'store_true'),
    ('simulate', '--long'): ('long', False, None, None, False, 'store_true'),
    ('simulate', '--long-length'):
        ('long_length', 1500, None, 'int', False, 'store'),
    ('simulate', '--length-sd'):
        ('length_sd', 0.0, None, 'float', False, 'store'),
    ('align', '--metrics-out'):
        ('metrics_out', None, None, None, False, 'store'),
    ('align', '--trace-out'): ('trace_out', None, None, None, False, 'store'),
    ('align', '--chaos'): ('chaos', False, None, None, False, 'store_true'),
    ('align', '--fault-rate'):
        ('fault_rate', 0.01, None, 'float', False, 'store'),
    ('align', '--fault-seed'): ('fault_seed', 0, None, 'int', False, 'store'),
    ('align', '--max-retries'):
        ('max_retries', 3, None, 'int', False, 'store'),
    ('align', '--timeout'): ('timeout', 0.25, None, 'float', False, 'store'),
    ('align', '--breaker-threshold'):
        ('breaker_threshold', None, None, 'int', False, 'store'),
    ('align', '--breaker-probe-interval'):
        ('breaker_probe_interval', 32, None, 'int', False, 'store'),
    ('align', '--kernel'):
        ('kernel', None, ('numpy', 'scalar', 'striped'), None, False, 'store'),
    ('align', '--index'): ('index', None, None, None, False, 'store'),
    ('align', '--rebuild-index'):
        ('rebuild_index', False, None, None, False, 'store_true'),
    ('align', '--reference'): ('reference', None, None, None, True, 'store'),
    ('align', '--reads'): ('reads', None, None, None, True, 'store'),
    ('align', '--out'): ('out', None, None, None, True, 'store'),
    ('align', '--engine'):
        ('engine', 'seedex', ('full', 'batched', 'banded', 'seedex'), None,
         False, 'store'),
    ('align', '--band'): ('band', 41, None, 'int', False, 'store'),
    ('align', '--seeding'):
        ('seeding', 'kmer', ('smem', 'kmer'), None, False, 'store'),
    ('align', '--batch-size'):
        ('batch_size', 4096, None, 'int', False, 'store'),
    ('align', '--workers'): ('workers', 1, None, 'int', False, 'store'),
    ('align', '--paired'): ('paired', False, None, None, False, 'store_true'),
    ('align', '--on-bad-record'):
        ('on_bad_record', 'fail', ('fail', 'quarantine'), None, False,
         'store'),
    ('align', '--run-dir'): ('run_dir', None, None, None, False, 'store'),
    ('align', '--resume'): ('resume', False, None, None, False, 'store_true'),
    ('align', '--max-restarts'):
        ('max_restarts', 8, None, 'int', False, 'store'),
    ('align', '--hung-timeout'):
        ('hung_timeout', 30.0, None, 'float', False, 'store'),
    ('align', '--start-method'):
        ('start_method', None, ('fork', 'spawn'), None, False, 'store'),
    ('align', '--truth'): ('truth', None, None, None, False, 'store'),
    ('align', '--scorecard-out'):
        ('scorecard_out', None, None, None, False, 'store'),
    ('align', '--truth-tolerance'):
        ('truth_tolerance', 20, None, 'int', False, 'store'),
    ('align', '--log-json'):
        ('log_json', False, None, None, False, 'store_true'),
    ('longread', '--metrics-out'):
        ('metrics_out', None, None, None, False, 'store'),
    ('longread', '--trace-out'):
        ('trace_out', None, None, None, False, 'store'),
    ('longread', '--kernel'):
        ('kernel', None, ('numpy', 'scalar', 'striped'), None, False, 'store'),
    ('longread', '--reference'):
        ('reference', None, None, None, True, 'store'),
    ('longread', '--reads'): ('reads', None, None, None, True, 'store'),
    ('longread', '--out'): ('out', None, None, None, True, 'store'),
    ('longread', '--engine'):
        ('engine', 'batched', ('scalar', 'batched'), None, False, 'store'),
    ('longread', '--fill-band'):
        ('fill_band', 16, None, 'int', False, 'store'),
    ('longread', '--batch-size'):
        ('batch_size', 512, None, 'int', False, 'store'),
    ('longread', '--workers'): ('workers', 1, None, 'int', False, 'store'),
    ('longread', '--start-method'):
        ('start_method', None, ('fork', 'spawn'), None, False, 'store'),
    ('longread', '--truth'): ('truth', None, None, None, False, 'store'),
    ('longread', '--scorecard-out'):
        ('scorecard_out', None, None, None, False, 'store'),
    ('longread', '--truth-tolerance'):
        ('truth_tolerance', 50, None, 'int', False, 'store'),
    ('overlap', '--metrics-out'):
        ('metrics_out', None, None, None, False, 'store'),
    ('overlap', '--trace-out'):
        ('trace_out', None, None, None, False, 'store'),
    ('overlap', '--kernel'):
        ('kernel', None, ('numpy', 'scalar', 'striped'), None, False, 'store'),
    ('overlap', '--reads'): ('reads', None, None, None, True, 'store'),
    ('overlap', '--out'): ('out', None, None, None, True, 'store'),
    ('overlap', '--k'): ('k', 15, None, 'int', False, 'store'),
    ('overlap', '--min-shared'):
        ('min_shared', 3, None, 'int', False, 'store'),
    ('overlap', '--min-overlap'):
        ('min_overlap', 50, None, 'int', False, 'store'),
    ('overlap', '--accept'): ('accept', 0.5, None, 'float', False, 'store'),
    ('overlap', '--band'): ('band', 31, None, 'int', False, 'store'),
    ('overlap', '--batch-size'):
        ('batch_size', 512, None, 'int', False, 'store'),
    ('score', '--metrics-out'):
        ('metrics_out', None, None, None, False, 'store'),
    ('score', '--trace-out'): ('trace_out', None, None, None, False, 'store'),
    ('score', '--sam'): ('sam', None, None, None, True, 'store'),
    ('score', '--truth'): ('truth', None, None, None, True, 'store'),
    ('score', '--tolerance'): ('tolerance', 20, None, 'int', False, 'store'),
    ('score', '--out'): ('out', None, None, None, False, 'store'),
    ('analyze', '--metrics-out'):
        ('metrics_out', None, None, None, False, 'store'),
    ('analyze', '--trace-out'):
        ('trace_out', None, None, None, False, 'store'),
    ('analyze', '--chaos'): ('chaos', False, None, None, False, 'store_true'),
    ('analyze', '--fault-rate'):
        ('fault_rate', 0.01, None, 'float', False, 'store'),
    ('analyze', '--fault-seed'):
        ('fault_seed', 0, None, 'int', False, 'store'),
    ('analyze', '--max-retries'):
        ('max_retries', 3, None, 'int', False, 'store'),
    ('analyze', '--timeout'): ('timeout', 0.25, None, 'float', False, 'store'),
    ('analyze', '--breaker-threshold'):
        ('breaker_threshold', None, None, 'int', False, 'store'),
    ('analyze', '--breaker-probe-interval'):
        ('breaker_probe_interval', 32, None, 'int', False, 'store'),
    ('analyze', '--kernel'):
        ('kernel', None, ('numpy', 'scalar', 'striped'), None, False, 'store'),
    ('analyze', '--reference'): ('reference', None, None, None, True, 'store'),
    ('analyze', '--reads'): ('reads', None, None, None, True, 'store'),
    ('analyze', '--band'): ('band', 41, None, 'int', False, 'store'),
    ('analyze', '--seeding'):
        ('seeding', 'kmer', ('smem', 'kmer'), None, False, 'store'),
    ('stats', '--metrics-out'):
        ('metrics_out', None, None, None, False, 'store'),
    ('stats', '--trace-out'): ('trace_out', None, None, None, False, 'store'),
    ('stats', 'metrics_file'):
        ('metrics_file', None, None, None, True, 'store'),
    ('serve', '--metrics-out'):
        ('metrics_out', None, None, None, False, 'store'),
    ('serve', '--trace-out'): ('trace_out', None, None, None, False, 'store'),
    ('serve', '--kernel'):
        ('kernel', None, ('numpy', 'scalar', 'striped'), None, False, 'store'),
    ('serve', '--index'): ('index', None, None, None, False, 'store'),
    ('serve', '--rebuild-index'):
        ('rebuild_index', False, None, None, False, 'store_true'),
    ('serve', '--reference'): ('reference', None, None, None, True, 'store'),
    ('serve', '--host'): ('host', '127.0.0.1', None, None, False, 'store'),
    ('serve', '--port'): ('port', 0, None, 'int', False, 'store'),
    ('serve', '--port-file'): ('port_file', None, None, None, False, 'store'),
    ('serve', '--seeding'):
        ('seeding', 'smem', ('smem', 'kmer'), None, False, 'store'),
    ('serve', '--queue-capacity'):
        ('queue_capacity', 256, None, 'int', False, 'store'),
    ('serve', '--max-batch'): ('max_batch', 64, None, 'int', False, 'store'),
    ('serve', '--linger-ms'):
        ('linger_ms', 20.0, None, 'float', False, 'store'),
    ('serve', '--default-deadline-ms'):
        ('default_deadline_ms', None, None, 'int', False, 'store'),
    ('serve', '--quota-rate'):
        ('quota_rate', None, None, 'float', False, 'store'),
    ('serve', '--quota-burst'):
        ('quota_burst', None, None, 'float', False, 'store'),
    ('serve', '--wal-dir'): ('wal_dir', None, None, None, False, 'store'),
    ('serve', '--breaker-threshold'):
        ('breaker_threshold', 5, None, 'int', False, 'store'),
    ('serve', '--breaker-probe-interval'):
        ('breaker_probe_interval', 32, None, 'int', False, 'store'),
    ('serve', '--net-disconnect-rate'):
        ('net_disconnect_rate', 0.0, None, 'float', False, 'store'),
    ('serve', '--net-stall-rate'):
        ('net_stall_rate', 0.0, None, 'float', False, 'store'),
    ('serve', '--net-fault-seed'):
        ('net_fault_seed', 0, None, 'int', False, 'store'),
    ('index', '--metrics-out'):
        ('metrics_out', None, None, None, False, 'store'),
    ('index', '--trace-out'): ('trace_out', None, None, None, False, 'store'),
    ('index build', '--reference'):
        ('reference', None, None, None, True, 'store'),
    ('index build', '--out'): ('out', None, None, None, True, 'store'),
    ('index build', '--min-seed-length'):
        ('min_seed_length', 19, None, 'int', False, 'store'),
    ('index build', '--sa-sample-rate'):
        ('sa_sample_rate', 8, None, 'int', False, 'store'),
    ('index verify', '--index'): ('index', None, None, None, True, 'store'),
    ('index info', '--index'): ('index', None, None, None, True, 'store'),
    ('index info', '--json'): ('json', False, None, None, False, 'store_true'),
    ('client', '--host'): ('host', '127.0.0.1', None, None, False, 'store'),
    ('client', '--port'): ('port', None, None, 'int', False, 'store'),
    ('client', '--port-file'): ('port_file', None, None, None, False, 'store'),
    ('client', '--reads'): ('reads', None, None, None, False, 'store'),
    ('client', '--connections'):
        ('connections', 1, None, 'int', False, 'store'),
    ('client', '--client-id'): ('client_id', '', None, None, False, 'store'),
    ('client', '--deadline-ms'):
        ('deadline_ms', None, None, 'int', False, 'store'),
    ('client', '--repeat'): ('repeat', 1, None, 'int', False, 'store'),
    ('client', '--out'): ('out', None, None, None, False, 'store'),
    ('client', '--json'): ('json', False, None, None, False, 'store_true'),
    ('client', '--status'): ('status', False, None, None, False, 'store_true'),
}
"""Every subcommand's options, ``index build|verify|info`` included:
``(command, flags) -> (dest, default, choices, type, required,
action)``.  Defaults that differ by command (``--batch-size``,
``--seeding``, ``--band``, ``--truth-tolerance``,
``--breaker-threshold``) are read off the built parser, so an option
group shared by several commands cannot move one command's default."""

_ACTIONS = {"_StoreAction": "store", "_StoreTrueAction": "store_true"}


def _option_table() -> dict:
    import argparse

    from repro.cli import build_parser

    def commands(parser, prefix=()):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    yield " ".join(prefix + (name,)), sub
                    yield from commands(sub, prefix + (name,))

    table = {}
    for command, sub in commands(build_parser()):
        for action in sub._actions:
            if isinstance(
                action, (argparse._HelpAction, argparse._SubParsersAction)
            ):
                continue
            key = (command, " ".join(action.option_strings) or action.dest)
            table[key] = (
                action.dest,
                action.default,
                None if action.choices is None else tuple(action.choices),
                None if action.type is None else action.type.__name__,
                action.required,
                _ACTIONS[type(action).__name__],
            )
    return table


def test_every_option_of_every_command_is_pinned():
    assert _option_table() == OPTIONS


FIXTURES = Path(__file__).parent / "fixtures"
SHORT = ["--reference", str(FIXTURES / "golden_ref.fa"),
         "--reads", str(FIXTURES / "golden_reads.fq")]
LONG = ["--reference", str(FIXTURES / "longread_ref.fa"),
        "--reads", str(FIXTURES / "longread_reads.fq")]
PG = "@PG\tID:repro-seedex\tPN:repro-seedex\tDS:kernel="
INDEX = ",index=67527f53,schema=1"
FINGERPRINT = {
    "version": 2,
    "reference_sha256": "2cfe5a0f757288df8fea76a01404c83297f99ad078a2c5437"
    "5136c195d6e192d",
    "reads_sha256": "6ce6ccf955656c5e8d592a2e2c8677dcee49a3718075fe4ac79bc"
    "33e1f52a3b4",
    "engine": {
        "kind": "seedex", "band": 41, "kernel": "scalar", "chaos": False,
        "fault_rate": 0.01, "fault_seed": 0, "max_retries": 3,
        "timeout_s": 0.25, "breaker_threshold": None,
        "breaker_probe_interval": 32,
    },
    "batch_size": 8,
    "seeding": "kmer",
    "on_bad_record": "fail",
    "index": None,
}
"""The journal fingerprint of ``align --run-dir --batch-size 8`` on the
golden corpus; the cases below change it field by field."""


class TestRunIdentity:
    """A SAM's ``@PG`` line and a run directory's journal fingerprint
    name the configuration that made them, byte for byte."""

    @pytest.fixture(scope="class")
    def index(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("identity") / "golden.idx"
        argv = ["index", "build", "--out", str(path), *SHORT[:2]]
        assert main(argv) == 0
        return str(path)

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["align", *SHORT], PG + "scalar"),
            (["align", *SHORT, "--index", "IDX"], PG + "scalar" + INDEX),
            (["align", *SHORT, "--index", "IDX", "--seeding", "kmer",
              "--kernel", "striped", "--workers", "2"],
             PG + "striped" + INDEX),
            (["align", *SHORT, "--paired", "--kernel", "numpy"],
             PG + "numpy"),
            (["longread", *LONG], PG + "scalar"),
            (["longread", *LONG, "--engine", "scalar", "--kernel",
              "striped", "--workers", "2"], PG + "striped"),
        ],
        ids=["align", "align-index", "align-index-workers", "paired",
             "longread", "longread-scalar-workers"],
    )
    def test_program_line(self, argv, want, index, tmp_path):
        out = tmp_path / "out.sam"
        argv = [index if a == "IDX" else a for a in argv]
        assert main([*argv, "--out", str(out)]) == 0
        [pg] = [
            line for line in out.read_text().splitlines()
            if line.startswith("@PG")
        ]
        assert pg == want

    @pytest.mark.parametrize(
        "flags, changes",
        [
            ([], {}),
            (["--engine", "full", "--band", "9", "--seeding", "smem",
              "--batch-size", "4096"],
             {"engine": {"kind": "full", "band": None},
              "seeding": "smem", "batch_size": 4096}),
            (["--engine", "banded", "--band", "9", "--chaos",
              "--fault-rate", "0.05", "--fault-seed", "3",
              "--max-retries", "2", "--timeout", "0.5",
              "--breaker-threshold", "4", "--breaker-probe-interval", "7",
              "--index", "IDX", "--kernel", "striped",
              "--on-bad-record", "quarantine", "--workers", "2"],
             {"engine": {"kind": "banded", "band": 9, "kernel": "striped",
                         "chaos": True, "fault_rate": 0.05,
                         "fault_seed": 3, "max_retries": 2,
                         "timeout_s": 0.5, "breaker_threshold": 4,
                         "breaker_probe_interval": 7},
              "index": "67527f53", "on_bad_record": "quarantine"}),
        ],
        ids=["default", "full-band-smem", "every-knob"],
    )
    def test_journal_fingerprint(self, flags, changes, index, tmp_path):
        run_dir = tmp_path / "run"
        flags = [index if a == "IDX" else a for a in flags]
        argv = ["align", *SHORT, "--out", str(tmp_path / "out.sam"),
                "--run-dir", str(run_dir), "--batch-size", "8", *flags]
        assert main(argv) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        want = {**FINGERPRINT, **changes}
        want["engine"] = {
            **FINGERPRINT["engine"], **changes.get("engine", {})
        }
        assert manifest["payload"]["fingerprint"] == want
