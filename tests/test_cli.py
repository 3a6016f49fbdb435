"""End-to-end tests of the command-line interface."""

import json

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

    def test_missing_reference_errors(self, workload, tmp_path):
        root, _, reads = workload
        empty = tmp_path / "empty.fasta"
        empty.write_text("")
        with pytest.raises(SystemExit):
            main(
                ["align", "--reference", str(empty), "--reads", reads,
                 "--out", str(tmp_path / "x.sam")]
            )


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

    def test_paired_odd_count_rejected(self, tmp_path, workload):
        _, ref, reads = workload
        with pytest.raises(SystemExit):
            main(
                ["align", "--reference", ref, "--reads", reads,
                 "--out", str(tmp_path / "x.sam"), "--paired"]
            )


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
        self, workload, tmp_path
    ):
        _, ref, reads = workload
        out = str(tmp_path / "out.sam")
        argv = ["align", "--reference", ref, "--reads", reads,
                "--out", out, "--batch-size", "8",
                "--run-dir", str(tmp_path / "run")]
        assert main(argv) == 0
        with pytest.raises(SystemExit, match="already holds"):
            main(argv)

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

    def test_resume_without_run_dir_rejected(self, workload, tmp_path):
        _, ref, reads = workload
        with pytest.raises(SystemExit, match="--resume needs"):
            main(["align", "--reference", ref, "--reads", reads,
                  "--out", str(tmp_path / "x.sam"), "--resume"])


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

    def test_fail_policy_aborts(self, tmp_path):
        ref, reads = self._workload(tmp_path)
        with pytest.raises(SystemExit, match="on-bad-record"):
            main(["align", "--reference", ref, "--reads", reads,
                  "--out", str(tmp_path / "x.sam")])

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

    def test_long_and_paired_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["simulate", "--length", "15000", "--reads", "4",
                 "--long", "--paired",
                 "--out-reference", str(tmp_path / "r.fa"),
                 "--out-reads", str(tmp_path / "r.fq")]
            )


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
            ([*SERVE, "--high-water", "0"], "at least 1"),
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
