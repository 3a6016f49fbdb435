"""Scorecard grading: outcome classes, bins, publication, JSON."""

from __future__ import annotations

import json

import pytest

from repro.genome.sam import FLAG_REVERSE, FLAG_SECONDARY, FLAG_UNMAPPED, SamRecord
from repro.obs import names
from repro.obs.metrics import MetricsRegistry
from repro.scorecard.score import (
    SCORECARD_SCHEMA,
    band_bucket,
    mapq_bin,
    score_records,
    score_sam,
)
from repro.scorecard.truth import TruthRecord


def _mapped(qname, pos, mapq=60, flag=0, tags=()):
    return SamRecord(
        qname=qname,
        flag=flag,
        rname="chr1",
        pos=pos,
        mapq=mapq,
        cigar="101M",
        seq="A" * 101,
        tags=tuple(tags),
    )


def _unmapped(qname, tags=()):
    return SamRecord.unmapped(qname, "A" * 101, tags=tuple(tags))


def _truth(**rows):
    return {
        name: TruthRecord(name, pos, reverse=rev, substitutions=s, insertions=i, deletions=d)
        for name, (pos, rev, s, i, d) in rows.items()
    }


class TestOutcomes:
    def test_each_class_counted_once(self):
        truth = _truth(
            ok=(1000, False, 0, 0, 0),
            off=(1000, False, 0, 0, 0),
            flip=(1000, True, 0, 0, 0),
            lost=(1000, False, 0, 0, 0),
            worn=(1000, False, 0, 0, 0),
            poison=(1000, False, 0, 0, 0),
        )
        records = [
            _mapped("ok", 1010),
            _mapped("off", 2000),
            _mapped("flip", 1000),
            _unmapped("lost"),
            _unmapped("worn", tags=("XF:Z:degraded_extension",)),
            _unmapped("poison", tags=("XF:Z:quarantined",)),
        ]
        card = score_records(records, truth)
        assert card.outcomes == {
            "correct": 1,
            "wrong_locus": 1,
            "wrong_strand": 1,
            "unmapped": 1,
            "degraded": 1,
            "quarantined": 1,
        }
        assert card.total == 6
        assert card.correct_locus_rate == pytest.approx(1 / 6)

    def test_window_widens_by_indel_span(self):
        truth = _truth(r=(1000, False, 0, 10, 5))
        # 20 base tolerance + 15 indel span = 35
        assert score_records([_mapped("r", 1035)], truth).outcomes[
            "correct"
        ] == 1
        assert score_records([_mapped("r", 1036)], truth).outcomes[
            "wrong_locus"
        ] == 1

    def test_unknown_indel_span_gets_no_allowance(self):
        truth = {"r": TruthRecord("r", 1000, reverse=False)}
        card = score_records([_mapped("r", 1021)], truth)
        assert card.outcomes["wrong_locus"] == 1
        assert card.band == {"unknown": {"correct": 0, "total": 1}}

    def test_reverse_strand_correct(self):
        truth = _truth(r=(500, True, 0, 0, 0))
        card = score_records(
            [_mapped("r", 500, flag=FLAG_REVERSE)], truth
        )
        assert card.outcomes["correct"] == 1

    def test_missing_truth_excluded_from_rate(self):
        truth = _truth(known=(100, False, 0, 0, 0))
        card = score_records(
            [_mapped("known", 100), _mapped("stranger", 5)], truth
        )
        assert card.total == 1
        assert card.missing_truth == 1
        assert card.correct_locus_rate == 1.0

    def test_truth_unseen_counted(self):
        truth = _truth(
            seen=(100, False, 0, 0, 0), ghost=(200, False, 0, 0, 0)
        )
        card = score_records([_mapped("seen", 100)], truth)
        assert card.truth_unseen == 1

    def test_secondary_records_skipped(self):
        truth = _truth(r=(100, False, 0, 0, 0))
        card = score_records(
            [
                _mapped("r", 100),
                _mapped("r", 5000, flag=FLAG_SECONDARY),
            ],
            truth,
        )
        assert card.total == 1
        assert card.outcomes["correct"] == 1

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            score_records([], {}, tolerance=-1)

    def test_empty_run_rates_are_zero(self):
        card = score_records([], {})
        assert card.correct_locus_rate == 0.0
        assert card.unmapped_fraction == 0.0


class TestBins:
    @pytest.mark.parametrize(
        "mapq,label",
        [(0, "0"), (1, "1-9"), (9, "1-9"), (10, "10-19"), (37, "30-39"),
         (59, "50-59"), (60, "60"), (255, "60")],
    )
    def test_mapq_bins(self, mapq, label):
        assert mapq_bin(mapq) == label

    @pytest.mark.parametrize(
        "span,label",
        [(None, "unknown"), (0, "0"), (1, "1-2"), (2, "1-2"), (3, "3-5"),
         (10, "6-10"), (20, "11-20"), (21, "21+"), (500, "21+")],
    )
    def test_band_buckets(self, span, label):
        assert band_bucket(span) == label

    def test_mapq_calibration_tracks_correct_and_wrong(self):
        truth = _truth(
            a=(100, False, 0, 0, 0), b=(100, False, 0, 0, 0)
        )
        card = score_records(
            [_mapped("a", 100, mapq=60), _mapped("b", 9000, mapq=60)],
            truth,
        )
        assert card.mapq == {"60": {"correct": 1, "wrong": 1}}

    def test_unmapped_reads_stay_out_of_mapq_bins(self):
        truth = _truth(r=(100, False, 0, 0, 0))
        card = score_records([_unmapped("r")], truth)
        assert card.mapq == {}
        assert card.band["0"]["total"] == 1


class TestSerialization:
    def test_json_payload_schema(self, tmp_path):
        truth = _truth(r=(100, False, 1, 0, 0))
        card = score_records([_mapped("r", 100)], truth)
        out = tmp_path / "scorecard.json"
        card.write_json(out)
        payload = json.loads(out.read_text())
        assert payload["schema"] == SCORECARD_SCHEMA
        assert payload["rates"]["correct_locus"] == 1.0
        assert payload["outcomes"]["correct"] == 1
        assert payload["mapq"]["60"] == {"correct": 1, "wrong": 0}

    def test_score_sam_parses_headers_and_records(self, tmp_path):
        sam = tmp_path / "r.sam"
        sam.write_text(
            "@HD\tVN:1.6\tSO:unsorted\n"
            "@SQ\tSN:chr1\tLN:20000\n"
            "r\t0\tchr1\t101\t60\t101M\t*\t0\t0\t" + "A" * 101 + "\t*\n"
        )
        truth = _truth(r=(100, False, 0, 0, 0))
        card = score_sam(sam, truth)
        assert card.outcomes["correct"] == 1

    def test_summary_is_one_line(self):
        card = score_records([], {})
        assert "\n" not in card.summary()


class TestPublish:
    def test_registry_names_and_values(self):
        truth = _truth(
            a=(100, False, 0, 0, 0), b=(100, False, 0, 0, 0)
        )
        card = score_records(
            [_mapped("a", 100), _unmapped("b")], truth
        )
        registry = MetricsRegistry()
        card.publish(registry)
        snap = registry.snapshot()
        assert snap["counters"][names.SCORE_READS_TOTAL] == 2
        assert (
            snap["counters"]["score.reads.outcome{outcome=correct}"]
            == 1
        )
        assert (
            snap["counters"]["score.reads.outcome{outcome=unmapped}"]
            == 1
        )
        assert snap["gauges"][names.SCORE_CORRECT_LOCUS_RATE] == 0.5
        assert snap["gauges"][names.SCORE_TOLERANCE] == 20.0
        assert (
            snap["counters"][
                "score.band.reads{bucket=0,outcome=correct}"
            ]
            == 1
        )
