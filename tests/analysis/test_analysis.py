"""Tests for band analysis, passing-rate sweeps, and reporting."""

import numpy as np
import pytest

from repro.align import banded
from repro.align.scoring import BWA_MEM_SCORING
from repro.analysis.band_analysis import (
    FIG2_BUCKET_LABELS,
    band_distribution,
    estimated_band,
    minimal_band,
)
from repro.analysis.passing import passing_point, passing_sweep
from repro.analysis.report import PaperComparison
from repro.core.checker import CheckConfig
from repro.genome.synth import ExtensionJob, extension_corpus
from repro.obs.table import format_table


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(42)
    return extension_corpus(
        80, rng, query_length=60, reference_length=80_000
    )


class TestEstimatedBand:
    def test_grows_with_query_length(self):
        assert estimated_band(101) > estimated_band(20)

    def test_is_conservative(self):
        # The estimate must never be below what any alignment needs.
        assert estimated_band(101) >= 90

    def test_capped_at_query_length(self):
        assert estimated_band(10) <= 10


class TestMinimalBand:
    def test_exact_match_needs_tiny_band(self):
        rng = np.random.default_rng(0)
        q = rng.integers(0, 4, size=50).astype(np.uint8)
        job = ExtensionJob(query=q, target=q.copy(), h0=20)
        assert minimal_band(job) <= 1

    def test_deletion_demands_its_size(self):
        rng = np.random.default_rng(1)
        q = rng.integers(0, 4, size=50).astype(np.uint8)
        t = np.concatenate(
            [q[:10], rng.integers(0, 4, size=15), q[10:]]
        ).astype(np.uint8)
        job = ExtensionJob(query=q, target=t, h0=40)
        w = minimal_band(job)
        assert w >= 10  # a 15-char deletion needs most of its span

    def test_band_is_minimal(self, corpus):
        for job in corpus[:10]:
            w = minimal_band(job)
            full = banded.extend(
                job.query, job.target, BWA_MEM_SCORING, job.h0
            )
            at_w = banded.extend(
                job.query, job.target, BWA_MEM_SCORING, job.h0, w=w
            )
            assert at_w.scores() == full.scores()
            if w > 1:
                below = banded.extend(
                    job.query,
                    job.target,
                    BWA_MEM_SCORING,
                    job.h0,
                    w=w - 1,
                )
                assert below.scores() != full.scores()


class TestBandDistribution:
    def test_fractions_sum_to_one(self, corpus):
        dist = band_distribution(corpus)
        assert sum(dist.estimated) == pytest.approx(1.0)
        assert sum(dist.used) == pytest.approx(1.0)
        assert dist.labels == FIG2_BUCKET_LABELS

    def test_figure2_shape(self, corpus):
        """Estimated bands are conservative; used bands are small."""
        dist = band_distribution(corpus)
        assert dist.estimated[-1] > 0.5  # most estimates land in >40
        assert dist.fraction_used_at_most(10) > 0.80

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            band_distribution([])


class TestPassingSweep:
    def test_rates_increase_with_band(self, corpus):
        points = passing_sweep(corpus, [5, 15, 30, 60])
        overall = [p.overall for p in points]
        assert overall == sorted(overall)

    def test_checks_beat_threshold_only(self, corpus):
        point = passing_point(corpus, band=15)
        assert point.overall >= point.threshold_only
        assert point.edit_check_boost == pytest.approx(
            point.overall - point.threshold_only
        )

    def test_outcome_counts_total(self, corpus):
        point = passing_point(corpus, band=15)
        assert sum(point.outcome_counts.values()) == len(corpus)

    def test_ablation_reduces_rate(self, corpus):
        full = passing_point(corpus, band=15)
        ablated = passing_point(
            corpus,
            band=15,
            config=CheckConfig(use_edit_check=False),
        )
        assert ablated.overall <= full.overall
        assert ablated.threshold_only == full.threshold_only


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(
            ("a", "metric"), [(1, 2.5), ("xx", 1234.0)]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) <= 2

    def test_paper_comparison_error(self):
        c = PaperComparison("speedup", paper=6.0, measured=5.7)
        assert c.relative_error == pytest.approx(0.05)
        assert c.row()[3] == "5.0%"

    def test_zero_paper_value(self):
        c = PaperComparison("diffs", paper=0.0, measured=0.0)
        assert c.relative_error == 0.0
