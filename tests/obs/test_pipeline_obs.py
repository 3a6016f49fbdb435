"""Integration: instrumentation observes but never perturbs.

The contract of the obs layer is that turning it on changes *nothing*
about the computation — SAM output must stay bit-identical — while
the expected spans and counters appear in the global collectors.
Also covers the registry-backed :class:`ExtenderStats` façade.
"""

import numpy as np
import pytest

from repro import SeedExtender, obs
from repro.align.scoring import BWA_MEM_SCORING
from repro.aligner.engines import make_engine
from repro.aligner.pipeline import Aligner
from repro.core.checker import CheckOutcome
from repro.core.extender import ExtenderStats
from repro.genome.synth import (
    PLATINUM_LIKE,
    ReadSimulator,
    synthesize_reference,
)
from repro.obs import names
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(42)
    reference = synthesize_reference(20_000, rng)
    sim = ReadSimulator(reference, PLATINUM_LIKE, seed=7)
    return reference, sim.simulate(15)


def _sam_lines(reference, reads, band=9):
    aligner = Aligner(reference, make_engine("seedex", band), seeding="kmer")
    return [str(aligner.align_read(r.codes, r.name)) for r in reads]


class TestInstrumentedPipeline:
    def test_sam_identical_with_obs_on_and_off(self, workload):
        reference, reads = workload
        obs.disable()
        plain = _sam_lines(reference, reads)
        obs.enable()
        instrumented = _sam_lines(reference, reads)
        assert instrumented == plain

    def test_expected_spans_emitted(self, workload):
        reference, reads = workload
        obs.enable()
        _sam_lines(reference, reads)
        spans = {r.name for r in obs.get_tracer().records}
        expected = {
            names.SPAN_PIPELINE_WINDOW,
            names.SPAN_ALIGNER_SEED,
            names.SPAN_ALIGNER_CHAIN,
            names.SPAN_PIPELINE_WAVE,
            names.SPAN_ALIGNER_TRACEBACK,
            names.SPAN_EXTEND_NARROW,
            names.SPAN_EXTEND_CHECK,
            names.SPAN_CHECK_THRESHOLD,
        }
        assert expected <= spans

    def test_aligner_counters_in_global_registry(self, workload):
        reference, reads = workload
        obs.enable()
        _sam_lines(reference, reads)
        counters = obs.get_registry().snapshot()["counters"]
        assert counters[names.ALIGNER_READS_TOTAL] == len(reads)
        assert counters[names.ALIGNER_SEEDS_TOTAL] >= len(reads)
        key = names.ENGINE_EXTENSIONS + "{engine=seedex-w9}"
        assert counters[key] > 0

    def test_disabled_pipeline_leaves_collectors_empty(self, workload):
        reference, reads = workload
        obs.disable()
        obs.reset()
        _sam_lines(reference, reads)
        assert obs.get_tracer().records == []
        # reset() zeroes in place; disabled runs must not count.
        counters = obs.get_registry().snapshot()["counters"]
        assert all(value == 0 for value in counters.values())


class TestExtenderStatsRegistry:
    def test_zero_guards(self):
        stats = ExtenderStats()
        assert stats.passing_rate == 0.0
        assert stats.threshold_only_rate == 0.0
        assert stats.rerun_rate == 0.0

    def test_counts_match_registry(self):
        from repro.genome.sequence import encode

        reg = MetricsRegistry()
        ext = SeedExtender(band=9, registry=reg)
        ext.extend(encode("ACGTACGTAC"), encode("ACGTTCGTAC"), h0=10)
        counters = reg.snapshot()["counters"]
        assert counters[names.EXTENSIONS_TOTAL] == ext.stats.total == 1
        assert counters[names.CELLS_NARROW] > 0
        assert stats_outcome_total(counters) == 1
        assert ext.stats.by_outcome == {CheckOutcome.PASS_S2: 1}

    def test_reset_in_place(self):
        from repro.genome.sequence import encode

        reg = MetricsRegistry()
        ext = SeedExtender(band=9, registry=reg)
        ext.extend(encode("ACGTACGTAC"), encode("ACGTTCGTAC"), h0=10)
        stats = ext.stats
        stats.reset()
        assert ext.stats is stats  # same façade, zeroed in place
        assert stats.total == 0
        assert stats.by_outcome == {}
        counters = reg.snapshot()["counters"]
        assert counters[names.CELLS_NARROW] == 0
        assert counters[names.CELLS_RERUN] == 0

    def test_cells_histograms_recorded(self):
        from repro.genome.sequence import encode

        reg = MetricsRegistry()
        ext = SeedExtender(band=9, registry=reg)
        ext.extend(encode("ACGTACGTAC"), encode("ACGTTCGTAC"), h0=10)
        hists = reg.snapshot()["histograms"]
        key = names.CELLS_PER_EXTENSION + "{stage=narrow}"
        assert hists[key]["count"] == 1
        counters = reg.snapshot()["counters"]
        assert hists[key]["sum"] == counters[names.CELLS_NARROW]


def stats_outcome_total(counters: dict) -> int:
    """Sum the per-outcome check counters in a snapshot."""
    prefix = names.CHECK_OUTCOME + "{"
    return sum(
        count
        for key, count in counters.items()
        if key.startswith(prefix)
    )


class TestBucketPaddingCounters:
    """``kernel.bucket_*`` count the lockstep extension sweep that ran,
    whatever the backend: per bucket, the cells it sweeps (jobs x
    ``min(2w+1, qmax+1)`` x ``tmax``) minus its jobs' real cells."""

    @staticmethod
    def _wave(lens):
        rng = np.random.default_rng(11)
        queries = [rng.integers(0, 4, q).astype(np.uint8) for q, _ in lens]
        targets = [rng.integers(0, 4, t).astype(np.uint8) for _, t in lens]
        return queries, targets, [20] * len(lens)

    @pytest.mark.parametrize("kernel", ["scalar", "striped"])
    def test_one_bucket_by_hand(self, kernel):
        from repro.kernels import get_kernel

        queries, targets, h0s = self._wave([(6, 50), (53, 98), (20, 65)])
        obs.enable()
        get_kernel(kernel).extend_batch(
            queries, targets, h0s, BWA_MEM_SCORING
        )
        reg = obs.get_registry()
        # One bucket, 54 columns x 98 rows per job; real cells are
        # (qlen + 1) * tlen each.
        padded = 3 * 54 * 98
        real = 7 * 50 + 54 * 98 + 21 * 65
        assert reg.counter(names.KERNEL_BUCKET_TOTAL).value == 1
        assert reg.histogram(names.KERNEL_BUCKET_JOBS).count == 1
        assert reg.counter(names.KERNEL_BUCKET_PAD_CELLS).value == (
            padded - real
        )

    def test_split_wave_counts_every_bucket(self):
        from repro.align import lockstep

        lens = [(80, 125)] + [(q, q + 45) for q in range(1, 60)] * 4
        queries, targets, h0s = self._wave(lens)
        buckets = lockstep.plan_buckets(queries, targets, band=30)
        assert len(buckets) > 1
        obs.enable()
        results = lockstep.extend_batch(
            queries, targets, h0s, BWA_MEM_SCORING, w=30
        )
        padded = sum(
            len(b)
            * min(61, max(len(queries[k]) for k in b) + 1)
            * max(len(targets[k]) for k in b)
            for b in buckets
        )
        real = sum(r.cells_computed for r in results)
        reg = obs.get_registry()
        assert reg.counter(names.KERNEL_BUCKET_TOTAL).value == len(buckets)
        assert reg.histogram(names.KERNEL_BUCKET_JOBS).count == len(buckets)
        assert reg.counter(names.KERNEL_BUCKET_PAD_CELLS).value == (
            padded - real
        )


class TestSettledAndDispatcherAccounting:
    def test_settled_jobs_are_counted_beside_the_checked(self, workload):
        """``engine.settled`` counts the jobs the ungapped rule answers;
        the checks see the rest, so the two add up to the engine's
        extensions."""
        reference, reads = workload
        obs.enable()
        _sam_lines(reference, reads)
        counters = obs.get_registry().snapshot()["counters"]
        settled = counters[names.ENGINE_SETTLED + "{engine=seedex-w9}"]
        assert settled > 0
        assert counters[names.ENGINE_EXTENSIONS + "{engine=seedex-w9}"] == (
            settled + counters[names.EXTENSIONS_TOTAL]
        )

    def test_attempts_histogram_lives_in_the_process_wide_registry(self):
        """A fault-free dispatcher observes attempts only where a
        snapshot can read them: a private registry keeps no sketch."""
        from repro.aligner.engines import make_resilient

        rng = np.random.default_rng(4)
        jobs = [
            (rng.integers(0, 4, 20).astype(np.uint8),
             rng.integers(0, 4, 30).astype(np.uint8), 10)
            for _ in range(5)
        ]
        private = make_resilient(make_engine("full"))
        private.extend_wave(jobs)
        assert names.RESILIENCE_ATTEMPTS not in str(
            private.stats.registry.snapshot()
        )
        obs.enable()
        shared = make_resilient(
            make_engine("full"), registry=obs.get_registry()
        )
        shared.extend_wave(jobs)
        hists = obs.get_registry().snapshot()["histograms"]
        assert hists[names.RESILIENCE_ATTEMPTS]["count"] == len(jobs)
