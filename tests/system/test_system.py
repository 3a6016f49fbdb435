"""Tests for the host/FPGA system models and Figure 17's calibration."""

import numpy as np
import pytest

from repro.genome.synth import extension_corpus
from repro.system.batching import (
    BatchingConfig,
    best_thread_split,
    simulate_batching,
)
from repro.system.fpga import BatchTransfer, F1Instance
from repro.system.host import time_software_kernel
from repro.system.scheduler import (
    bwa_mem2_breakdown,
    bwa_mem_breakdown,
    figure17_table,
    model_configuration,
)


class TestFpgaModel:
    def test_instance_constants(self):
        inst = F1Instance()
        assert inst.vcpus == 8
        assert inst.memory_channels == 4

    def test_transfer_scales_with_jobs(self):
        inst = F1Instance()
        small = BatchTransfer(100).transfer_seconds(inst)
        big = BatchTransfer(100_000).transfer_seconds(inst)
        assert big > small


class TestHostModel:
    def test_kernel_timing_runs(self):
        rng = np.random.default_rng(0)
        jobs = extension_corpus(
            10, rng, query_length=50, reference_length=20_000
        )
        narrow = time_software_kernel(jobs, band=5)
        assert narrow.seconds_per_extension > 0

    def test_kernel_timing_rejects_empty(self):
        with pytest.raises(ValueError):
            time_software_kernel([], band=5)


class TestScheduler:
    def test_breakdowns_are_normalized(self):
        for b in (bwa_mem_breakdown(), bwa_mem2_breakdown()):
            assert b.total == pytest.approx(1.0)
            assert b.seeding > 0 and b.extension > 0 and b.other > 0

    def test_seeding_plus_extension_dominate(self):
        """Paper: seeding + extension take > 85% of baseline time."""
        b = bwa_mem_breakdown()
        assert b.seeding + b.extension > 0.7

    def test_model_reproduces_published_speedups(self):
        for row, reported in figure17_table():
            if reported is None:
                continue
            baseline = model_configuration(
                bwa_mem_breakdown()
                if row.aligner == "BWA-MEM"
                else bwa_mem2_breakdown(),
                "baseline",
            )
            speedup = row.speedup_over(baseline)
            assert speedup == pytest.approx(reported, rel=0.10)

    def test_unknown_configuration_rejected(self):
        with pytest.raises(ValueError):
            model_configuration(bwa_mem_breakdown(), "gpu-only")


class TestBatching:
    def test_seeding_is_the_bottleneck(self):
        """Paper Section VII-B: software seeding bottlenecks the system
        when only extension is accelerated."""
        report = simulate_batching(BatchingConfig())
        assert report.bottleneck == "seeding"
        assert report.throughput_ext_per_s < report.fpga_ext_per_s

    def test_best_split_gives_most_threads_to_seeding(self):
        cfg, _ = best_thread_split(total_threads=8)
        assert cfg.seeding_threads >= 6

    def test_more_seeding_threads_raise_throughput(self):
        lo = simulate_batching(
            BatchingConfig(total_threads=8, fpga_threads=4)
        )
        hi = simulate_batching(
            BatchingConfig(total_threads=8, fpga_threads=1)
        )
        assert hi.throughput_ext_per_s >= lo.throughput_ext_per_s

    def test_fpga_utilization_bounded(self):
        report = simulate_batching()
        assert 0 <= report.fpga_utilization <= 1

