"""Tests for the discrete-event FPGA protocol simulation."""

import pytest

from repro.hw import timing
from repro.system.batching import BatchingConfig, simulate_batching
from repro.system.events import simulate_timeline, threads_to_saturate


class TestProtocol:
    def test_event_ordering_per_batch(self):
        report = simulate_timeline(n_batches=5, fpga_threads=1)
        by_batch = {}
        for ev in report.events:
            by_batch.setdefault(ev.batch, []).append(ev)
        for batch, evs in by_batch.items():
            kinds = [e.kind for e in sorted(evs, key=lambda e: e.time)]
            assert kinds == [
                "dma_in_start",
                "batch_start",
                "batch_done",
                "results_read",
            ]

    def test_all_batches_finish(self):
        report = simulate_timeline(n_batches=17, fpga_threads=3)
        assert report.finished_batches == 17

    def test_lock_serializes_compute(self):
        """batch_start events never overlap a running computation."""
        report = simulate_timeline(n_batches=12, fpga_threads=4)
        starts = sorted(
            e.time for e in report.events if e.kind == "batch_start"
        )
        compute = report.fpga_busy / report.finished_batches
        for a, b in zip(starts, starts[1:]):
            assert b >= a + compute - 1e-12

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            simulate_timeline(n_batches=0)
        with pytest.raises(ValueError):
            simulate_timeline(fpga_threads=0)


class TestInterleaving:
    def test_two_threads_hide_transfers(self):
        one = simulate_timeline(n_batches=40, fpga_threads=1)
        two = simulate_timeline(n_batches=40, fpga_threads=2)
        assert two.fpga_utilization > one.fpga_utilization
        assert two.makespan < one.makespan

    def test_few_threads_saturate_the_device(self):
        """The paper drives the FPGA with a small share of threads."""
        k = threads_to_saturate()
        assert 1 <= k <= 4

    def test_utilization_bounded(self):
        report = simulate_timeline(n_batches=30, fpga_threads=3)
        assert 0 < report.fpga_utilization <= 1.0 + 1e-9


class TestCrossValidation:
    def test_agrees_with_steady_state_model_on_fpga_side(self):
        """With an unconstrained producer, the event sim's throughput
        approaches the device rate — the steady-state model's
        fpga-compute ceiling."""
        report = simulate_timeline(
            n_batches=80, batch_size=4096, fpga_threads=3
        )
        assert report.throughput_ext_per_s == pytest.approx(
            timing.fpga_throughput(), rel=0.10
        )

    def test_slow_producer_bottlenecks_both_models(self):
        rate = 1e6  # seeding-limited
        report = simulate_timeline(
            n_batches=40, fpga_threads=2, producer_ext_per_s=rate
        )
        assert report.throughput_ext_per_s == pytest.approx(rate, rel=0.10)
        steady = simulate_batching(BatchingConfig(total_threads=8,
                                                  fpga_threads=2))
        # Steady-state also says seeding is the bottleneck.
        assert steady.bottleneck == "seeding"

    def test_lock_wait_grows_with_thread_count(self):
        lo = simulate_timeline(n_batches=40, fpga_threads=2)
        hi = simulate_timeline(n_batches=40, fpga_threads=6)
        assert hi.mean_lock_wait >= lo.mean_lock_wait