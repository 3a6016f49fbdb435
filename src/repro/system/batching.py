"""Producer-consumer batching model (paper Section V-B, Figure 12).

BWA-MEM's seeding threads produce extension batches; FPGA threads
package them, DMA them over XDMA, take the FPGA lock, kick off the
batch, poll for ``batch_done``, and retrieve results.  Multiple FPGA
threads interleave so transfer and compute overlap across batches.

This is a small analytic steady-state model rather than a full
discrete-event simulation: it answers the questions the paper answers
— who is the bottleneck, how many threads must drive the FPGA to keep
it busy, and how much thread budget seeding needs (the paper lands at
88% of threads on seeding).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import constants as paper
from repro.hw import timing
from repro.system.fpga import BatchTransfer, F1Instance


@dataclass(frozen=True)
class BatchingConfig:
    """Thread split and batch geometry."""

    total_threads: int = paper.F1_VCPUS
    fpga_threads: int = 1
    batch_size: int = 4096
    extensions_per_read: float = paper.EXTENSIONS_PER_READ
    seeding_reads_per_s_per_thread: float = 2_000.0
    """Software seeding rate (order of magnitude of BWA-MEM's SMEM
    stage per thread on the paper's Xeon)."""

    @property
    def seeding_threads(self) -> int:
        """Threads left for software seeding."""
        return self.total_threads - self.fpga_threads


@dataclass(frozen=True)
class BatchingReport:
    """Steady-state rates of the producer-consumer pipeline."""

    producer_ext_per_s: float
    fpga_ext_per_s: float
    driver_ext_per_s: float
    bottleneck: str

    @property
    def throughput_ext_per_s(self) -> float:
        """Steady-state system throughput (the slowest stage)."""
        return min(
            self.producer_ext_per_s,
            self.fpga_ext_per_s,
            self.driver_ext_per_s,
        )

    @property
    def fpga_utilization(self) -> float:
        """Fraction of FPGA capacity the pipeline sustains."""
        return min(1.0, self.throughput_ext_per_s / self.fpga_ext_per_s)


def simulate_batching(
    config: BatchingConfig | None = None,
    instance: F1Instance | None = None,
    fpga_throughput_ext_per_s: float | None = None,
) -> BatchingReport:
    """Steady-state rates for one thread/batch configuration."""
    cfg = config or BatchingConfig()
    inst = instance or F1Instance()
    fpga_rate = fpga_throughput_ext_per_s or timing.fpga_throughput()

    producer = (
        cfg.seeding_threads
        * cfg.seeding_reads_per_s_per_thread
        * cfg.extensions_per_read
    )

    # One FPGA thread's cycle: package + DMA in, wait for compute
    # (overlapped with other threads' transfers), DMA out.  With k
    # threads pipelining, the driver sustains k batches per
    # (transfer + result) window plus the lock-serialized compute.
    batch = BatchTransfer(cfg.batch_size)
    xfer = batch.transfer_seconds(inst) + batch.result_seconds(inst)
    compute = cfg.batch_size / fpga_rate
    per_batch_serial = max(compute, xfer / max(1, cfg.fpga_threads))
    driver = cfg.batch_size / per_batch_serial

    rates = {
        "seeding": producer,
        "fpga-compute": fpga_rate,
        "fpga-driver": driver,
    }
    bottleneck = min(rates, key=rates.get)
    return BatchingReport(
        producer_ext_per_s=producer,
        fpga_ext_per_s=fpga_rate,
        driver_ext_per_s=driver,
        bottleneck=bottleneck,
    )


def best_thread_split(
    total_threads: int = paper.F1_VCPUS,
    instance: F1Instance | None = None,
) -> tuple[BatchingConfig, BatchingReport]:
    """Sweep the FPGA/seeding thread split and keep the best.

    Reproduces the paper's observation that almost all threads should
    go to seeding — the FPGA needs very little driving.
    """
    best: tuple[BatchingConfig, BatchingReport] | None = None
    for fpga_threads in range(1, total_threads):
        cfg = BatchingConfig(
            total_threads=total_threads, fpga_threads=fpga_threads
        )
        report = simulate_batching(cfg, instance)
        if (
            best is None
            or report.throughput_ext_per_s
            > best[1].throughput_ext_per_s
        ):
            best = (cfg, report)
    assert best is not None
    return best
