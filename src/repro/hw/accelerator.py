"""The full SeedEx accelerator: clusters, clients, batching, rerun path.

Models the device level of Figure 7: the AWS shell exposes four DDR4
channels; each channel hosts one SeedEx *cluster* of four *clients*
(SeedEx cores).  Input batches are prefetched into BRAM so the AXI
read latency (40 cycles) hides under compute (~100 cycles per job),
results coalesce 5:1 into output lines, and the jobs that fail the
optimality checks come back on a rerun queue that the host drains with
the full-band software kernel.

The model is functional for decisions (every accepted score is the
proven-optimal narrow-band result; every rerun is recomputed full
band) and analytic for time: per-core initiation intervals from
:mod:`repro.hw.timing`, perfect prefetch overlap as the paper reports
("memory access time is completely hidden").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.align import banded
from repro.align.banded import ExtensionResult
from repro.align.scoring import BWA_MEM_SCORING, AffineGap
from repro.core.checker import CheckConfig
from repro.genome.synth import ExtensionJob
from repro.hw import timing
from repro.hw.seedex_core import CoreOutput, SeedExCore
from repro import constants as paper


@dataclass(frozen=True)
class AcceleratorConfig:
    """Device configuration (defaults = the paper's SeedEx-only image)."""

    clusters: int = 3
    clients_per_cluster: int = 4
    band: int = paper.DEFAULT_BAND
    batch_size: int = 512
    clock_hz: float = timing.FPGA_CLOCK_HZ
    axi_read_latency_cycles: int = paper.AXI_READ_LATENCY_CYCLES

    @property
    def n_cores(self) -> int:
        """SeedEx cores on the device."""
        return self.clusters * self.clients_per_cluster

    @property
    def n_bsw_cores(self) -> int:
        """Narrow-band BSW engines on the device (3 per core)."""
        return self.n_cores * 3


@dataclass
class AcceleratorReport:
    """What one run of the accelerator produced."""

    outputs: list[CoreOutput]
    rerun_results: dict[int, ExtensionResult]
    total_cycles: float
    throughput_ext_per_s: float
    rerun_fraction: float
    prefetch_hidden: bool


class SeedExAccelerator:
    """Device-level model: dispatch, compute, check, rerun."""

    def __init__(
        self,
        config: AcceleratorConfig | None = None,
        scoring: AffineGap = BWA_MEM_SCORING,
        check_config: CheckConfig | None = None,
    ) -> None:
        self.config = config or AcceleratorConfig()
        self.scoring = scoring
        self.cores = [
            SeedExCore(self.config.band, scoring, check_config)
            for _ in range(self.config.n_cores)
        ]

    def run(self, jobs: list[ExtensionJob]) -> AcceleratorReport:
        """Process a job list and model device time.

        Jobs round-robin across SeedEx cores (the state manager
        bookkeeping multiple input streams).  Device time is the
        slowest core's busy time; prefetch hides memory latency as
        long as the AXI round-trip fits under one initiation interval.
        """
        cfg = self.config
        outputs: list[CoreOutput] = []
        core_busy = [0.0] * len(self.cores)
        for k, job in enumerate(jobs):
            core_idx = k % len(self.cores)
            core = self.cores[core_idx]
            before = _core_cycles(core)
            outputs.append(core.process(job))
            core_busy[core_idx] += _core_cycles(core) - before

        rerun_results: dict[int, ExtensionResult] = {}
        for idx, out in enumerate(outputs):
            if not out.accepted:
                job = out.job
                rerun_results[idx] = banded.extend(
                    job.query, job.target, self.scoring, job.h0
                )

        # Each SeedEx core's 3 BSW engines drain their share in
        # parallel; device time = slowest core.
        total_cycles = max(core_busy) / 3 if core_busy else 0.0
        compute_per_job = timing.initiation_interval_cycles(cfg.band)
        prefetch_hidden = cfg.axi_read_latency_cycles < compute_per_job
        seconds = total_cycles / cfg.clock_hz if total_cycles else 0.0
        throughput = len(jobs) / seconds if seconds else 0.0
        failed = sum(not o.accepted for o in outputs)
        rerun_fraction = failed / max(1, len(jobs)) if jobs else 0.0
        return AcceleratorReport(
            outputs=outputs,
            rerun_results=rerun_results,
            total_cycles=total_cycles,
            throughput_ext_per_s=throughput,
            rerun_fraction=rerun_fraction,
            prefetch_hidden=prefetch_hidden,
        )

    def passing_rate(self) -> float:
        """Device-wide check passing rate so far."""
        jobs = sum(c.telemetry.jobs for c in self.cores)
        accepted = sum(c.telemetry.accepted for c in self.cores)
        return accepted / jobs if jobs else 0.0


def _core_cycles(core: SeedExCore) -> float:
    return core.telemetry.bsw_cycles + core.telemetry.edit_cycles
