"""Host-CPU side: software kernel timing and the rerun budget.

The host plays two roles in the SeedEx system: it runs the software
pipeline stages (seeding, SAM output) and it *reruns* the ~2% of
extensions whose optimality checks failed, using the full-band
software kernel.  This module measures the real software kernel on
this machine (Figure 3's curve is produced from these measurements)
and models the rerun budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro import obs
from repro.align import banded
from repro.align.scoring import BWA_MEM_SCORING, AffineGap
from repro.genome.synth import ExtensionJob
from repro.obs import names


@dataclass(frozen=True)
class KernelTiming:
    """Measured software-kernel performance at one band setting."""

    band: int
    seconds_per_extension: float
    cells_per_extension: float


def time_software_kernel(
    jobs: list[ExtensionJob],
    band: int | None,
    scoring: AffineGap = BWA_MEM_SCORING,
    repeats: int = 1,
) -> KernelTiming:
    """Wall-clock the banded software kernel over a job corpus."""
    if not jobs:
        raise ValueError("need at least one job to time")
    if repeats < 1:
        raise ValueError("repeats must be >= 1 (got %d)" % repeats)
    if band is not None and band < 1:
        raise ValueError(
            "band must be >= 1 or None for the full band (got %d)" % band
        )
    cells = 0
    with obs.span(names.SPAN_HOST_KERNEL, band=band or -1):
        start = time.perf_counter()
        for _ in range(repeats):
            cells = 0
            for job in jobs:
                res = banded.extend(
                    job.query, job.target, scoring, job.h0, w=band
                )
                cells += res.cells_computed
        elapsed = time.perf_counter() - start
    n = len(jobs) * repeats
    effective_band = band if band is not None else -1
    return KernelTiming(
        band=effective_band,
        seconds_per_extension=elapsed / n,
        cells_per_extension=cells / len(jobs),
    )


@dataclass(frozen=True)
class RerunBudget:
    """Host-side cost of the failed-check reruns.

    The paper overlaps reruns with FPGA batches and reports negligible
    overhead; this model quantifies when that holds: the host keeps up
    as long as rerun demand (failed fraction x full-band kernel time)
    stays under the thread budget reserved for it.
    """

    rerun_fraction: float
    host_threads: int
    full_band_seconds_per_extension: float
    fpga_throughput_ext_per_s: float

    @property
    def rerun_demand_ext_per_s(self) -> float:
        """Rerun work arriving from the accelerator."""
        return self.rerun_fraction * self.fpga_throughput_ext_per_s

    @property
    def host_capacity_ext_per_s(self) -> float:
        """Full-band extensions the host can absorb."""
        return self.host_threads / self.full_band_seconds_per_extension

    @property
    def host_keeps_up(self) -> bool:
        """True when reruns fully overlap with FPGA batches."""
        return self.host_capacity_ext_per_s >= self.rerun_demand_ext_per_s

    @property
    def overhead_fraction(self) -> float:
        """Extra wall time when the host cannot fully overlap."""
        if self.host_keeps_up:
            return 0.0
        return (
            self.rerun_demand_ext_per_s / self.host_capacity_ext_per_s - 1.0
        )

    def with_faults(
        self, fault_rate: float, max_retries: int
    ) -> "RerunBudget":
        """The budget under injected datapath faults.

        See :func:`fault_adjusted_rerun_fraction` for the model: the
        extra host demand is the jobs whose accelerator retries all
        faulted and therefore degrade to the full-band rerun.
        """
        return RerunBudget(
            rerun_fraction=fault_adjusted_rerun_fraction(
                self.rerun_fraction, fault_rate, max_retries
            ),
            host_threads=self.host_threads,
            full_band_seconds_per_extension=(
                self.full_band_seconds_per_extension
            ),
            fpga_throughput_ext_per_s=self.fpga_throughput_ext_per_s,
        )


def fault_adjusted_rerun_fraction(
    base_fraction: float, fault_rate: float, max_retries: int
) -> float:
    """Host rerun fraction once datapath faults join the check failures.

    A job degrades to the host when every accelerator attempt (the
    first try plus ``max_retries`` retries) faults — probability
    ``fault_rate ** (1 + max_retries)`` under independent per-attempt
    faults.  Those jobs add to the paper's ~2% check-failure reruns;
    jobs already rerunning cannot degrade twice.
    """
    if not 0.0 <= base_fraction <= 1.0:
        raise ValueError("base rerun fraction must be in [0, 1]")
    if not 0.0 <= fault_rate < 1.0:
        raise ValueError("fault rate must be in [0, 1)")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    escalated = fault_rate ** (1 + max_retries)
    return base_fraction + (1.0 - base_fraction) * escalated
