"""Host-CPU side: software kernel timing and fault-adjusted reruns.

The host plays two roles in the SeedEx system: it runs the software
pipeline stages (seeding, SAM output) and it *reruns* the ~2% of
extensions whose optimality checks failed, using the full-band
software kernel.  This module measures the real software kernel on
this machine (Figure 3's curve is produced from these measurements)
and models how datapath faults grow the rerun fraction.
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
