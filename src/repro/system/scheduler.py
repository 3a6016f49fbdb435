"""End-to-end application model (paper Figure 17, Section VII-B).

Models BWA-MEM and BWA-MEM2 as staged software pipelines and replays
the paper's four acceleration configurations:

* ``baseline``            — stock software;
* ``software-seedex``     — the w=5 software SeedEx (narrow software
  kernel + full-band reruns), the paper's motivation data point;
* ``seedex-fpga``         — seed extension offloaded to the FPGA,
  software seeding becomes the bottleneck;
* ``seeding+seedex-fpga`` — both accelerators on the FPGA.

Stage fractions are calibrated so the baseline splits reproduce the
paper's published speedups exactly (the paper's own Figure 17 is a
normalized breakdown, not absolute times), and the fault-adjusted
rerun fraction comes from :mod:`repro.system.host`.  The harness prints paper-vs-model speedups
for all four configurations on both aligners.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import constants as paper


@dataclass(frozen=True)
class StageBreakdown:
    """Normalized time split of a software aligner (baseline = 1.0).

    Calibrated from the paper's reported speedups: removing extension
    yields the SeedEx-only speedup, removing seeding and extension
    leaves the unaccelerated remainder (see Figure 17 discussion).
    """

    name: str
    seeding: float
    extension: float
    other: float

    @property
    def total(self) -> float:
        """Sum of the stage fractions (1.0 for a baseline)."""
        return self.seeding + self.extension + self.other


def bwa_mem_breakdown() -> StageBreakdown:
    """BWA-MEM's calibrated baseline stage split."""
    ext = 1.0 - 1.0 / paper.SPEEDUP_SEEDEX_ONLY_BWAMEM
    other = 1.0 / paper.SPEEDUP_FULL_BWAMEM
    return StageBreakdown(
        "BWA-MEM", seeding=1.0 - ext - other, extension=ext, other=other
    )


def bwa_mem2_breakdown() -> StageBreakdown:
    """BWA-MEM2's calibrated baseline stage split."""
    ext = 1.0 - 1.0 / paper.SPEEDUP_SEEDEX_ONLY_BWAMEM2
    other = 1.0 / paper.SPEEDUP_FULL_BWAMEM2
    return StageBreakdown(
        "BWA-MEM2", seeding=1.0 - ext - other, extension=ext, other=other
    )


@dataclass(frozen=True)
class EndToEndResult:
    """One configuration's normalized time and derived speedup."""

    aligner: str
    configuration: str
    seeding_time: float
    extension_time: float
    other_time: float
    rerun_time: float

    @property
    def total(self) -> float:
        """Normalized end-to-end time of this configuration."""
        # Seeding/extension overlap through the producer-consumer
        # batching; the serial view below is the paper's breakdown
        # convention (stages stacked, accelerated parts shrink).
        return (
            self.seeding_time
            + self.extension_time
            + self.other_time
            + self.rerun_time
        )

    def speedup_over(self, baseline: "EndToEndResult") -> float:
        """Speedup of this configuration over a baseline run."""
        return baseline.total / self.total


SOFTWARE_SEEDEX_KERNEL_SPEEDUP_DEFAULT = paper.SOFTWARE_SEEDEX_KERNEL_SPEEDUP


def model_configuration(
    breakdown: StageBreakdown,
    configuration: str,
    rerun_fraction: float = paper.RERUN_RATE,
    software_kernel_speedup: float = SOFTWARE_SEEDEX_KERNEL_SPEEDUP_DEFAULT,
    fault_rate: float = 0.0,
    max_retries: int = 3,
) -> EndToEndResult:
    """Normalized end-to-end time of one configuration.

    ``rerun_fraction`` may come from a measured corpus (the harnesses
    pass the rate their checker actually observed).  ``fault_rate``
    models an unreliable accelerator datapath: jobs whose attempts
    (1 + ``max_retries``) all fault degrade to the host full-band
    rerun, growing the rerun remainder per
    :func:`repro.system.host.fault_adjusted_rerun_fraction`, and every
    faulted attempt re-occupies the FPGA, inflating the accelerated
    extension time by the expected attempt count.
    """
    from repro.system.host import fault_adjusted_rerun_fraction

    seeding = breakdown.seeding
    extension = breakdown.extension
    other = breakdown.other
    rerun = 0.0

    effective_rerun = fault_adjusted_rerun_fraction(
        rerun_fraction, fault_rate, max_retries
    )
    # Expected accelerator attempts per job under independent
    # per-attempt faults (geometric, truncated at max_retries+1).
    attempts = (
        (1.0 - fault_rate ** (1 + max_retries)) / (1.0 - fault_rate)
        if fault_rate
        else 1.0
    )

    if configuration == "baseline":
        pass
    elif configuration == "software-seedex":
        extension = extension / software_kernel_speedup
    elif configuration == "seedex-fpga":
        # FPGA extension throughput dwarfs software: the visible cost
        # is the host-side rerun remainder (overlapped, so only the
        # non-overlappable fraction shows) plus driver time.
        rerun = extension * effective_rerun
        extension = extension * 0.01 * attempts
    elif configuration == "seeding+seedex-fpga":
        rerun = extension * effective_rerun
        extension = extension * 0.01 * attempts
        seeding = seeding * 0.02
    else:
        raise ValueError(f"unknown configuration {configuration!r}")

    return EndToEndResult(
        aligner=breakdown.name,
        configuration=configuration,
        seeding_time=seeding,
        extension_time=extension,
        other_time=other,
        rerun_time=rerun,
    )


def figure17_table(
    rerun_fraction: float = paper.RERUN_RATE,
    software_kernel_speedup: float = SOFTWARE_SEEDEX_KERNEL_SPEEDUP_DEFAULT,
) -> list[tuple[EndToEndResult, float | None]]:
    """All (configuration, paper-reported speedup) rows of Figure 17."""
    rows: list[tuple[EndToEndResult, float | None]] = []
    reported = {
        ("BWA-MEM", "baseline"): 1.0,
        ("BWA-MEM", "seedex-fpga"): paper.SPEEDUP_SEEDEX_ONLY_BWAMEM,
        ("BWA-MEM", "seeding+seedex-fpga"): paper.SPEEDUP_FULL_BWAMEM,
        ("BWA-MEM2", "baseline"): 1.0,
        ("BWA-MEM2", "software-seedex"): (
            paper.SOFTWARE_SEEDEX_APP_SPEEDUP_BWAMEM2
        ),
        ("BWA-MEM2", "seedex-fpga"): paper.SPEEDUP_SEEDEX_ONLY_BWAMEM2,
        ("BWA-MEM2", "seeding+seedex-fpga"): paper.SPEEDUP_FULL_BWAMEM2,
    }
    for breakdown in (bwa_mem_breakdown(), bwa_mem2_breakdown()):
        for config in (
            "baseline",
            "software-seedex",
            "seedex-fpga",
            "seeding+seedex-fpga",
        ):
            row = model_configuration(
                breakdown,
                config,
                rerun_fraction,
                software_kernel_speedup,
            )
            rows.append((row, reported.get((breakdown.name, config))))
    return rows
