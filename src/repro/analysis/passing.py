"""Passing-rate sweeps (paper Figure 14, Section VII-A).

For each band setting, run every extension of a corpus through the
narrow-band kernel and the optimality checks, and report the fraction
admitted by thresholding alone versus by the full check chain.  The
paper's chosen operating point — band 41, 71.76% threshold-only,
98.19% overall, roughly one job in three visiting the edit machine —
comes from exactly this sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.align.scoring import BWA_MEM_SCORING, AffineGap
from repro.core.checker import (
    CheckConfig,
    CheckOutcome,
    OptimalityChecker,
)
from repro.genome.synth import ExtensionJob


@dataclass(frozen=True)
class PassingPoint:
    """Check outcomes at one band setting."""

    band: int
    total: int
    outcome_counts: dict[CheckOutcome, int]

    def rate(self, *outcomes: CheckOutcome) -> float:
        """Fraction of jobs landing in the given outcomes."""
        if not self.total:
            return 0.0
        return (
            sum(self.outcome_counts.get(o, 0) for o in outcomes)
            / self.total
        )

    @property
    def threshold_only(self) -> float:
        """Admitted by case b alone (the paper's 'thresholding' line)."""
        return self.rate(CheckOutcome.PASS_S2)

    @property
    def overall(self) -> float:
        """Admitted by the full chain (the paper's SeedEx line)."""
        return self.rate(CheckOutcome.PASS_S2, CheckOutcome.PASS_CHECKS)

    @property
    def edit_check_boost(self) -> float:
        """Extra admissions the E-score + edit checks contribute."""
        return self.overall - self.threshold_only

    @property
    def edit_machine_demand(self) -> float:
        """Fraction of jobs that occupied the edit machine."""
        return self.rate(CheckOutcome.PASS_CHECKS, CheckOutcome.FAIL_EDIT)


def passing_point(
    jobs: list[ExtensionJob],
    band: int,
    scoring: AffineGap = BWA_MEM_SCORING,
    config: CheckConfig | None = None,
) -> PassingPoint:
    """Run the checker over a corpus at one band setting.

    The narrow-band runs go through the batched lockstep kernel; the
    checks (and any edit-machine DPs they trigger) run per job.
    """
    from repro.align.lockstep import extend_batch

    checker = OptimalityChecker(scoring, config)
    counts: dict[CheckOutcome, int] = {}
    results = extend_batch(
        [j.query for j in jobs],
        [j.target for j in jobs],
        [j.h0 for j in jobs],
        scoring,
        w=band,
    )
    for job, res in zip(jobs, results):
        decision = checker.check(job.query, job.target, res)
        counts[decision.outcome] = counts.get(decision.outcome, 0) + 1
    return PassingPoint(band=band, total=len(jobs), outcome_counts=counts)


def passing_sweep(
    jobs: list[ExtensionJob],
    bands: list[int],
    scoring: AffineGap = BWA_MEM_SCORING,
    config: CheckConfig | None = None,
) -> list[PassingPoint]:
    """Figure 14's x-axis sweep."""
    return [passing_point(jobs, band, scoring, config) for band in bands]
