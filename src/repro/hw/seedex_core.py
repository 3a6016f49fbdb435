"""SeedEx Core: 3 BSW cores + 1 edit machine + check logic (Figure 7).

The core-level composition of the architecture: the arbiter feeds
parsed jobs to the least-loaded BSW core; the check logic applies the
thresholds and the E-score check to each narrow-band result; jobs in
case c are queued to the shared edit machine (the 3:1 core ratio comes
from roughly one in three extensions failing the threshold check,
Section VII-A); failures are emitted on the rerun queue for the host.

Functionally every decision is delegated to the *same*
:class:`repro.core.checker.OptimalityChecker` the software uses, so
the hardware model inherits the proven soundness; what this module
adds is occupancy/timing accounting per engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.align.banded import ExtensionResult
from repro.align.scoring import BWA_MEM_SCORING, AffineGap
from repro.core.checker import (
    CheckConfig,
    CheckDecision,
    CheckOutcome,
    OptimalityChecker,
)
from repro.genome.synth import ExtensionJob
from repro.hw import timing
from repro.hw.bsw_core import BSWCore

BSW_CORES_PER_SEEDEX_CORE = 3
"""Paper Section VII-A: the BSW:edit core ratio is 3:1."""


@dataclass(frozen=True)
class CoreOutput:
    """One job's outcome at the SeedEx-core level."""

    job: ExtensionJob
    result: ExtensionResult
    decision: CheckDecision
    accepted: bool
    hw_exception: bool


@dataclass
class CoreTelemetry:
    """Occupancy accounting for one SeedEx core."""

    jobs: int = 0
    accepted: int = 0
    rerun: int = 0
    edit_machine_jobs: int = 0
    bsw_cycles: float = 0.0
    edit_cycles: float = 0.0
    outcome_counts: dict[CheckOutcome, int] = field(default_factory=dict)

    @property
    def passing_rate(self) -> float:
        """Fraction of this core's jobs accepted by the checks."""
        return self.accepted / self.jobs if self.jobs else 0.0

    @property
    def edit_machine_demand(self) -> float:
        """Fraction of jobs that needed the edit machine — should sit
        near 1/3 for the paper's 3:1 provisioning to balance."""
        return self.edit_machine_jobs / self.jobs if self.jobs else 0.0


class SeedExCore:
    """Three BSW cores, one edit machine, and the check pipeline."""

    def __init__(
        self,
        band: int = 41,
        scoring: AffineGap = BWA_MEM_SCORING,
        config: CheckConfig | None = None,
        mode: str = "fast",
    ) -> None:
        self.band = band
        self.scoring = scoring
        self.mode = mode
        self.bsw_cores = [
            BSWCore(band, scoring, mode)
            for _ in range(BSW_CORES_PER_SEEDEX_CORE)
        ]
        self.checker = OptimalityChecker(scoring, config)
        self.telemetry = CoreTelemetry()
        self._next_core = 0

    def process(self, job: ExtensionJob) -> CoreOutput:
        """Run one extension job through the core."""
        tele = self.telemetry
        tele.jobs += 1
        core = self.bsw_cores[self._next_core]
        self._next_core = (self._next_core + 1) % len(self.bsw_cores)
        run = core.run(job.query, job.target, job.h0)
        tele.bsw_cycles += run.cycles

        decision = self.checker.check(job.query, job.target, run.result)
        tele.outcome_counts[decision.outcome] = (
            tele.outcome_counts.get(decision.outcome, 0) + 1
        )
        # The edit machine runs for every job that reached case c with
        # a passing E-score check (checker outcome PASS_CHECKS or
        # FAIL_EDIT both consumed an edit-machine slot).
        if decision.outcome in (
            CheckOutcome.PASS_CHECKS,
            CheckOutcome.FAIL_EDIT,
        ):
            tele.edit_machine_jobs += 1
            tele.edit_cycles += timing.initiation_interval_cycles(
                self.band, read_length=max(1, len(job.query))
            )

        accepted = decision.passed and not run.exception
        if accepted:
            tele.accepted += 1
        else:
            tele.rerun += 1
        return CoreOutput(
            job=job,
            result=run.result,
            decision=decision,
            accepted=accepted,
            hw_exception=run.exception,
        )
