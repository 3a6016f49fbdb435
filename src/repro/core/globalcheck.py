"""Optimality checks for banded *global* alignment.

The paper guarantees optimality "targeting global and semi-global
alignments" (footnote 1) and motivates the global case through
minimap2-style long-read aligners, which globally align the gaps
between chained seeds (Section VII-D).  This module is the global
rendition of the Figure 6 workflow:

1. **thresholding** with the sound global S1/S2
   (:func:`repro.core.thresholds.global_thresholds`);
2. a **below-band sweep**: one unclamped relaxed-edit DP over the
   half-matrix under the band corner, seeded with the exact
   init-column values (the column-0 dive) *and* the recorded
   ``lower_e[j]`` boundary-channel values (first departures crossing
   the band's lower edge at column ``j``); its corner value bounds
   every such path wherever it wanders, including back into the band;
3. an **above-band sweep**: the same DP over the columns right of the
   band, seeded with the init-row values and the recorded
   ``upper_f[i]`` values.

Both sweeps are :func:`repro.core.editcheck.sweep_bound` at the global
floor — the extension check's bound builder, dominance guard included.

Arithmetic per-column bounds (entry + all-match - mandatory return
gap) turn out to be useless here: global mode has no dead cells, so
the boundary channels are live everywhere and the all-match assumption
degenerates the bound to ~S2 for *every* case-c input.  The sweeps
look at what is actually outside the band instead — they are the
global analogue of the paper's edit machine, and in hardware they are
the same half-width delta-encoded array, once per side.

``GlobalSeedEx`` packages speculate -> check -> full-band rerun; its
central property (accepted => banded score equals full-band score) is
hypothesis-tested in ``tests/core/test_globalcheck.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.align.editdp import ABOVE, BELOW
from repro.align.globalband import GlobalResult, global_align
from repro.align.lockstep import NEG_INF
from repro.align.scoring import BWA_MEM_SCORING, AffineGap
from repro.core.editcheck import sweep_bound
from repro.core.thresholds import Thresholds, global_thresholds


class GlobalOutcome(enum.Enum):
    """Terminal states of the global-mode check workflow."""

    PASS_THRESHOLD = "pass_threshold"
    PASS_CHECKS = "pass_checks"
    FAIL_THRESHOLD = "fail_threshold"
    FAIL_BELOW = "fail_below"
    FAIL_ABOVE = "fail_above"

    @property
    def passed(self) -> bool:
        """True for the two accepting outcomes."""
        return self in (
            GlobalOutcome.PASS_THRESHOLD,
            GlobalOutcome.PASS_CHECKS,
        )


@dataclass(frozen=True)
class GlobalDecision:
    outcome: GlobalOutcome
    score_nb: int
    thresholds: Thresholds
    below_bound: int | None = None
    above_bound: int | None = None

    @property
    def passed(self) -> bool:
        """True when the banded score was certified optimal."""
        return self.outcome.passed


class GlobalChecker:
    """The Figure 6 workflow, global edition."""

    def __init__(self, scoring: AffineGap = BWA_MEM_SCORING) -> None:
        self.scoring = scoring

    def check(
        self,
        query: np.ndarray,
        target: np.ndarray,
        result: GlobalResult,
    ) -> GlobalDecision:
        """Decide optimality of one banded global result."""
        thresholds = global_thresholds(
            self.scoring,
            result.qlen,
            result.tlen,
            result.band,
            result.h0,
        )
        score_nb = result.score
        if score_nb <= NEG_INF // 2:
            return GlobalDecision(
                GlobalOutcome.FAIL_THRESHOLD, score_nb, thresholds
            )
        verdict = thresholds.classify(score_nb)
        if verdict == "fail":
            return GlobalDecision(
                GlobalOutcome.FAIL_THRESHOLD, score_nb, thresholds
            )
        if verdict == "pass":
            return GlobalDecision(
                GlobalOutcome.PASS_THRESHOLD, score_nb, thresholds
            )
        below = sweep_bound(query, target, result, self.scoring, BELOW)
        if below >= score_nb:
            return GlobalDecision(
                GlobalOutcome.FAIL_BELOW, score_nb, thresholds, below
            )
        above = sweep_bound(query, target, result, self.scoring, ABOVE)
        if above >= score_nb:
            return GlobalDecision(
                GlobalOutcome.FAIL_ABOVE,
                score_nb,
                thresholds,
                below,
                above,
            )
        return GlobalDecision(
            GlobalOutcome.PASS_CHECKS, score_nb, thresholds, below, above
        )


@dataclass(frozen=True)
class GlobalSeedExOutput:
    result: GlobalResult
    narrow_result: GlobalResult
    decision: GlobalDecision
    rerun: bool


@dataclass
class GlobalStats:
    total: int = 0
    passed: int = 0

    @property
    def reruns(self) -> int:
        """Alignments that needed the full-band rerun."""
        return self.total - self.passed

    @property
    def passing_rate(self) -> float:
        """Fraction of alignments certified on the narrow band."""
        return self.passed / self.total if self.total else 0.0


class GlobalSeedEx:
    """Speculate-and-test banded global alignment.

    The returned score always equals the full-band global score —
    cheaply when the checks prove the band sufficed.
    """

    def __init__(
        self,
        band: int,
        scoring: AffineGap = BWA_MEM_SCORING,
    ) -> None:
        if band < 0:
            raise ValueError("band must be non-negative")
        self.band = band
        self.scoring = scoring
        self.checker = GlobalChecker(scoring)
        self.stats = GlobalStats()

    def align(
        self, query: np.ndarray, target: np.ndarray, h0: int = 0
    ) -> GlobalSeedExOutput:
        """Banded global alignment with guaranteed-optimal score."""
        band = max(self.band, abs(len(target) - len(query)))
        narrow = global_align(query, target, self.scoring, h0, w=band)
        decision = self.checker.check(query, target, narrow)
        self.stats.total += 1
        if decision.passed:
            self.stats.passed += 1
            return GlobalSeedExOutput(narrow, narrow, decision, False)
        full = global_align(query, target, self.scoring, h0)
        return GlobalSeedExOutput(full, narrow, decision, True)
