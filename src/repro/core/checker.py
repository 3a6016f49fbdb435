"""The SeedEx check workflow (paper Figure 6).

Given the result of a narrow-band extension, decide whether its score
is provably optimal (equal to what a full-band run would produce) or
whether the extension must be rerun with the full band:

1. ``score_nb <= S1``            -> rerun (case a: hopelessly small);
2. ``score_nb > S2``             -> accept (case b: provably optimal);
3. otherwise (case c)            -> run the E-score check, then the
   edit-distance check; accept only if both bounds fall strictly below
   ``score_nb``, else rerun.

``score_nb`` is the narrow-band *semi-global* score (``gscore``): the
paper's optimality guarantee targets global and semi-global alignment
(footnote 1).  Because every bound used here caps the *final* score of
any band-leaving path wherever it ends, an accepted extension has
bit-identical ``(lscore, lpos, gscore, gpos)`` to the full-band run —
the local score comes along for free (``lscore >= gscore`` and all
outside paths are strictly below ``gscore``).  That end-to-end theorem
is property-tested in ``tests/core/test_theorem.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.align.banded import ExtensionResult
from repro.align.editdp import ABOVE, BELOW
from repro.align.scoring import AffineGap
from repro.core.editcheck import sweep_bound
from repro.core.escore import NO_THREAT, score_max_e
from repro.core.thresholds import Thresholds, semiglobal_thresholds
from repro.obs import names


class CheckOutcome(enum.Enum):
    """Terminal states of the Figure 6 workflow."""

    PASS_S2 = "pass_s2"
    """Accepted by thresholding alone (case b)."""

    PASS_CHECKS = "pass_checks"
    """Accepted after the E-score and edit-distance checks (case c)."""

    FAIL_S1 = "fail_s1"
    """Score at or below S1: rerun (case a)."""

    FAIL_DEAD = "fail_dead"
    """No in-band path consumed the whole query: rerun."""

    FAIL_ESCORE = "fail_escore"
    """A top-entering path might beat the narrow band: rerun."""

    FAIL_EDIT = "fail_edit"
    """A left-entering path might beat the narrow band: rerun."""

    FAIL_ABOVE = "fail_above"
    """(local target) An upward-departing path might win: rerun."""

    @property
    def passed(self) -> bool:
        """True for the two accepting outcomes."""
        return self in (CheckOutcome.PASS_S2, CheckOutcome.PASS_CHECKS)


@dataclass(frozen=True)
class CheckConfig:
    """Which checks run and in which flavour.

    Disabling ``use_edit_check`` turns the edit-distance check into an
    automatic failure (rerun) — soundness is never sacrificed, only the
    passing rate, which is exactly the ablation Figure 14 plots.

    ``target`` picks which score the acceptance certifies.  The
    default ``"semiglobal"`` compares every bound against ``gscore``,
    which (because ``gscore <= lscore``) certifies *both* scores at
    once — the paper's guarantee.  ``"local"`` compares against
    ``lscore`` instead: it certifies only ``(lscore, lpos)`` but keeps
    working when no in-band path consumes the whole query (soft-clip
    workloads, where the semi-global target would always rerun).
    """

    use_edit_check: bool = True
    exact_left_seed: bool = True
    target: str = "semiglobal"

    def __post_init__(self) -> None:
        if self.target not in ("semiglobal", "local"):
            raise ValueError(f"unknown check target {self.target!r}")


@dataclass(frozen=True)
class CheckDecision:
    """Everything the checker computed, for accounting and debugging."""

    outcome: CheckOutcome
    score_nb: int
    thresholds: Thresholds
    score_max_e: int | None = None
    score_ed: int | None = None

    @property
    def passed(self) -> bool:
        """True when the extension was accepted."""
        return self.outcome.passed

    @property
    def needs_rerun(self) -> bool:
        """True when the extension must rerun full-band."""
        return not self.outcome.passed


class OptimalityChecker:
    """Applies the Figure 6 workflow to narrow-band extension results.

    The checks have one implementation each and never extend, so the
    verdicts do not depend on which kernel backend produced ``result``.
    """

    def __init__(
        self,
        scoring: AffineGap,
        config: CheckConfig | None = None,
    ) -> None:
        self.scoring = scoring
        self.config = config or CheckConfig()

    def thresholds_for(self, result: ExtensionResult) -> Thresholds:
        """S1/S2 thresholds for one extension result."""
        return semiglobal_thresholds(
            self.scoring,
            result.qlen,
            result.tlen,
            result.band,
            result.h0,
        )

    def check(
        self,
        query: np.ndarray,
        target: np.ndarray,
        result: ExtensionResult,
    ) -> CheckDecision:
        """Decide optimality of ``result`` for the given input pair."""
        with obs.span(names.SPAN_CHECK_THRESHOLD):
            thresholds = self.thresholds_for(result)
            if self.config.target == "local":
                score_nb = result.lscore
            else:
                score_nb = result.gscore
                if result.gpos < 0:
                    return CheckDecision(
                        CheckOutcome.FAIL_DEAD, score_nb, thresholds
                    )
            verdict = thresholds.classify(score_nb)
        if verdict == "fail" and self.config.target != "local":
            # Case a.  The local target has no hopeless threshold: its
            # above-band sweep replaces S1 with real content.
            return CheckDecision(CheckOutcome.FAIL_S1, score_nb, thresholds)
        if verdict == "pass":
            return CheckDecision(CheckOutcome.PASS_S2, score_nb, thresholds)

        local = self.config.target == "local"
        with obs.span(names.SPAN_CHECK_ESCORE):
            e_bound = score_max_e(result, self.scoring)
        e_pass = e_bound < score_nb
        if not e_pass and not local:
            return CheckDecision(
                CheckOutcome.FAIL_ESCORE, score_nb, thresholds, e_bound
            )

        if not self.config.use_edit_check:
            return CheckDecision(
                CheckOutcome.FAIL_EDIT, score_nb, thresholds, e_bound
            )
        # In local mode a failed all-match E-check is not terminal:
        # the sweep re-evaluates the downward crossings with real
        # content by seeding the region's top boundary.
        with obs.span(names.SPAN_CHECK_EDIT):
            score_ed = sweep_bound(
                query,
                target,
                result,
                self.scoring,
                BELOW,
                corner_s1=(
                    None if self.config.exact_left_seed else thresholds.s1
                ),
                channel_seeds=local and not e_pass,
            )
        if score_ed >= score_nb:
            return CheckDecision(
                CheckOutcome.FAIL_EDIT,
                score_nb,
                thresholds,
                e_bound,
                score_ed,
            )

        if local:
            # The above-band region: the semi-global workflow has it
            # covered by score_nb > S1; the local one sweeps it.
            with obs.span(names.SPAN_CHECK_ABOVE):
                score_ab = sweep_bound(
                    query, target, result, self.scoring, ABOVE
                )
            if score_ab >= score_nb:
                return CheckDecision(
                    CheckOutcome.FAIL_ABOVE,
                    score_nb,
                    thresholds,
                    e_bound,
                    score_ed,
                )
        return CheckDecision(
            CheckOutcome.PASS_CHECKS,
            score_nb,
            thresholds,
            e_bound,
            score_ed,
        )


__all__ = [
    "CheckOutcome",
    "CheckConfig",
    "CheckDecision",
    "OptimalityChecker",
    "NO_THREAT",
]
