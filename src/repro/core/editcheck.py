"""The edit-distance check (paper Section III-D).

Bounds the paper's "path 2": alignment paths that leave the band
through its left corner — a pure-deletion run down query column 0 past
row ``w``.  An optimistic extra extension runs over everything such a
path can later touch (the half-matrix of rows below the corner,
:func:`repro.align.editdp.left_entry_scores`), seeded with ``S1`` at
the corner — "the theoretical highest score at the circle" — using a
scoring scheme that dominates the production scheme (the relaxed edit
scoring, whose zero-cost insertions are what make the hardware edit
machine cheap).

Because the half-matrix includes band cells the path may re-enter, and
free insertions make rows non-decreasing, the maximum over the DP's
last column — the scores the hardware's augmentation unit reads along
the augmentation path (Figure 10) — bounds every left-entering path at
whatever endpoint it reaches.  If that bound, ``score_ed``, is
strictly below ``score_nb``, no left-entering path can win.  Together
with the threshold check (above-band paths) and the E-score check
(paths crossing the band's lower edge at columns >= 1), this closes
the case analysis of Lemma 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.align.banded import ExtensionResult
from repro.align.editdp import LeftEntryScores, left_entry_scores
from repro.align.scoring import AffineGap, relaxed_edit_scoring
from repro.core.escore import NO_THREAT


@dataclass(frozen=True)
class EditCheckResult:
    """The edit-machine bound and the raw augmentation-path scores."""

    score_ed: int
    scores: LeftEntryScores

    def passes(self, score_nb: int) -> bool:
        """True when no left-entering path can reach score_nb."""
        return self.score_ed < score_nb


def exact_left_seeds(h0: int, scoring: AffineGap):
    """Tighter per-row seeding: the true arrival score at ``(i, 0)``.

    The only way to reach left-boundary cell ``(i, 0)`` is a deletion
    run of ``i`` reference characters, worth
    ``max(0, h0 - go - i*ge_del)``.  The paper instead seeds ``S1`` at
    the corner and lets the relaxed DP propagate it, trading bound
    tightness for hardware simplicity; the difference is measured by
    the ``exact_left_seed`` ablation.
    """
    go = scoring.gap_open
    ge_d = scoring.gap_extend_del

    def seed(i: int) -> int:
        return max(0, h0 - go - i * ge_d)

    return seed


def corner_seed(s1: int, band: int):
    """The paper's seeding: ``S1`` injected at the corner cell only.

    Deeper left-boundary rows receive the score through the DP's own
    vertical propagation (relaxed deletion cost), which dominates the
    true arrival scores because ``S1`` already exceeds the corner's
    true value and the relaxed extension cost never exceeds the
    production cost.
    """

    def seed(i: int) -> int:
        return s1 if i == band + 1 else 0

    return seed


def above_check(
    query: np.ndarray,
    target: np.ndarray,
    result: ExtensionResult,
    scoring: AffineGap,
    region_scoring: AffineGap | None = None,
) -> EditCheckResult:
    """The above-band mirror check, for the local score target.

    The semi-global workflow never needs it: case c requires
    ``score_nb > S1`` and S1 bounds the whole above region.  The
    *local* target (soft-clip workloads) cannot rely on S1 — a clipped
    read's lscore sits far below any all-match bound — so the above
    region gets the same treatment as the below one: one relaxed sweep
    over everything an upward-departing path can touch, seeded with
    the exact init-row arrival values and the recorded upper-edge F
    channel caps (:attr:`ExtensionResult.boundary_f`).
    """
    if region_scoring is None:
        region_scoring = relaxed_edit_scoring()
    if not region_scoring.dominates(scoring):
        raise ValueError(
            "above-check scoring must dominate the production scoring "
            "for the bound to be admissible"
        )
    from repro.align.editdp import upper_entry_scores

    go = scoring.gap_open
    ge_i = scoring.gap_extend_ins
    h0 = result.h0
    boundary_f = result.boundary_f

    def row_seed(j: int) -> int:
        return h0 - go - j * ge_i

    def boundary_seed(i: int) -> int:
        if i < boundary_f.size:
            return int(boundary_f[i])
        return 0

    scores = upper_entry_scores(
        query, target, result.band, row_seed, boundary_seed,
        region_scoring,
    )
    if scores.last_column.size == 0:
        return EditCheckResult(NO_THREAT, scores)
    score_ab = scores.best if scores.best > 0 else NO_THREAT
    return EditCheckResult(score_ab, scores)


def edit_check(
    query: np.ndarray,
    target: np.ndarray,
    result: ExtensionResult,
    scoring: AffineGap,
    s1: int | None,
    exact_left_seed: bool = True,
    region_scoring: AffineGap | None = None,
    include_top_seeds: bool = False,
) -> EditCheckResult:
    """Run the optimistic left-entry extension and form ``score_ed``.

    ``include_top_seeds=True`` also injects the recorded boundary
    E-channel values along the region's top edge, making the sweep
    bound downward crossings at *every* column — the local-target
    workflow uses this when the all-match E-check arithmetic fails.

    Exact per-row seeding is the default.  The paper seeds the constant
    ``S1`` at the corner, which is sound for its region-only sweep but
    — in this formulation, whose half-matrix also covers the band cells
    a left-entering path can re-enter (necessary to bound exit paths;
    see the module docstring) — inflates the bound past ``S2`` whenever
    the true alignment's suffix diagonal is reachable, making the check
    useless.  ``exact_left_seed=False`` selects the paper's corner-S1
    seeding for the calibration ablation; ``s1`` may be ``None`` only
    when the above-band region does not exist, in which case exact
    seeding is used regardless.
    """
    if region_scoring is None:
        region_scoring = relaxed_edit_scoring()
    if not region_scoring.dominates(scoring):
        raise ValueError(
            "edit-check scoring must dominate the production scoring "
            "for the bound to be admissible"
        )
    if exact_left_seed or s1 is None:
        seed = exact_left_seeds(result.h0, scoring)
    else:
        seed = corner_seed(s1, result.band)
    top_seed = None
    if include_top_seeds:
        boundary_e = result.boundary_e

        def top_seed(j: int) -> int:
            if j < boundary_e.size:
                return int(boundary_e[j])
            return 0

    scores = left_entry_scores(
        query, target, result.band, seed, scoring=region_scoring,
        top_seed=top_seed,
    )
    if scores.last_column.size == 0:
        return EditCheckResult(NO_THREAT, scores)
    score_ed = scores.best if scores.best > 0 else NO_THREAT
    return EditCheckResult(score_ed, scores)
