"""The edit-distance check (paper Section III-D): one bound builder.

Every check that looks at what lies outside the band is one call of
:func:`sweep_bound`: an optimistic extra extension,
:func:`repro.align.editdp.relaxed_sweep`, over everything a path that
first leaves the band through one region can later touch, under a
scoring scheme that dominates the production scheme (the relaxed edit
scoring, whose zero-cost insertions are what make the hardware edit
machine cheap).  Four sites call it:

* the **edit check** — the paper's "path 2": paths that leave through
  the band's left corner, a pure-deletion run down query column 0 past
  row ``w`` (region ``BELOW``, extension floor);
* the **above check** of the local score target, which cannot lean on
  ``S1`` (region ``ABOVE``, extension floor);
* the **global checks** of :mod:`repro.core.globalcheck`, once per side
  (both regions, global floor).

The region includes band cells a departing path may re-enter, and free
insertions make rows non-decreasing, so the maximum over the sweep's
last column — the scores the hardware's augmentation unit reads along
the augmentation path (Figure 10) — bounds such a path at whatever
endpoint it reaches; a global path has one endpoint, the corner.  If
the bound is strictly below ``score_nb``, no such path can win.
Together with the threshold check (above-band paths) and the E-score
check (paths crossing the band's lower edge at columns >= 1), the edit
check closes the case analysis of Lemma 2.
"""

from __future__ import annotations

import numpy as np

from repro.align.banded import ExtensionResult
from repro.align.editdp import ABOVE, BELOW, relaxed_sweep
from repro.align.globalband import GlobalResult
from repro.align.lockstep import DEAD, GLOBAL, LOCAL_EXTEND
from repro.align.scoring import AffineGap, relaxed_edit_scoring
from repro.core.escore import NO_THREAT

_CHANNELS = {
    (LOCAL_EXTEND, BELOW): "boundary_e",
    (LOCAL_EXTEND, ABOVE): "boundary_f",
    (GLOBAL, BELOW): "lower_e",
    (GLOBAL, ABOVE): "upper_f",
}
"""The result field recording each region's band-edge entry values."""


def edge_seeds(
    result: ExtensionResult | GlobalResult,
    scoring: AffineGap,
    region: str,
    corner_s1: int | None = None,
) -> np.ndarray:
    """Exact arrival scores along the region's seeded edge.

    The only way to reach edge cell ``(k, 0)`` below the band (``(0,
    k)`` above it) is a ``k``-long deletion (insertion) run from the
    seed, worth ``h0 - go - k*ge``; the sweep floors it.  The paper
    instead seeds ``corner_s1`` at the below region's corner cell only
    and lets the relaxed DP propagate it, trading bound tightness for
    hardware simplicity (an extension-only ablation:
    ``CheckConfig(exact_left_seed=False)``).
    """
    below = region == BELOW
    n = result.tlen if below else result.qlen
    if corner_s1 is not None:
        edge = np.zeros(n + 1, dtype=np.int64)
        edge[result.band + 1 : result.band + 2] = corner_s1
        return edge
    ge = scoring.gap_extend_del if below else scoring.gap_extend_ins
    k = np.arange(n + 1, dtype=np.int64)
    return result.h0 - scoring.gap_open - ge * k


def sweep_bound(
    query: np.ndarray,
    target: np.ndarray,
    result: ExtensionResult | GlobalResult,
    scoring: AffineGap,
    region: str,
    corner_s1: int | None = None,
    channel_seeds: bool = True,
) -> int:
    """Bound every path whose first band departure enters ``region``.

    The floor follows the result: a :class:`GlobalResult` sweeps
    unclamped (global paths survive negative scores), an extension
    result dead-at-zero.  ``channel_seeds`` injects the recorded
    band-edge channel values (``boundary_e``/``lower_e`` below,
    ``boundary_f``/``upper_f`` above); without them the below sweep
    bounds only the column-0 dive, leaving the other downward crossings
    to the E-score check.  Returns :data:`NO_THREAT` when no live path
    enters the region.  Raises ``ValueError`` unless the relaxed edit
    scheme dominates ``scoring`` (:meth:`AffineGap.dominates`): only
    then is the bound admissible.
    """
    if not relaxed_edit_scoring().dominates(scoring):
        raise ValueError(
            "the relaxed edit scoring must dominate the production "
            "scoring for the bound to be admissible"
        )
    floor = GLOBAL if isinstance(result, GlobalResult) else LOCAL_EXTEND
    channel = getattr(result, _CHANNELS[floor, region])
    last = relaxed_sweep(
        query,
        target,
        result.band,
        region,
        floor,
        edge_seeds(result, scoring, region, corner_s1),
        channel if channel_seeds else None,
    )
    # A global path's one endpoint is the corner; an extension path
    # may stop in any row.
    readout = last[-1:] if floor == GLOBAL else last
    bound = int(readout.max(initial=floor))
    return bound if bound > max(floor, DEAD) else NO_THREAT
