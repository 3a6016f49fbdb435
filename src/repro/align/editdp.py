"""Edit-distance DP: the one relaxed-edit sweep of the optimality checks.

Every band-leaving path of the SeedEx checks (paper Section III-D) is
bounded by one optimistic DP, :func:`relaxed_sweep`, run over all a
departing path can later touch — band cells it may re-enter included —
under the relaxed edit scoring ``{m:1, x:-1, go:0, ge(ins):0,
ge(del):-1}``.  Two parameters fix which DP that is:

* **region** — :data:`BELOW`: rows ``band+1 .. tlen`` x every column,
  entered down query column 0 (the paper's "path 2" dive) or across
  the band's lower edge; :data:`ABOVE`: every row x columns
  ``band+1 .. qlen``, entered along the init row or across the upper
  edge.  The free direction is horizontal in both: transposing the
  below sweep would hand out free *deletions* above the band and let
  the bound ride down onto the true alignment's diagonal.
* **floor** — :data:`~repro.align.lockstep.LOCAL_EXTEND` (dead at 0,
  the extension kernel's semantics) or
  :data:`~repro.align.lockstep.GLOBAL` (``NEG_INF``: global paths
  survive negative running scores), the fill's boundary-policy names.

Seeds are injected along the region's *edge* (column 0 below, row 0
above) and, optionally, at each band-edge entry cell — the recorded
boundary channel value of a path whose first departure crossed the
band edge there.  Zero-cost insertions make every row non-decreasing,
so the row maximum sits in the last column: the sweep returns that
column, which is what the hardware's single augmentation unit reads
along the right edge (Figure 10) and why the edit machine is a
half-width PE array (Section IV-B).  The global checks read its
corner.

:func:`relaxed_sweep_reference` is the cell-by-cell loop oracle.
"""

from __future__ import annotations

import numpy as np

from repro.align.lockstep import DEAD
from repro.align.scoring import AffineGap, relaxed_edit_scoring

BELOW = "below"
ABOVE = "above"
"""The two sweep regions (see module doc)."""


def _region(qlen: int, tlen: int, band: int, region: str):
    """``(first row, first column)`` of the region, ``None`` if empty."""
    if region == BELOW:
        return (band + 1, 0) if tlen > band else None
    if region == ABOVE:
        return (0, band + 1) if qlen > band else None
    raise ValueError(f"unknown sweep region {region!r}")


def relaxed_sweep(
    query: np.ndarray,
    target: np.ndarray,
    band: int,
    region: str,
    floor: int,
    edge: np.ndarray,
    channel: np.ndarray | None = None,
    scoring: AffineGap | None = None,
) -> np.ndarray:
    """Run the relaxed DP over ``region`` and read out its last column.

    ``edge[i]`` seeds cell ``(i, 0)`` (:data:`BELOW`); ``edge[j]`` seeds
    ``(0, j)`` (:data:`ABOVE`).  ``channel[k]``, when given, seeds the
    band-edge entry cell ``(k + band + 1, k)`` (below) or
    ``(k, k + band + 1)`` (above).  Returns the score at column
    ``qlen`` of each region row, top to bottom — empty when the region
    is.  Cells at or below ``floor`` (or
    :data:`~repro.align.lockstep.DEAD`, whichever is higher) are dead
    and extend nowhere.  ``scoring`` defaults to the relaxed edit
    scheme; it must have free insertions.
    """
    if scoring is None:
        scoring = relaxed_edit_scoring()
    if scoring.gap_open != 0 or scoring.gap_extend_ins != 0:
        raise ValueError(
            "the relaxed sweep requires zero-cost insertions "
            "(free horizontal propagation)"
        )
    query = np.asarray(query, dtype=np.int64)
    target = np.asarray(target, dtype=np.int64)
    qlen = len(query)
    tlen = len(target)
    corner = _region(qlen, tlen, band, region)
    if corner is None:
        return np.zeros(0, dtype=np.int64)
    first, lo = corner
    width = qlen + 1 - lo
    dead = max(floor, DEAD)
    edge = np.asarray(edge, dtype=np.int64)
    n_channel = 0 if channel is None else min(len(channel), width)
    m = scoring.match
    x = scoring.mismatch
    ge_d = scoring.gap_extend_del

    last = np.empty(tlen + 1 - first, dtype=np.int64)
    row = None
    for r, i in enumerate(range(first, tlen + 1)):
        prev = row
        row = np.full(width, floor, dtype=np.int64)
        if prev is not None:
            live = prev > dead
            np.maximum(row, np.where(live, prev - ge_d, floor), out=row)
            # Column lo's diagonal predecessor is outside the region.
            sub = np.where(target[i - 1] == query[lo:], m, -x)
            diag = np.where(live[:-1], prev[:-1] + sub, floor)
            np.maximum(row[1:], diag, out=row[1:])
        if lo == 0:
            row[0] = max(int(row[0]), int(edge[i]))
        elif r == 0:
            np.maximum(row, edge[lo : qlen + 1], out=row)
        # Row r's entry cell sits at offset r in both regions.
        if r < n_channel:
            row[r] = max(int(row[r]), int(channel[r]))
        # Free insertions: a running max along the row.
        row = np.maximum.accumulate(row)
        last[r] = row[-1]
    return last


def relaxed_sweep_reference(
    query: np.ndarray,
    target: np.ndarray,
    band: int,
    region: str,
    floor: int,
    edge: np.ndarray,
    channel: np.ndarray | None = None,
    scoring: AffineGap | None = None,
) -> np.ndarray:
    """Cell-by-cell loop oracle for :func:`relaxed_sweep` (tests only).

    Honors a non-zero insertion cost too, which the vectorized sweep
    refuses (the exact-edit-scoring ablation uses it).
    """
    if scoring is None:
        scoring = relaxed_edit_scoring()
    qlen = len(query)
    tlen = len(target)
    corner = _region(qlen, tlen, band, region)
    if corner is None:
        return np.zeros(0, dtype=np.int64)
    first, lo = corner
    dead = max(floor, DEAD)
    m = scoring.match
    x = scoring.mismatch
    entries = {}
    for k in range(0 if channel is None else len(channel)):
        cell = (k + first, k) if region == BELOW else (k, k + lo)
        entries[cell] = int(channel[k])

    scores: dict[tuple[int, int], int] = {}

    def live(cell):
        value = scores.get(cell)
        return value if value is not None and value > dead else None

    for i in range(first, tlen + 1):
        for j in range(lo, qlen + 1):
            cands = [floor]
            if (j if region == BELOW else i) == 0:
                cands.append(int(edge[i if region == BELOW else j]))
            if (i, j) in entries:
                cands.append(entries[(i, j)])
            up = live((i - 1, j))
            if up is not None:
                cands.append(up - scoring.gap_extend_del)
            left = live((i, j - 1))
            if left is not None:
                cands.append(left - scoring.gap_extend_ins)
            dg = live((i - 1, j - 1))
            if dg is not None:
                same = int(target[i - 1]) == int(query[j - 1])
                cands.append(dg + (m if same else -x))
            scores[(i, j)] = max(cands)
    return np.array(
        [scores[(i, qlen)] for i in range(first, tlen + 1)], dtype=np.int64
    )

