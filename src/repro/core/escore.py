"""The E-score check (paper Section III-C).

Any alignment path that crosses from the band into the below-band
shaded region does so with a vertical step at some query column ``j``:
it enters region cell ``(j + w + 1, j)`` through the E channel.  The
banded kernel records exactly those E values along the band's lower
edge (:attr:`repro.align.banded.ExtensionResult.boundary_e`), computed
purely from in-band state — a valid upper bound on the entry score of
any path whose first band departure happens there.

After entering at column ``j`` the path can gain at most ``m`` per
remaining query character (only diagonal matches raise the score, and
each consumes a query character), wherever it wanders afterwards —
deeper into the region, back into the band, or to either score
endpoint.  Hence the optimistic bound

    ``scoreMax_E = max_j ( E_j + (N - j) * m )``.

If ``scoreMax_E < score_nb`` no such path can beat the narrow-band
score.  (The paper's Eq. 6 writes the match count as ``n - i + 1`` over
``n`` boundary cells; for a full-span boundary that equals ``N - j + 1``
— one match looser than necessary.  We use the exact ``N - j`` and
expose the paper's variant for the calibration harnesses.)

Column 0 is deliberately excluded: a crossing there is the paper's
"path 2 from the left" — a pure-deletion run down the matrix edge —
and is the edit-distance check's responsibility.  Folding it into this
bound would degenerate it to roughly ``S2`` (all-match from the seed),
forcing a rerun for nearly every case-c extension.
"""

from __future__ import annotations

from repro.align.banded import ExtensionResult
from repro.align.scoring import AffineGap

NO_THREAT = -(10**9)
"""Returned when the shaded region is empty: nothing to bound."""


def score_max_e(
    result: ExtensionResult,
    scoring: AffineGap,
    paper_formula: bool = False,
) -> int:
    """Upper bound on paths entering the shaded region from the top.

    ``paper_formula=True`` reproduces Eq. 6's ``+1`` match-count slack
    exactly; the default is the tight version (still an upper bound).
    """
    boundary = result.boundary_e
    if boundary.size == 0:
        return NO_THREAT
    m = scoring.match
    slack = 1 if paper_formula else 0
    best = NO_THREAT
    qlen = result.qlen
    for j in range(1, boundary.size):
        if boundary[j] <= 0:
            continue
        bound = int(boundary[j]) + (qlen - j + slack) * m
        if bound > best:
            best = bound
    return best
