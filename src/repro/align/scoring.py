"""Scoring schemes for the alignment kernels.

Three schemes appear in the paper:

* :class:`AffineGap` — the production scoring used by BWA-MEM and by the
  SeedEx BSW cores (paper Section II-A, Eq. 1-3).  The BWA-MEM default is
  ``{m: 1, x: -4, go: -6, ge: -1}``.
* :func:`edit_scoring` — plain Levenshtein-style scoring
  ``{m: 1, x: -1, go: 0, ge: -1}`` (paper Section IV-B).
* :func:`relaxed_edit_scoring` — the edit machine's scheme
  ``{m: 1, x: -1, go: 0, ge(ins): 0, ge(del): -1}``; zero-penalty
  insertions let local scores propagate horizontally so a single
  augmentation unit can decode every delta-encoded score.

Penalties are stored as non-negative magnitudes; the DP kernels subtract
them.  :meth:`AffineGap.dominates` captures the admissibility relation
the edit-distance check relies on: for every alignment path the relaxed
(or plain) edit score is >= the affine-gap score.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AffineGap:
    """Affine-gap scoring ``s = {m, x, go, ge}`` with split gap extension.

    ``gap_extend_ins`` applies to horizontal moves (consuming a query
    character; an insertion with respect to the reference) and
    ``gap_extend_del`` to vertical moves (consuming a reference
    character).  Symmetric schemes set both to the same value; the
    relaxed edit scheme used by the edit machine sets the insertion
    extension to zero.
    """

    match: int = 1
    mismatch: int = 4
    gap_open: int = 6
    gap_extend: int = 1
    gap_extend_ins: int | None = None
    gap_extend_del: int | None = None

    def __post_init__(self) -> None:
        if self.match <= 0:
            raise ValueError("match reward must be positive")
        for name in ("mismatch", "gap_open", "gap_extend"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be a non-negative magnitude")
        if self.gap_extend_ins is None:
            object.__setattr__(self, "gap_extend_ins", self.gap_extend)
        if self.gap_extend_del is None:
            object.__setattr__(self, "gap_extend_del", self.gap_extend)
        if self.gap_extend_ins < 0 or self.gap_extend_del < 0:
            raise ValueError("gap extensions must be non-negative magnitudes")

    def substitution(self, a: int, b: int) -> int:
        """Score of aligning base codes ``a`` and ``b`` (N never matches)."""
        from repro.genome.sequence import AMBIGUOUS_CODE

        if a == AMBIGUOUS_CODE or b == AMBIGUOUS_CODE:
            return -self.mismatch
        return self.match if a == b else -self.mismatch

    def gap_cost(self, length: int, *, deletion: bool = True) -> int:
        """Total (positive) penalty of a gap of ``length`` characters."""
        if length <= 0:
            return 0
        extend = self.gap_extend_del if deletion else self.gap_extend_ins
        return self.gap_open + extend * length

    def dominates(self, other: "AffineGap") -> bool:
        """True if this scheme scores every path at least as high as
        ``other`` does.

        Used to verify admissibility: the edit-check scheme must
        dominate the production affine-gap scheme for the optimality
        proof of Section III-D to hold.
        """
        return (
            self.match >= other.match
            and self.mismatch <= other.mismatch
            and self.gap_open <= other.gap_open
            and self.gap_extend_ins <= other.gap_extend_ins
            and self.gap_extend_del <= other.gap_extend_del
        )

    def doubled_gap(self) -> "AffineGap":
        """The paper's global-alignment threshold substitution.

        Section III-A: "The formulation above can be easily extended for
        global alignment by replacing go with 2go and ge with 2ge."
        """
        return AffineGap(
            match=self.match,
            mismatch=self.mismatch,
            gap_open=2 * self.gap_open,
            gap_extend=2 * self.gap_extend,
            gap_extend_ins=2 * self.gap_extend_ins,
            gap_extend_del=2 * self.gap_extend_del,
        )


BWA_MEM_SCORING = AffineGap(match=1, mismatch=4, gap_open=6, gap_extend=1)
"""BWA-MEM's default scheme; used by all paper experiments (Section VI)."""


def edit_scoring() -> AffineGap:
    """Plain edit-distance scoring ``{m:1, x:-1, go:0, ge:-1}``."""
    return AffineGap(match=1, mismatch=1, gap_open=0, gap_extend=1)


def relaxed_edit_scoring() -> AffineGap:
    """The edit machine's relaxed scheme with zero-penalty insertions."""
    return AffineGap(
        match=1,
        mismatch=1,
        gap_open=0,
        gap_extend=1,
        gap_extend_ins=0,
        gap_extend_del=1,
    )
