"""Delta encoding: Lipton-Lopresti residue arithmetic (paper Sec IV-B).

The edit machine's datapath width is the dominant area cost, so scores
are stored as 3-bit residues modulo ``DELTA_MODULUS = 8``.  Magnitude
comparisons on residues are possible because DP scores have a bounded
dynamic range: if two candidates are known to differ by at most
``delta`` and the modulo circle's circumference satisfies
``modulus >= 2*delta + 1``, then whichever residue precedes the other
on the shorter arc is the smaller value (paper Figure 9).

* :func:`dmax2` — the 2-input delta-max unit; two chained stages make
  the 3-input unit of Figure 11;
* :class:`AugmentationUnit` — decodes residues back to full-width
  scores by walking along the augmentation path (Figure 10), keeping
  one full-width accumulator.

Every function validates its bounded-difference precondition when
given full-width inputs; the hardware cannot, which is why the edit
machine's scoring scheme was co-designed to respect the bound.
"""

from __future__ import annotations

DELTA_MODULUS = 8
"""Modulo-circle circumference: 3-bit residues, supports delta <= 3."""


def dmax2(
    x1: int, x2: int, modulus: int = DELTA_MODULUS
) -> tuple[int, bool]:
    """Residue of ``max(X1, X2)`` given ``|X1 - X2| <= (modulus-1)//2``.

    Returns ``(residue, second_is_larger)``.  Pure residue logic: walk
    the circle from ``x1`` to ``x2`` clockwise; if the arc is short,
    ``X2`` is the larger (paper Figure 9, left/middle).
    """
    delta = (modulus - 1) // 2
    arc = (x2 - x1) % modulus
    if arc == 0:
        return x1 % modulus, False
    if arc <= delta:
        return x2 % modulus, True
    return x1 % modulus, False


def checked_dmax(
    values: list[int], modulus: int = DELTA_MODULUS
) -> int:
    """Residue max over full-width values, asserting the bound.

    Test/model helper: encodes, runs the dmax tree, and verifies both
    the precondition and that the result matches the true max.
    """
    delta = (modulus - 1) // 2
    for a in values:
        for b in values:
            if abs(a - b) > delta:
                raise ValueError(
                    f"pairwise difference |{a} - {b}| exceeds delta="
                    f"{delta}; the modulo circle cannot order these"
                )
    residues = [v % modulus for v in values]
    out = residues[0]
    for r in residues[1:]:
        out, _ = dmax2(out, r, modulus)
    assert out == max(values) % modulus
    return out


class AugmentationUnit:
    """Decodes delta scores along the augmentation path (Figure 10).

    Keeps one full-width score; each :meth:`decode` consumes the next
    residue on the path, assuming the true score moved by at most
    ``delta`` since the previous step.  This is the only full-width
    arithmetic in the edit machine — everything else is 3-bit.
    """

    def __init__(
        self, initial_score: int, modulus: int = DELTA_MODULUS
    ) -> None:
        self.modulus = modulus
        self.delta = (modulus - 1) // 2
        self.score = initial_score

    def decode(self, residue: int) -> int:
        """Advance along the path: residue -> full-width score."""
        if not 0 <= residue < self.modulus:
            raise ValueError(f"residue {residue} outside the circle")
        diff = (residue - self.score) % self.modulus
        if diff > self.delta:
            diff -= self.modulus
        self.score += diff
        return self.score
