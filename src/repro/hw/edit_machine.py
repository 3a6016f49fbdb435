"""Functional model of the delta-encoded edit machine (paper Sec IV-B).

The edit machine runs the edit check's optimistic DP — the relaxed
sweep's below-band region at the extension floor — using
3-bit residue arithmetic: every interior cell stores only its score
modulo :data:`repro.hw.delta.DELTA_MODULUS`, PEs compare candidates
with delta-max units, and a single full-width augmentation unit decodes
the scores the check needs along the augmentation path (the last
column).

Two co-designed properties make this work, both enforced here:

* the relaxed scoring ``{m:1, x:-1, go:0, ge(ins):0, ge(del):-1}``
  keeps every dmax input trio within the modulo circle's orderable
  range (pairwise differences <= 3) — the model asserts this on every
  cell and raises :class:`DeltaRangeError` otherwise;
* liveness travels as a separate 1-bit flag next to each 3-bit residue
  (the paper's "local score" revision of Lipton's global-only scheme),
  because a dead cell's residue is meaningless.

The decoded outputs are validated bit-for-bit against the full-width
software DP (:func:`repro.align.editdp.relaxed_sweep` with ``BELOW``
and ``LOCAL_EXTEND``) in the test suite; the half-width PE array claim
is an area statement handled by :mod:`repro.hw.area`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.align.scoring import AffineGap, relaxed_edit_scoring
from repro.hw.delta import DELTA_MODULUS, AugmentationUnit, dmax2


class DeltaRangeError(ValueError):
    """A dmax input trio exceeded the modulo circle's orderable range."""


@dataclass(frozen=True)
class EditMachineRun:
    """Decoded check outputs plus hardware telemetry.

    ``last_column`` is the decoded augmentation path, one score per row
    ``band+1 .. tlen`` — the software sweep's readout.
    """

    last_column: np.ndarray
    cycles: int
    cells_computed: int
    pe_count: int

    @property
    def best(self) -> int:
        """The decoded bound: the augmentation path's maximum."""
        return int(self.last_column.max(initial=0))


class EditMachine:
    """Half-width, delta-encoded edit core for the left-entry check."""

    def __init__(
        self,
        band: int,
        scoring: AffineGap | None = None,
        modulus: int = DELTA_MODULUS,
    ) -> None:
        if band < 1:
            raise ValueError("band must be at least 1")
        self.band = band
        self.scoring = scoring or relaxed_edit_scoring()
        if self.scoring.gap_open != 0 or self.scoring.gap_extend_ins != 0:
            raise ValueError("edit machine requires zero-cost insertions")
        self.modulus = modulus
        self.delta = (modulus - 1) // 2

    def pe_count(self, qlen: int) -> int:
        """Half-width array: the live trapezoid needs qlen/2 + 1 PEs."""
        return qlen // 2 + 1

    def run(
        self,
        query: np.ndarray,
        target: np.ndarray,
        edge: np.ndarray,
    ) -> EditMachineRun:
        """Sweep the half-matrix in residue arithmetic and decode.

        ``edge[i]`` is the seed register's value at row ``i`` (the
        software sweep's edge seeds).  Residues are kept per cell;
        full-width values appear only in (a) the seed injection and (b)
        the augmentation unit walking the last column.  A shadow
        full-width array exists purely to *assert* the
        bounded-difference preconditions the hardware relies on — its
        values never feed the result.
        """
        query = np.asarray(query, dtype=np.int64)
        target = np.asarray(target, dtype=np.int64)
        qlen = len(query)
        tlen = len(target)
        band = self.band
        if tlen <= band:
            return EditMachineRun(
                np.zeros(0, dtype=np.int64),
                cycles=0,
                cells_computed=0,
                pe_count=self.pe_count(qlen),
            )
        m = self.scoring.match
        x = self.scoring.mismatch
        ge_d = self.scoring.gap_extend_del
        mod = self.modulus

        rows = tlen - band
        last_column = np.zeros(rows, dtype=np.int64)
        # Residue + liveness state for one row (previous row kept).
        prev_res = np.zeros(qlen + 1, dtype=np.int64)
        prev_alive = np.zeros(qlen + 1, dtype=bool)
        prev_shadow = np.zeros(qlen + 1, dtype=np.int64)
        cells = 0

        # The augmentation unit starts from the first row's seed and
        # walks down the last column (Figure 10's augmentation path).
        aug: AugmentationUnit | None = None

        for r, i in enumerate(range(band + 1, tlen + 1)):
            res = np.zeros(qlen + 1, dtype=np.int64)
            alive = np.zeros(qlen + 1, dtype=bool)
            shadow = np.zeros(qlen + 1, dtype=np.int64)

            # Column 0: seed register (full width by construction).
            s = max(0, int(edge[i]))
            up0 = prev_shadow[0] - ge_d if prev_alive[0] else 0
            val0 = max(s, up0, 0)
            shadow[0] = val0
            res[0] = val0 % mod
            alive[0] = val0 > 0

            for j in range(1, qlen + 1):
                cells += 1
                cands_res: list[int] = []
                cands_shadow: list[int] = []
                # Left (free insertion).
                if alive[j - 1]:
                    cands_res.append(int(res[j - 1]))
                    cands_shadow.append(int(shadow[j - 1]))
                # Up (deletion).
                if prev_alive[j]:
                    cands_res.append((int(prev_res[j]) - ge_d) % mod)
                    cands_shadow.append(int(prev_shadow[j]) - ge_d)
                # Diagonal (match/mismatch; dead diagonals stay dead).
                if prev_alive[j - 1] and prev_shadow[j - 1] > 0:
                    sub = m if target[i - 1] == query[j - 1] else -x
                    cands_res.append((int(prev_res[j - 1]) + sub) % mod)
                    cands_shadow.append(int(prev_shadow[j - 1]) + sub)
                if not cands_res:
                    continue  # dead cell: residue meaningless

                self._assert_orderable(cands_shadow)
                out = cands_res[0]
                for c in cands_res[1:]:
                    out, _ = dmax2(out, c, mod)
                true_val = max(cands_shadow)
                if true_val <= 0:
                    continue  # clamps dead; liveness bit stays 0
                res[j] = out
                shadow[j] = true_val
                alive[j] = True

            prev_res, prev_alive, prev_shadow = res, alive, shadow

            # Augmentation unit decodes the last-column residue.
            if alive[qlen]:
                if aug is None:
                    # The unit is initialized from the row's decoded
                    # predecessor chain; model: sync at first live cell.
                    aug = AugmentationUnit(int(shadow[qlen]), mod)
                    decoded = aug.score
                else:
                    decoded = aug.decode(int(res[qlen]))
                if decoded != int(shadow[qlen]):
                    raise DeltaRangeError(
                        "augmentation decode diverged from the true "
                        f"score at row {i}: {decoded} != {shadow[qlen]}"
                    )
                last_column[r] = decoded
            else:
                # A dead edge cell resets the augmentation chain.
                aug = None

        # One wavefront per anti-diagonal of the trapezoid plus drain.
        cycles = rows + qlen + self.pe_count(qlen)
        return EditMachineRun(
            last_column=last_column,
            cycles=cycles,
            cells_computed=cells,
            pe_count=self.pe_count(qlen),
        )

    def _assert_orderable(self, values: list[int]) -> None:
        for a in values:
            for b in values:
                if abs(a - b) > self.delta:
                    raise DeltaRangeError(
                        f"dmax inputs {values} exceed delta="
                        f"{self.delta}; scoring scheme violates the "
                        "modulo-circle co-design"
                    )
