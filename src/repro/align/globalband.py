"""Banded global (Needleman-Wunsch, affine gap) alignment.

The second alignment mode SeedEx targets (paper footnote 1): fully
end-to-end alignment, the kernel minimap2-style long-read aligners use
to *fill* the gaps between chained seeds (paper Section VII-D, "Long
Reads").  Unlike extension mode there are no dead cells — scores may
go negative — and the only score of interest is the corner
``H[tlen][qlen]``.

For the global optimality checks the kernel records, along both band
edges, the exact channel values a band-leaving path must carry:

* ``lower_e[j]`` — the E value entering below-band cell ``(j+w+1, j)``;
* ``upper_f[i]`` — the F value entering above-band cell ``(i, i+w+1)``.

Bit-equivalence with the dense oracle
(:func:`repro.align.globalbatch.fill_global_scalar` at full band) is
property-tested.  The fill is the one lockstep sweep
(:func:`repro.align.lockstep.global_edges`); the boundary lengths are
the extension kernel's (:func:`repro.align.banded.boundary_length`,
:func:`~repro.align.banded.upper_boundary_length`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.align import lockstep
from repro.align.scoring import AffineGap


@dataclass(frozen=True)
class GlobalResult:
    """One banded global alignment and its check inputs."""

    score: int
    band: int
    h0: int
    qlen: int
    tlen: int
    lower_e: np.ndarray
    upper_f: np.ndarray
    cells_computed: int

    @property
    def is_full_band(self) -> bool:
        """True when the band covered every cell of the matrix."""
        return self.band >= max(self.qlen, self.tlen)


def global_align(
    query: np.ndarray,
    target: np.ndarray,
    scoring: AffineGap,
    h0: int = 0,
    w: int | None = None,
) -> GlobalResult:
    """Banded global alignment score with boundary-channel capture.

    ``w=None`` computes the full matrix.  The configuration is
    rejected when the corner lies outside the band (no global path
    would fit).
    """
    qlen = len(query)
    tlen = len(target)
    if w is None:
        w = max(qlen, tlen)
    if w < 0:
        raise ValueError("band must be non-negative")
    if abs(tlen - qlen) > w:
        raise ValueError(
            "global endpoint outside the band; increase the band"
        )
    score, lower_e, upper_f = lockstep.global_edges(
        query, target, scoring, h0, w
    )
    # In-band cells: row 0, then each row's band without column 0.
    rows = np.arange(1, tlen + 1)
    spans = np.minimum(qlen, rows + w) - np.maximum(rows - w, 1) + 1
    cells = min(qlen, w) + 1 + int(np.maximum(spans, 0).sum())
    return GlobalResult(
        score=score,
        band=w,
        h0=h0,
        qlen=qlen,
        tlen=tlen,
        lower_e=lower_e,
        upper_f=upper_f,
        cells_computed=cells,
    )
