"""The scalar (row-vectorized) kernel backend.

A thin façade over the repo's original kernels: the per-job banded
extension (:mod:`repro.align.banded`), the one lockstep sweep's
extension capture set (:func:`repro.align.lockstep.extend_batch`) and
the per-cell overlap reference
(:func:`repro.align.overlapdp.overlap_scalar`).  This is the default
backend — selecting it changes nothing about how the pipeline
computes.
"""

from __future__ import annotations

import numpy as np

from repro.align import banded, lockstep, overlapdp
from repro.align.banded import ExtensionResult
from repro.align.overlapdp import OverlapResult
from repro.align.scoring import AffineGap


class ScalarKernel:
    """Backend that delegates to the original row-oriented kernels."""

    name = "scalar"

    def extend(
        self,
        query: np.ndarray,
        target: np.ndarray,
        scoring: AffineGap,
        h0: int,
        w: int | None = None,
    ) -> ExtensionResult:
        """One banded extension through the scalar row kernel."""
        return banded.extend(query, target, scoring, h0, w=w)

    def extend_batch(
        self,
        queries: list[np.ndarray],
        targets: list[np.ndarray],
        h0s: list[int],
        scoring: AffineGap,
        w: int | None = None,
    ) -> list[ExtensionResult]:
        """A batch of extensions through the one lockstep sweep."""
        return lockstep.extend_batch(queries, targets, h0s, scoring, w=w)

    def overlap(
        self,
        query: np.ndarray,
        target: np.ndarray,
        scoring: AffineGap,
        w: int | None = None,
    ) -> OverlapResult:
        """One banded suffix-prefix overlap fill (reference form)."""
        return overlapdp.overlap_scalar(query, target, scoring, w=w)

    def overlap_batch(
        self,
        queries: list[np.ndarray],
        targets: list[np.ndarray],
        scoring: AffineGap,
        w: int | None = None,
    ) -> list[OverlapResult]:
        """A batch of overlap fills, one job at a time."""
        if len(queries) != len(targets):
            raise ValueError("queries and targets must align")
        return [
            overlapdp.overlap_scalar(q, t, scoring, w=w)
            for q, t in zip(queries, targets)
        ]
