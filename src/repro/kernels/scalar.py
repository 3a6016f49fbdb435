"""The ``scalar`` kernel name, the default backend.

Like every backend, one call into the one lockstep sweep per method
(:mod:`repro.kernels` says why three names remain).  The per-job
:func:`repro.align.banded.extend` and per-cell
:func:`repro.align.overlapdp.overlap_scalar` are the conformance
suite's oracles, not a backend.
"""

from __future__ import annotations

import numpy as np

from repro.align import lockstep
from repro.align.banded import ExtensionResult
from repro.align.overlapdp import OverlapResult, overlap_batch_lockstep
from repro.align.scoring import AffineGap


class ScalarKernel:
    """The default backend (``--kernel scalar``)."""

    name = "scalar"

    def extend(
        self,
        query: np.ndarray,
        target: np.ndarray,
        scoring: AffineGap,
        h0: int,
        w: int | None = None,
    ) -> ExtensionResult:
        """One banded extension (the lockstep batch with n = 1)."""
        return lockstep.extend_batch(
            [np.asarray(query)], [np.asarray(target)], [h0], scoring, w=w
        )[0]

    def extend_batch(
        self,
        queries: list[np.ndarray],
        targets: list[np.ndarray],
        h0s: list[int],
        scoring: AffineGap,
        w: int | None = None,
    ) -> list[ExtensionResult]:
        """A batch of extensions in cell-balanced lockstep buckets."""
        return lockstep.extend_batch(queries, targets, h0s, scoring, w=w)

    def overlap(
        self,
        query: np.ndarray,
        target: np.ndarray,
        scoring: AffineGap,
        w: int | None = None,
    ) -> OverlapResult:
        """One banded overlap fill (the lockstep batch with n = 1)."""
        return overlap_batch_lockstep(
            [np.asarray(query)], [np.asarray(target)], scoring, w=w
        )[0]

    def overlap_batch(
        self,
        queries: list[np.ndarray],
        targets: list[np.ndarray],
        scoring: AffineGap,
        w: int | None = None,
    ) -> list[OverlapResult]:
        """A shape-bucketed batch of overlap fills in lockstep."""
        return overlap_batch_lockstep(queries, targets, scoring, w=w)
