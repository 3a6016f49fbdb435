"""The inter-sequence lockstep backend (``--kernel striped``).

The wavefront backend vectorizes *within* one extension — across the
slots of an anti-diagonal — the way one systolic array schedules one
matrix.  The accelerator's throughput, and that of SSW/SALoBa-style
software aligners, comes from the other axis: many independent
extensions advancing in lockstep.  This backend is that
inter-sequence rendition, and it has no sweep of its own:

* extension batches, at every band, go to the one lockstep sweep's
  extension capture set (:func:`repro.align.lockstep.extend_batch`),
  which plans the batch into cell-balanced buckets
  (:func:`repro.align.lockstep.plan_buckets`) and sweeps each bucket
  as jobs x band columns;
* a single extension is that batch with ``n = 1``;
* overlap fills, single and batched, go to the lockstep overlap batch
  (:func:`repro.align.overlapdp.overlap_batch_lockstep`).

Semantics are bit-identical to :func:`repro.align.banded.extend`
(``prune=False``) on everything observable — scores, boundary E/F
captures, tie-breaking — with the usual execution-shape exemptions
(``cells_computed`` uses the lockstep formula; ``terminated_early`` is
always ``False``).  The ragged-batch conformance suite
(``tests/kernels/``) enforces this per job across all three backends.
"""

from __future__ import annotations

import numpy as np

from repro.align import lockstep
from repro.align.banded import ExtensionResult
from repro.align.overlapdp import OverlapResult, overlap_batch_lockstep
from repro.align.scoring import AffineGap


class StripedKernel:
    """The inter-sequence lockstep NumPy backend (``--kernel striped``)."""

    name = "striped"

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
        """One banded overlap fill (the lockstep kernel with n = 1)."""
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
