"""ChaosEngine: route every extension through the faultable datapath.

Wraps any :class:`~repro.aligner.engines.ExtensionEngine` so that each
``extend`` call travels the accelerator's real seams functionally —
job packed into 512-bit memory lines, lines through (possibly
corrupted) DRAM, unpack with CRC verification at the core, compute,
result record packed and CRC-verified on write-back — with a
:class:`~repro.faults.injector.FaultInjector` deciding, per attempt,
whether and where to corrupt.

Every injected fault surfaces as a typed
:class:`~repro.faults.errors.FaultError` (detection), with one
exception: an injection the seam absorbs harmlessly is counted as
tolerated by the injector.  If a corruption ever slips past the CRCs
*and* changes data, the built-in tripwire raises
:class:`~repro.faults.errors.SilentCorruptionError` — the chaos suite
asserts this never happens.
"""

from __future__ import annotations

import numpy as np

from repro.faults.errors import (
    DataCorruptionFault,
    MissingRecordFault,
    SilentCorruptionError,
    StalledStreamFault,
    TransientAcceleratorFault,
)
from repro.faults.injector import (
    LINE_SITES,
    RECORD_SITES,
    FaultInjector,
)
from repro.faults.wire import (
    CorruptLineError,
    CorruptRecordError,
    ResultRecord,
    pack_job,
    unpack_job,
)
from repro.genome.synth import ExtensionJob


class ChaosEngine:
    """An extension engine whose datapath can be corrupted.

    Functionally transparent when no fault fires: pack/unpack are
    exact inverses and the result record round-trips verbatim, so a
    fault-free attempt returns exactly what the inner engine computed.
    """

    def __init__(self, engine, injector: FaultInjector) -> None:
        self.inner = engine
        self.injector = injector
        self.name = f"chaos({engine.name})"

    @property
    def scoring(self):
        """The inner engine's affine-gap scheme (pipeline contract)."""
        return self.inner.scoring

    def extend(self, query, target, h0):
        """One extension through the faultable datapath.

        Raises a :class:`~repro.faults.errors.FaultError` subclass
        when the drawn fault surfaces; the resilient dispatcher owns
        retry/fallback policy.
        """
        injector = self.injector
        site = injector.draw()
        job = ExtensionJob(
            query=np.asarray(query, dtype=np.uint8),
            target=np.asarray(target, dtype=np.uint8),
            h0=int(h0),
        )

        # Input path: job -> memory lines -> (corruptible DRAM) -> core.
        lines = pack_job(job)
        if site in LINE_SITES:
            lines = injector.corrupt_lines(site, lines)
        if site == "stream.stall":
            raise StalledStreamFault(injector.stall_seconds, site=site)
        if site == "batch.transient":
            raise TransientAcceleratorFault(
                "accelerator batch failed transiently", site=site
            )
        try:
            received = unpack_job(lines, tag=job.tag)
        except CorruptLineError as exc:
            if site is None:
                raise  # not injected: a real framing bug, crash loudly
            raise DataCorruptionFault(str(exc), site=site) from exc
        if site in LINE_SITES and not _same_job(job, received):
            raise SilentCorruptionError(
                f"line corruption at {site} evaded the CRC"
            )

        # Compute on what the core actually received.
        result = self.inner.extend(
            received.query, received.target, received.h0
        )

        # Write-back path: result record through the output coalescer.
        record = ResultRecord.from_result(result)
        blob = record.pack()
        if site == "record.drop":
            raise MissingRecordFault(
                "result record dropped by the coalescer", site=site
            )
        if site in RECORD_SITES:
            corrupted = injector.corrupt_record(site, blob)
            blob = corrupted if corrupted is not None else b""
        try:
            received_record = ResultRecord.unpack(blob)
        except CorruptRecordError as exc:
            if site is None:
                raise
            raise DataCorruptionFault(str(exc), site=site) from exc
        if received_record != record:
            raise SilentCorruptionError(
                f"record corruption at {site} evaded the CRC"
            )
        return result


def _same_job(a: ExtensionJob, b: ExtensionJob) -> bool:
    """Field-exact equality of two extension jobs."""
    return (
        a.h0 == b.h0
        and len(a.query) == len(b.query)
        and len(a.target) == len(b.target)
        and bool((a.query == b.query).all())
        and bool((a.target == b.target).all())
    )
