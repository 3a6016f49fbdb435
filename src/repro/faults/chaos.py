"""ChaosEngine: route every wave through the faultable datapath.

Wraps a wave engine (a :class:`~repro.aligner.engines.BatchedEngine`)
so that each job of each :meth:`ChaosEngine.extend_wave` call (the
resilience dispatcher makes one per round) travels the accelerator's
real seams functionally — job packed into 512-bit memory lines, lines
through (possibly corrupted) DRAM, unpack with CRC verification at the
core, compute, result record packed and CRC-verified on write-back —
with a :class:`~repro.faults.injector.FaultInjector` deciding, per job
and attempt, whether and where to corrupt.  Every job's lines and
record carry their own CRC-16 (:mod:`repro.faults.wire`), so a fault
names its job and the rest of the wave is unharmed.

Every injected fault surfaces as a typed
:class:`~repro.faults.errors.FaultError` in its job's slot (detection),
with one exception: an injection the seam absorbs harmlessly is
counted as tolerated by the injector.  If a corruption ever slips past
the CRCs *and* changes data, the built-in tripwire raises
:class:`~repro.faults.errors.SilentCorruptionError` — the chaos suite
asserts this never happens.
"""

from __future__ import annotations

import numpy as np

from repro.faults.errors import (
    DataCorruptionFault,
    FaultError,
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

    def extend_wave(self, jobs) -> list:
        """A wave of ``(query, target, h0)`` jobs through the faultable
        datapath: each job's input frame, one inner ``extend_wave``
        over the jobs whose frames arrived intact, then each job's
        write-back record.

        Returns, in job order, each job's result or the
        :class:`~repro.faults.errors.FaultError` its frame raised; the
        resilient dispatcher owns retry/fallback policy.
        """
        out = [self._send(*job) for job in jobs]
        intact = [
            k for k, frame in enumerate(out)
            if not isinstance(frame, FaultError)
        ]
        computed = self.inner.extend_wave([out[k][1] for k in intact])
        for k, result in zip(intact, computed):
            out[k] = self._write_back(out[k][0], result)
        return out

    def _send(self, query, target, h0):
        """One job's input path: job -> memory lines -> (corruptible
        DRAM) -> core.  ``(site, job as received)``, or the fault."""
        injector = self.injector
        site = injector.draw()
        job = ExtensionJob(
            query=np.asarray(query, dtype=np.uint8),
            target=np.asarray(target, dtype=np.uint8),
            h0=int(h0),
        )
        lines = pack_job(job)
        if site in LINE_SITES:
            lines = injector.corrupt_lines(site, lines)
        if site == "stream.stall":
            return StalledStreamFault(injector.stall_seconds, site=site)
        if site == "batch.transient":
            return TransientAcceleratorFault(
                "accelerator batch failed transiently", site=site
            )
        try:
            received = unpack_job(lines, tag=job.tag)
        except CorruptLineError as exc:
            if site is None:
                raise  # not injected: a real framing bug, crash loudly
            return DataCorruptionFault(str(exc), site=site)
        if site in LINE_SITES and not _same_job(job, received):
            raise SilentCorruptionError(
                f"line corruption at {site} evaded the CRC"
            )
        return site, (received.query, received.target, received.h0)

    def _write_back(self, site, result):
        """One job's result record through the output coalescer: the
        result, or the fault."""
        record = ResultRecord.from_result(result)
        blob = record.pack()
        if site == "record.drop":
            return MissingRecordFault(
                "result record dropped by the coalescer", site=site
            )
        if site in RECORD_SITES:
            corrupted = self.injector.corrupt_record(site, blob)
            blob = corrupted if corrupted is not None else b""
        try:
            received = ResultRecord.unpack(blob)
        except CorruptRecordError as exc:
            if site is None:
                raise
            return DataCorruptionFault(str(exc), site=site)
        if received != record:
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
