"""Typed fault exceptions: the language of the degradation ladder.

Every failure the simulated datapath can produce is a
:class:`FaultError` subclass carrying the injection ``site`` that
caused it, so the resilience layer can attribute each detected fault
back to its injection and the chaos suite can assert the accounting
invariant *injected == detected + tolerated* (no silent corruption).

The low-level framing errors (:class:`~repro.faults.wire.CorruptLineError`,
:class:`~repro.faults.wire.CorruptRecordError`) live with the framing
code in :mod:`repro.faults.wire`; the chaos engine wraps them into
:class:`DataCorruptionFault` with the injected site attached.
"""

from __future__ import annotations

__all__ = [
    "DataCorruptionFault",
    "DeadLetterError",
    "FaultError",
    "MissingRecordFault",
    "SilentCorruptionError",
    "StalledStreamFault",
    "TransientAcceleratorFault",
]


class FaultError(RuntimeError):
    """Base class of every injectable datapath failure.

    ``site`` names the injection seam (see
    :data:`repro.faults.injector.ALL_SITES`); the resilience ladder
    catches this type and nothing broader, so genuine bugs still
    crash loudly instead of being retried away.
    """

    def __init__(self, message: str, *, site: str) -> None:
        super().__init__(f"{message} [site={site}]")
        self.site = site


class DataCorruptionFault(FaultError):
    """A CRC/framing check caught corrupted lines or records."""


class MissingRecordFault(FaultError):
    """The output coalescer dropped a result record entirely."""


class StalledStreamFault(FaultError):
    """An arbiter input stream stalled for ``seconds`` (simulated).

    The dispatcher compares ``seconds`` against its per-attempt
    timeout: a short stall is absorbed (tolerated), a long one is a
    timeout that consumes a retry.
    """

    def __init__(self, seconds: float, *, site: str) -> None:
        super().__init__(
            f"input stream stalled for {seconds:.3f}s", site=site
        )
        self.seconds = seconds


class TransientAcceleratorFault(FaultError):
    """The accelerator failed one batch/job transiently (retryable)."""


class SilentCorruptionError(RuntimeError):
    """Corruption slipped past every integrity check (the tripwire).

    Never retried: an undetected corruption means the CRC framing has
    a hole, and the only safe reaction is to crash the test loudly.
    """


class DeadLetterError(RuntimeError):
    """A job exhausted the whole degradation ladder.

    Raised after accelerator retries were spent *and* the host rerun
    queue refused the job; the pipeline reacts by marking the read
    unmapped-with-reason rather than crashing.
    """

    def __init__(self, message: str, *, site: str, attempts: int) -> None:
        super().__init__(
            f"{message} [site={site}, attempts={attempts}]"
        )
        self.site = site
        self.attempts = attempts
