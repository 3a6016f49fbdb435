"""Kernel backends: three names for the one lockstep sweep.

The four fills the pipeline runs — the banded extension, its batched
form, and the suffix-prefix overlap fill single and batched — go
through a :class:`KernelBackend`.  Every registered backend is the
same code: each method is one call into the one lockstep sweep,
:func:`repro.align.lockstep.extend_batch` or
:func:`repro.align.overlapdp.overlap_batch_lockstep` (a single job is
the batch with ``n = 1``).  The sweep plans a batch into cell-balanced
buckets and advances every job of a bucket together, the way the
accelerator fills its PE array with many independent extensions.  The
optimality checks have one implementation each in :mod:`repro.core`.

The per-job references, :func:`repro.align.banded.extend` and
:func:`repro.align.overlapdp.overlap_scalar`, are not backends: they
are the oracles ``tests/kernels/`` checks the sweep against.

Three names remain — ``scalar`` (the default), ``numpy``
(:mod:`repro.kernels.wavefront`) and ``striped`` — because ``--kernel``
accepts them, ``@PG DS:kernel=`` and the journal fingerprint
(``EngineSpec.kernel``) record them, and ``perfbench/layers.py`` times
each class's four methods.  That table wraps a method by identity, so
every class defines its own four functions rather than sharing them.

Pass ``kernel=`` (a name or an instance) to the engines or
:class:`~repro.core.extender.SeedExtender`, or ``--kernel`` to the
CLI; nothing named means ``scalar``.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.align.banded import ExtensionResult
from repro.align.overlapdp import OverlapResult
from repro.align.scoring import AffineGap
from repro.kernels.scalar import ScalarKernel
from repro.kernels.striped import StripedKernel
from repro.kernels.wavefront import WavefrontKernel


@runtime_checkable
class KernelBackend(Protocol):
    """The interface every kernel backend implements."""

    name: str

    def extend(
        self,
        query: np.ndarray,
        target: np.ndarray,
        scoring: AffineGap,
        h0: int,
        w: int | None = None,
    ) -> ExtensionResult:
        """Run one banded extension job."""

    def extend_batch(
        self,
        queries: list[np.ndarray],
        targets: list[np.ndarray],
        h0s: list[int],
        scoring: AffineGap,
        w: int | None = None,
    ) -> list[ExtensionResult]:
        """Run a batch of extension jobs, results in input order."""

    def overlap(
        self,
        query: np.ndarray,
        target: np.ndarray,
        scoring: AffineGap,
        w: int | None = None,
    ) -> OverlapResult:
        """Run one banded suffix-prefix overlap fill."""

    def overlap_batch(
        self,
        queries: list[np.ndarray],
        targets: list[np.ndarray],
        scoring: AffineGap,
        w: int | None = None,
    ) -> list[OverlapResult]:
        """Run a batch of overlap fills, results in input order."""


_KERNELS: dict[str, KernelBackend] = {
    ScalarKernel.name: ScalarKernel(),
    WavefrontKernel.name: WavefrontKernel(),
    StripedKernel.name: StripedKernel(),
}


def available_kernels() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_KERNELS))


def get_kernel(kernel: str | KernelBackend | None = None) -> KernelBackend:
    """Resolve a backend from a name or an instance.

    ``None`` means ``scalar``.  An already-built backend passes
    through untouched, letting tests inject doubles.
    """
    if kernel is None:
        kernel = ScalarKernel.name
    if not isinstance(kernel, str):
        return kernel
    try:
        return _KERNELS[kernel]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {kernel!r}; "
            f"available: {', '.join(available_kernels())}"
        ) from None
