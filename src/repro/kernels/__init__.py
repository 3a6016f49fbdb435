"""Kernel backends: pluggable implementations of the DP fills.

The four fills the pipeline runs — the banded extension, its batched
form, and the suffix-prefix overlap fill single and batched — go
through a :class:`KernelBackend`.  The optimality checks (S1/S2
thresholds, the relaxed-edit trapezoid sweep) have one implementation
each in :mod:`repro.core` and do not depend on the backend.  Three
implementations ship:

* ``scalar`` (:mod:`repro.kernels.scalar`) — the original row-oriented
  kernels, the default;
* ``numpy`` (:mod:`repro.kernels.wavefront`) — anti-diagonal
  (wavefront) kernels that vectorize along the dependency-free
  diagonals, the way the accelerator's systolic array does;
* ``striped`` (:mod:`repro.kernels.striped`) — inter-sequence lockstep
  fills: every extension batch goes to the one lockstep sweep, which
  plans it into cell-balanced buckets and advances every job of a
  bucket together, the way the accelerator fills its PE array with
  many independent extensions.

Backends are bit-identical on everything observable (scores, CIGARs,
boundary channels, accept/rerun verdicts) — only the
execution-shape fields (``cells_computed``, ``terminated_early``) may
reflect the backend's own schedule.  The cross-kernel conformance
suite (``tests/kernels/``) enforces this, and CI diffs whole SAM
files between backends byte for byte.

Selection: pass ``kernel=`` to :class:`~repro.core.extender.SeedExtender`
or the engines, use the CLI's ``--kernel`` flag, or set the
``REPRO_KERNEL`` environment variable (the default when nothing is
passed; unset means ``scalar``).
"""

from __future__ import annotations

import os
from typing import Protocol, runtime_checkable

import numpy as np

from repro.align.banded import BatchShapeError, ExtensionResult
from repro.align.overlapdp import OverlapResult
from repro.align.scoring import AffineGap
from repro.kernels.scalar import ScalarKernel
from repro.kernels.striped import StripedKernel
from repro.kernels.wavefront import WavefrontKernel

KERNEL_ENV_VAR = "REPRO_KERNEL"
"""Environment variable consulted when no kernel is named explicitly."""


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
        ...

    def extend_batch(
        self,
        queries: list[np.ndarray],
        targets: list[np.ndarray],
        h0s: list[int],
        scoring: AffineGap,
        w: int | None = None,
    ) -> list[ExtensionResult]:
        """Run a batch of extension jobs, results in input order."""
        ...

    def overlap(
        self,
        query: np.ndarray,
        target: np.ndarray,
        scoring: AffineGap,
        w: int | None = None,
    ) -> OverlapResult:
        """Run one banded suffix-prefix overlap fill."""
        ...

    def overlap_batch(
        self,
        queries: list[np.ndarray],
        targets: list[np.ndarray],
        scoring: AffineGap,
        w: int | None = None,
    ) -> list[OverlapResult]:
        """Run a batch of overlap fills, results in input order."""
        ...


_KERNELS: dict[str, KernelBackend] = {
    ScalarKernel.name: ScalarKernel(),
    WavefrontKernel.name: WavefrontKernel(),
    StripedKernel.name: StripedKernel(),
}


def available_kernels() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_KERNELS))


def get_kernel(
    kernel: str | KernelBackend | None = None,
) -> KernelBackend:
    """Resolve a backend from a name, an instance, or the environment.

    ``None`` consults ``REPRO_KERNEL`` (so CI can flip the whole suite
    without threading a flag through every call site) and falls back
    to ``scalar``.  An already-built backend passes through untouched,
    letting tests inject doubles.
    """
    if kernel is None:
        kernel = os.environ.get(KERNEL_ENV_VAR) or ScalarKernel.name
    if not isinstance(kernel, str):
        return kernel
    try:
        return _KERNELS[kernel]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {kernel!r}; "
            f"available: {', '.join(available_kernels())}"
        ) from None


__all__ = [
    "KERNEL_ENV_VAR",
    "BatchShapeError",
    "KernelBackend",
    "OverlapResult",
    "ScalarKernel",
    "StripedKernel",
    "WavefrontKernel",
    "available_kernels",
    "get_kernel",
]
