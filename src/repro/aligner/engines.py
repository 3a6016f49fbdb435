"""The extension engine: one wave engine under a ``(band, checks)`` policy.

The Figure 13 experiment runs the same aligner with three kernels, and
they differ in exactly two settings of :class:`BatchedEngine`:

* ``(None, False)`` — the full band, the ground truth (BWA-MEM's
  software kernel); ``--engine full`` and ``--engine batched``;
* ``(w, False)`` — a narrow band with *no* checks: the naive
  accelerator whose SAM output diverges (Figure 13's rising curve);
  ``--engine banded``;
* ``(w, True)`` — the narrow band with the SeedEx checks and a
  full-band rerun wave: bit-equivalent to the full band at every band
  setting (Figure 13's flat zero); ``--engine seedex``.

:data:`ENGINE_POLICIES` is the only place the user-facing engine names
are mapped to a policy.  Every engine the CLI runs — ``align``,
``longread``, ``analyze``, ``serve`` and each ``--workers`` process —
is built from one picklable recipe, :class:`EngineSpec`, through
:func:`make_engine` and (for the chaos/breaker flags)
:func:`make_resilient`.

Every wave path — the short-read window, the paired rescue and the
long-read ends — reaches the engine through one step,
:func:`repro.aligner.waves.extend_side`, and every engine it reaches
takes whole waves (:class:`ExtensionEngine`):
:meth:`BatchedEngine.extend_wave` is one call under the policy and
keeps nothing between waves, and the resilience dispatcher runs a
wave down its ladder in rounds, each one engine call over the jobs
still pending, then one host wave.  Nothing extends one job alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro import obs
from repro.align.banded import ExtensionResult
from repro.align.scoring import BWA_MEM_SCORING, AffineGap
from repro.constants import DEFAULT_BAND
from repro.core.extender import SeedExtender
from repro.kernels import get_kernel
from repro.obs import names
from repro.obs.metrics import MetricsRegistry

ENGINE_POLICIES: dict[str, tuple[bool, bool]] = {
    "full": (False, False),
    "batched": (False, False),
    "banded": (True, False),
    "seedex": (True, True),
}
"""``--engine`` / ``EngineSpec.kind`` -> ``(narrow band?, checks?)``."""


def _account(name: str, cells: int, jobs: int = 1) -> None:
    """Per-engine counters in the global registry (when enabled)."""
    if obs.enabled():
        reg = obs.get_registry()
        reg.counter(
            names.ENGINE_EXTENSIONS, "extensions served", engine=name
        ).inc(jobs)
        reg.counter(
            names.ENGINE_CELLS, "DP cells filled", engine=name
        ).inc(cells)


class ExtensionEngine(Protocol):
    """Anything the read driver can hand a wave of extension jobs."""

    name: str
    scoring: AffineGap

    def extend_wave(
        self, jobs: list[tuple[np.ndarray, np.ndarray, int]]
    ) -> list[ExtensionResult | None]:
        """Run a wave of ``(query, target, h0)`` jobs; one result per
        job, in job order, ``None`` for a job that was dead-lettered."""
        ...


class BatchedEngine:
    """Wave-dispatched kernel: whole job batches in lockstep.

    The accelerator consumes thousands of independent extensions at a
    time (paper Section V-B); this engine is the software analogue.
    :meth:`extend_wave` pushes a whole wave of ``(query, target, h0)``
    jobs through the backend's batch kernel — on every backend the one
    lockstep sweep :func:`repro.align.lockstep.extend_batch` — with
    per-job results bit-equal to the per-job reference
    (``banded.extend(..., prune=False)``), property-tested in
    ``tests/aligner/test_batched_engine.py`` and ``tests/kernels/``.

    The policy is two settings.  ``band=None`` runs every job at the
    full band (the ground truth); a fixed ``band`` with
    ``checks=False`` is the naive narrow-band accelerator (unsound);
    ``checks=True`` sends each wave through
    :meth:`~repro.core.extender.SeedExtender.extend_many` — narrow
    wave, optimality checks, one full-band rerun wave for the failures
    — so SAM output is byte-identical to the full band at any band,
    and :attr:`stats` reports the check outcomes.

    The resilience dispatcher sends it each round of a wave and its
    host fallback wave.  Every job is computed, equal ones included;
    no wave ever dead-letters a job.
    """

    def __init__(
        self,
        band: int | None = None,
        scoring: AffineGap = BWA_MEM_SCORING,
        kernel=None,
        checks: bool = False,
    ) -> None:
        if band is not None and band < 1:
            raise ValueError("band must be at least 1 (or None)")
        if checks and band is None:
            raise ValueError("checks need a narrow band to test")
        self.name = _policy_name(band, checks)
        self.band = band
        self.checks = checks
        self.scoring = scoring
        self.kernel = get_kernel(kernel)
        self._extender = None
        if checks:
            # The check counters join the process-wide registry when
            # it is collecting, so --metrics-out, `analyze` and
            # `stats` report from one source.
            self._extender = SeedExtender(
                band=band,
                scoring=scoring,
                registry=obs.get_registry() if obs.enabled() else None,
                kernel=self.kernel,
            )
        self.extensions = 0
        self.cells = 0

    @property
    def stats(self):
        """Check-outcome accounting; ``None`` without ``checks``."""
        return None if self._extender is None else self._extender.stats

    def extend_wave(self, jobs) -> list[ExtensionResult]:
        """Run a wave of ``(query, target, h0)`` jobs in lockstep.

        Results come back in job order.  With checks, the wave goes
        through :meth:`~repro.core.extender.SeedExtender.extend_many`,
        whose full-band rerun wave's cells are accounted by
        :attr:`stats`; :attr:`cells` counts the speculation.
        """
        self.extensions += len(jobs)
        if not jobs:
            return []
        if self._extender is not None:
            outs = self._extender.extend_many(jobs)
            results = [out.result for out in outs]
            cells = sum(out.narrow_result.cells_computed for out in outs)
        else:
            with obs.span(names.SPAN_EXTEND_BATCH, jobs=len(jobs)):
                results = self.kernel.extend_batch(
                    [q for q, _, _ in jobs],
                    [t for _, t, _ in jobs],
                    [h0 for _, _, h0 in jobs],
                    self.scoring,
                    w=self.band,
                )
            cells = sum(res.cells_computed for res in results)
        self.cells += cells
        _account(self.name, cells, jobs=len(jobs))
        return results


def _policy_name(band: int | None, checks: bool) -> str:
    """The engine label a ``(band, checks)`` policy reports."""
    if band is None:
        return "full-band"
    return f"{'seedex' if checks else 'banded'}-w{band}"


def _resolve_policy(
    kind: str, band: int | None = None
) -> tuple[int | None, bool]:
    """The ``(band, checks)`` policy an ``--engine`` name stands for.

    ``band`` applies only to the narrow-band kinds.  The checked kind
    defaults to the paper's band; an unchecked narrow band has no safe
    default and must be given.
    """
    if kind not in ENGINE_POLICIES:
        raise ValueError(f"unknown engine kind {kind!r}")
    narrow, checks = ENGINE_POLICIES[kind]
    if not narrow:
        band = None
    elif band is None:
        if not checks:
            raise ValueError(f"kind={kind!r} needs a band")
        band = DEFAULT_BAND
    return band, checks


def make_engine(
    kind: str, band: int | None = None, **options
) -> BatchedEngine:
    """The engine a user-facing ``--engine`` name stands for.

    ``band`` resolves as in :func:`_resolve_policy`; ``options`` go to
    :class:`BatchedEngine` (``kernel``, ``scoring``).
    """
    band, checks = _resolve_policy(kind, band)
    return BatchedEngine(band=band, checks=checks, **options)


def make_resilient(
    engine: BatchedEngine,
    fault_rate: float = 0.0,
    fault_seed: int = 0,
    max_retries: int = 3,
    timeout_s: float = 0.25,
    registry: MetricsRegistry | None = None,
    host_queue_capacity: int | None = None,
    fault_sites: tuple[str, ...] | None = None,
    sleep=None,
    breaker_threshold: int | None = None,
    breaker_probe_interval: int = 32,
):
    """Wrap ``engine`` in the chaos/resilience layer.

    With ``fault_rate == 0`` no injector is attached and the
    dispatcher is a measured no-op passthrough (one engine call per
    wave); with a positive rate the engine's datapath runs through the
    faultable I/O seams (:mod:`repro.faults`) and the retry →
    host-rerun → dead-letter ladder guarantees the result anyway.
    Returns a :class:`~repro.faults.resilience.ResilientDispatcher`,
    which satisfies the :class:`ExtensionEngine` protocol: it takes a
    wave and runs it down the ladder in rounds.

    ``breaker_threshold`` (``None`` = no breaker) arms a
    :class:`~repro.durability.breaker.CircuitBreaker`: that many
    consecutive host fallbacks trip it open and jobs short-circuit to
    the host kernel, re-probing the accelerator every
    ``breaker_probe_interval`` jobs (backed off while it keeps
    failing).  See ``docs/durability.md``.
    """
    # Local import keeps the engine module importable without pulling
    # the faults package into every pipeline run.
    from repro.faults.chaos import ChaosEngine
    from repro.faults.injector import FaultInjector
    from repro.faults.resilience import ResilientDispatcher, RetryPolicy

    injector = None
    wrapped = engine
    if fault_rate > 0.0:
        injector = FaultInjector(
            rate=fault_rate, seed=fault_seed, sites=fault_sites
        )
        wrapped = ChaosEngine(engine, injector)
    breaker = None
    if breaker_threshold is not None:
        from repro.durability.breaker import BreakerPolicy, CircuitBreaker

        breaker = CircuitBreaker(
            BreakerPolicy(
                failure_threshold=breaker_threshold,
                probe_interval=breaker_probe_interval,
            ),
            registry=registry,
        )
    kwargs = {} if sleep is None else {"sleep": sleep}
    return ResilientDispatcher(
        wrapped,
        policy=RetryPolicy(max_retries=max_retries, timeout_s=timeout_s),
        injector=injector,
        registry=registry,
        host_queue_capacity=host_queue_capacity,
        seed=fault_seed,
        breaker=breaker,
        **kwargs,
    )


@dataclass(frozen=True)
class EngineSpec:
    """A picklable recipe for building an extension engine.

    ``kind`` is a user-facing engine name (``full``, ``banded``,
    ``batched``, ``seedex``), resolved to a ``(band, checks)`` policy
    by :func:`make_engine`; ``band`` is required for ``banded``,
    optional for ``seedex`` and unused by the full-band kinds.  The
    chaos fields mirror the CLI's ``--chaos`` flags: with
    ``chaos=True`` the built engine is wrapped in the fault-injecting
    resilient dispatcher, each worker running its own injector (same
    seed, disjoint job streams).  ``breaker_threshold`` (``None`` =
    off) arms the accelerator circuit breaker inside that dispatcher
    — see :mod:`repro.durability.breaker`.  ``kernel`` names the DP
    backend (``scalar``/``numpy``/``striped``, all one lockstep sweep;
    ``None`` = ``scalar``) — a name rather than an instance so the spec
    stays picklable.

    The fields are the engine part of a journaled run's configuration
    fingerprint (:func:`repro.durability.runner.run_fingerprint`), so
    they are the whole recipe and nothing else.
    """

    kind: str = "full"
    band: int | None = None
    kernel: str | None = None
    chaos: bool = False
    fault_rate: float = 0.01
    fault_seed: int = 0
    max_retries: int = 3
    timeout_s: float = 0.25
    breaker_threshold: int | None = None
    breaker_probe_interval: int = 32

    @property
    def engine_name(self) -> str:
        """The label of the engine :meth:`engine` builds, unbuilt."""
        return _policy_name(*_resolve_policy(self.kind, self.band))

    def engine(self) -> BatchedEngine:
        """The bare wave engine: the policy on the named backend."""
        return make_engine(self.kind, self.band, kernel=self.kernel)

    def wrap(self, engine):
        """``engine`` behind the resilient dispatcher when the chaos or
        breaker fields ask for one; ``engine`` itself otherwise."""
        if not self.chaos and self.breaker_threshold is None:
            return engine
        return make_resilient(
            engine,
            fault_rate=self.fault_rate if self.chaos else 0.0,
            fault_seed=self.fault_seed,
            max_retries=self.max_retries,
            timeout_s=self.timeout_s,
            registry=obs.get_registry() if obs.enabled() else None,
            breaker_threshold=self.breaker_threshold,
            breaker_probe_interval=self.breaker_probe_interval,
        )

    def build(self):
        """Construct the engine (plus chaos wrapper) this spec names."""
        return self.wrap(self.engine())
