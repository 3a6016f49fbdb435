"""SeedExtender: the speculate-and-test seed-extension pipeline.

This is the top-level algorithmic API of the reproduction.  It mirrors
the SeedEx system workflow (paper Figure 6/7) in software:

1. run the extension on a **narrow band** (the speculation);
2. apply the **optimality checks**;
3. on failure, **rerun with the full band** (the paper does this on the
   host CPU; the 2% rerun rate is the price of the 6x smaller array).

The result returned to the caller is always bit-equivalent to a
full-band run — either because the checks proved it, or because the
full band actually ran.

>>> from repro import SeedExtender
>>> from repro.genome.sequence import encode
>>> ext = SeedExtender(band=41)
>>> out = ext.extend(encode("ACGTACGTAC"), encode("ACGTTCGTAC"), h0=10)
>>> out.result.gscore >= 0
True
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.align.banded import ExtensionResult
from repro.align.scoring import BWA_MEM_SCORING, AffineGap
from repro.core.checker import (
    CheckConfig,
    CheckDecision,
    CheckOutcome,
    OptimalityChecker,
)
from repro.obs import names
from repro.obs.metrics import MetricsRegistry


class ExtenderStats:
    """Running accounting of check outcomes across extensions.

    ``passing_rate`` is Figure 14's y-axis; ``threshold_only_rate``
    counts extensions the thresholding alone would have admitted.

    The counts live in a :class:`~repro.obs.metrics.MetricsRegistry` —
    by default a private one, or a shared registry passed by the
    caller (the CLI passes the process-wide registry so ``repro.cli
    stats``/``--metrics-out`` and these properties report from one
    source of truth).  The public properties are a stable façade over
    the registry-backed counters.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._total = reg.counter(
            names.EXTENSIONS_TOTAL, "extensions checked"
        )
        self._outcomes = {
            outcome: reg.counter(
                names.CHECK_OUTCOME,
                "check decisions by outcome",
                outcome=outcome.value,
            )
            for outcome in CheckOutcome
        }
        self._narrow_cells = reg.counter(
            names.CELLS_NARROW, "narrow-band DP cells filled"
        )
        self._rerun_cells = reg.counter(
            names.CELLS_RERUN, "full-band rerun DP cells filled"
        )
        self._narrow_hist = reg.histogram(
            names.CELLS_PER_EXTENSION,
            "DP cells filled by one extension",
            stage="narrow",
        )
        self._rerun_hist = reg.histogram(
            names.CELLS_PER_EXTENSION,
            "DP cells filled by one extension",
            stage="rerun",
        )

    def record(self, decision: CheckDecision) -> None:
        """Account one check decision."""
        self._total.inc()
        self._outcomes[decision.outcome].inc()

    def record_narrow(self, cells: int) -> None:
        """Account one narrow-band fill of ``cells`` DP cells."""
        self._narrow_cells.inc(cells)
        self._narrow_hist.observe(cells)

    def record_rerun(self, cells: int) -> None:
        """Account one full-band rerun of ``cells`` DP cells."""
        self._rerun_cells.inc(cells)
        self._rerun_hist.observe(cells)

    def reset(self) -> None:
        """Zero every count (registry objects stay registered)."""
        self._total.reset()
        for counter in self._outcomes.values():
            counter.reset()
        self._narrow_cells.reset()
        self._rerun_cells.reset()
        self._narrow_hist.reset()
        self._rerun_hist.reset()

    @property
    def total(self) -> int:
        """Extensions checked so far."""
        return self._total.value

    @property
    def by_outcome(self) -> dict[CheckOutcome, int]:
        """Nonzero check-outcome counts (compatibility façade)."""
        return {
            outcome: counter.value
            for outcome, counter in self._outcomes.items()
            if counter.value
        }

    @property
    def narrow_cells(self) -> int:
        """DP cells filled by narrow-band speculation."""
        return self._narrow_cells.value

    @property
    def rerun_cells(self) -> int:
        """DP cells filled by full-band reruns."""
        return self._rerun_cells.value

    @property
    def passed(self) -> int:
        """Extensions accepted by the checks."""
        return sum(
            n for o, n in self.by_outcome.items() if o.passed
        )

    @property
    def reruns(self) -> int:
        """Extensions sent to the full-band rerun."""
        return self.total - self.passed

    @property
    def passing_rate(self) -> float:
        """Figure 14's overall passing rate (0.0 when empty)."""
        return self.passed / self.total if self.total else 0.0

    @property
    def threshold_only_rate(self) -> float:
        """Fraction admitted by thresholding alone (0.0 when empty)."""
        n = self.by_outcome.get(CheckOutcome.PASS_S2, 0)
        return n / self.total if self.total else 0.0

    @property
    def rerun_rate(self) -> float:
        """Fraction sent to the full-band rerun (0.0 when empty)."""
        return self.reruns / self.total if self.total else 0.0


@dataclass(frozen=True)
class SeedExOutput:
    """One extension's final answer plus its provenance.

    ``result`` is always full-band-equivalent.  ``rerun`` tells whether
    the full band actually had to run; ``narrow_result`` and
    ``decision`` expose the speculation for accounting.
    """

    result: ExtensionResult
    narrow_result: ExtensionResult
    decision: CheckDecision
    rerun: bool


class SeedExtender:
    """Narrow-band extension with guaranteed-optimal results.

    Parameters mirror the paper's configuration space: ``band`` is the
    narrow band (the paper picks 41), ``scoring`` the affine-gap scheme
    (BWA-MEM's default), and ``config`` selects check variants for the
    ablation studies.  ``kernel`` picks the DP backend
    (:func:`repro.kernels.get_kernel`): a name, an instance, or
    ``None`` for the environment default — results are bit-identical
    either way.
    """

    def __init__(
        self,
        band: int = 41,
        scoring: AffineGap = BWA_MEM_SCORING,
        config: CheckConfig | None = None,
        registry: MetricsRegistry | None = None,
        kernel=None,
    ) -> None:
        from repro.kernels import get_kernel

        if band < 1:
            raise ValueError("band must be at least 1")
        self.band = band
        self.scoring = scoring
        self.kernel = get_kernel(kernel)
        self.checker = OptimalityChecker(scoring, config)
        self.stats = ExtenderStats(registry)

    def extend(
        self,
        query: np.ndarray,
        target: np.ndarray,
        h0: int,
        full_band: int | None = None,
    ) -> SeedExOutput:
        """Extend one (query, target, h0) job.

        ``full_band`` optionally caps the rerun band (BWA-MEM's
        estimated band); the default reruns with the complete matrix.
        """
        with obs.span(names.SPAN_EXTEND_NARROW):
            narrow = self.kernel.extend(
                query, target, self.scoring, h0, w=self.band
            )
        with obs.span(names.SPAN_EXTEND_CHECK):
            decision = self.checker.check(query, target, narrow)
        self.stats.record(decision)
        self.stats.record_narrow(narrow.cells_computed)
        if decision.passed:
            return SeedExOutput(narrow, narrow, decision, rerun=False)
        with obs.span(names.SPAN_EXTEND_RERUN):
            full = self.kernel.extend(
                query, target, self.scoring, h0, w=full_band
            )
        self.stats.record_rerun(full.cells_computed)
        return SeedExOutput(full, narrow, decision, rerun=True)

    def extend_batch(
        self,
        jobs: list[tuple[np.ndarray, np.ndarray, int]],
    ) -> list[SeedExOutput]:
        """Extend a batch of (query, target, h0) jobs in order.

        Order is a contract, not an accident: ``result[k]`` always
        belongs to ``jobs[k]``, regardless of how the active backend
        reorders, buckets, or pads work internally (the lockstep sweep
        plans jobs into cell-balanced buckets, tallest first, and
        scatters results back).
        Backends raise :class:`repro.align.banded.BatchShapeError` when
        the per-job query/target/h0 lists disagree in length.
        """
        return [self.extend(q, t, h0) for q, t, h0 in jobs]

    def extend_many(
        self,
        jobs: list[tuple[np.ndarray, np.ndarray, int]],
    ) -> list[SeedExOutput]:
        """Batch-vectorized :meth:`extend_batch`.

        All narrow-band runs execute in lockstep through the backend's
        batch kernel, the checks run per job, and the failures rerun
        full-band as a second batch.  Results are bit-identical to
        :meth:`extend_batch`, just much faster — this is the
        accelerator-shaped way to drive the model.

        The same positional contract holds: ``out[k]`` is the result
        for ``jobs[k]`` even when the backend buckets or reorders jobs
        internally, and malformed batches surface as
        :class:`repro.align.banded.BatchShapeError` from the kernel.
        """
        if not jobs:
            return []
        batch_kernel = self.kernel.extend_batch
        queries = [q for q, _, _ in jobs]
        targets = [t for _, t, _ in jobs]
        h0s = [h0 for _, _, h0 in jobs]
        with obs.span(names.SPAN_EXTEND_NARROW, jobs=len(jobs)):
            narrow = batch_kernel(
                queries, targets, h0s, self.scoring, w=self.band
            )
        decisions = []
        rerun_idx = []
        with obs.span(names.SPAN_EXTEND_CHECK, jobs=len(jobs)):
            for k, res in enumerate(narrow):
                decision = self.checker.check(queries[k], targets[k], res)
                self.stats.record(decision)
                self.stats.record_narrow(res.cells_computed)
                decisions.append(decision)
                if not decision.passed:
                    rerun_idx.append(k)
        reruns: dict[int, ExtensionResult] = {}
        if rerun_idx:
            with obs.span(names.SPAN_EXTEND_RERUN, jobs=len(rerun_idx)):
                full = batch_kernel(
                    [queries[k] for k in rerun_idx],
                    [targets[k] for k in rerun_idx],
                    [h0s[k] for k in rerun_idx],
                    self.scoring,
                )
            for k, res in zip(rerun_idx, full):
                reruns[k] = res
                self.stats.record_rerun(res.cells_computed)
        out = []
        for k, res in enumerate(narrow):
            if k in reruns:
                out.append(
                    SeedExOutput(reruns[k], res, decisions[k], True)
                )
            else:
                out.append(SeedExOutput(res, res, decisions[k], False))
        return out

    def reset_stats(self) -> None:
        """Clear the accumulated statistics in place."""
        self.stats.reset()
