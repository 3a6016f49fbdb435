"""Deferred-extension wave scheduling: batch across reads, not rows.

The one read driver: ``align`` (any ``--engine``, any worker count,
single-end or paired), ``analyze`` and ``serve`` all come through
here, and :meth:`~repro.aligner.pipeline.Aligner.align_read` is a
window of one.  Extending one chain at a time would never show the
lockstep sweep (:mod:`repro.align.lockstep`) a real batch, so
this scheduler restores the accelerator's working set (paper Section
V-B): it walks seed/chain for a whole *window* of reads, collects
every left extension into one wave, dispatches the wave in lockstep,
resolves the left endpoints, then dispatches every surviving right
extension as a second wave — preserving BWA-MEM's ``h0`` threading,
where the right job's initial score is the left job's result — and
traces the winners back a bounded bucket of direction codes at a time.

That left → right step is :func:`extend_side`, and it is the only
way any path extends a wave: the short-read window here, the paired
mate rescue (:meth:`~repro.aligner.paired.PairedAligner.align_pairs_batched`)
and the long-read ends (:meth:`~repro.aligner.longread.LongReadAligner.align_batch`).
Each then stitches its CIGAR with
:func:`~repro.aligner.pipeline.stitch_cigar`.

Semantics are byte-identical to the per-read reference driver
(``tests/reference_drivers.py``; the byte-identity harness in
``tests/test_byte_identity.py`` holds SAM output fixed across
engine policies x window sizes x worker counts):

* job geometry comes from the same :class:`~repro.aligner.pipeline.Aligner`
  helpers the reference uses;
* a chain whose left extension dies (``l_end == (0, 0)`` with no
  score) is dropped before the right wave, exactly as the reference
  short-circuits;
* candidates accumulate in reference order — forward-orientation
  chains then reverse, in chain-filter order — so tie-breaking in the
  final sort is unchanged;
* every engine takes whole waves (``extend_wave``).  The resilience
  dispatcher runs a wave down its ladder in rounds, retrying only
  the jobs whose frames faulted, and answers a dead-lettered job with
  ``None``, so that job degrades **alone** — its chain, not its whole
  wave (the rescue and long-read paths answer it with their checked
  fallback extender instead).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.align import fullmatrix
from repro.align.cigar import Cigar
from repro.align.lockstep import plan_buckets
from repro.aligner.pipeline import (
    DEGRADED,
    AlignmentCandidate,
    _resolve_end,
)
from repro.genome.sam import SamRecord
from repro.genome.sequence import reverse_complement
from repro.obs import names
from repro.seeding.chaining import chain_seeds, filter_chains

DEFAULT_BATCH_SIZE = 4096
"""Reads per scheduling window (the paper's batch geometry)."""


@dataclass
class _ReadState:
    """Per-read bookkeeping while its chains move through the waves."""

    name: str
    codes: np.ndarray
    n_seeds: int = 0
    n_chains: int = 0
    n_degraded: int = 0
    chains: "list[_ChainState]" = field(default_factory=list)


@dataclass
class _ChainState:
    """One chain's extension state across the left and right waves."""

    read: _ReadState
    reverse: bool
    query: np.ndarray
    chain: object
    left_job: tuple
    right_job: tuple | None = None
    left: tuple | None = None
    right: tuple | None = None
    dropped: bool = False
    degraded: bool = False

    @property
    def alive(self) -> bool:
        """Still a candidate: neither dropped nor degraded."""
        return not (self.dropped or self.degraded)


def _count_wave(reg, side: str, jobs: int) -> None:
    """The per-wave counters every wave kind shares."""
    reg.counter(
        names.PIPELINE_BATCH_WAVES, "extension waves", side=side
    ).inc()
    reg.counter(names.PIPELINE_BATCH_JOBS, "wave jobs", side=side).inc(jobs)
    reg.histogram(
        names.PIPELINE_BATCH_WAVE_JOBS, "jobs per wave", side=side
    ).observe(jobs)


def _dispatch_wave(engine, jobs: list[tuple], side: str) -> list:
    """Run one wave of jobs; returns a result (or ``DEGRADED``) per job.

    The engine gets the whole wave in one ``extend_wave`` call; a job
    it dead-lettered comes back as ``None`` and degrades alone.
    """
    if not jobs:
        return []
    with obs.span(names.SPAN_PIPELINE_WAVE, side=side, jobs=len(jobs)):
        results = [
            DEGRADED if res is None else res
            for res in engine.extend_wave(jobs)
        ]
    if obs.enabled():
        reg = obs.get_registry()
        _count_wave(reg, side, len(jobs))
        degraded = sum(1 for r in results if r is DEGRADED)
        if degraded:
            reg.counter(
                names.PIPELINE_BATCH_JOBS_DEGRADED,
                "wave jobs dead-lettered individually",
            ).inc(degraded)
    return results


def _collect_chains(aligner, window) -> tuple[list[_ReadState], list[_ChainState]]:
    """Seed both strands of every read of the window in one call, then
    chain each strand and build chain states."""
    reads = [
        _ReadState(name=name, codes=np.asarray(codes, dtype=np.uint8))
        for name, codes in window
    ]
    strands = [
        (state, reverse, query)
        for state in reads
        for reverse, query in (
            (False, state.codes),
            (True, reverse_complement(state.codes)),
        )
    ]
    with obs.span(names.SPAN_ALIGNER_SEED):
        seeded = aligner._seed_window([query for _, _, query in strands])
    chains: list[_ChainState] = []
    for (state, reverse, query), seeds in zip(strands, seeded):
        with obs.span(names.SPAN_ALIGNER_CHAIN):
            kept = filter_chains(
                chain_seeds(seeds), max_chains=aligner.max_chains
            )
        state.n_seeds += len(seeds)
        state.n_chains += len(kept)
        for chain in kept:
            cs = _ChainState(
                read=state,
                reverse=reverse,
                query=query,
                chain=chain,
                left_job=aligner._left_job(query, chain),
            )
            state.chains.append(cs)
            chains.append(cs)
    return reads, chains


def extend_side(engine, jobs: list[tuple], side: str, fallback=None) -> list:
    """Extend one side of many chains as one wave; resolve each job.

    The host's per-chain schedule (paper Section V-B) is this step run
    twice: left jobs, then right jobs whose ``h0`` is the left score.
    ``jobs`` are ``(query, target, h0)``; each comes back, in job
    order, as its ``(endpoint, score, clipped)`` resolution
    (:func:`~repro.aligner.pipeline._resolve_end`).  An empty query has
    nothing to extend and resolves to ``((0, 0), h0, 0)`` without
    reaching the engine; the rest go out as one :func:`_dispatch_wave`.
    A dead-lettered job resolves through ``fallback`` (a checked
    :class:`~repro.core.extender.SeedExtender`, one
    :meth:`~repro.core.extender.SeedExtender.extend_many` wave over
    every such job) when one is given, and is ``DEGRADED`` otherwise.
    """
    out: list = [((0, 0), h0, 0) for _, _, h0 in jobs]
    pending = [k for k, (query, _, _) in enumerate(jobs) if len(query)]
    results = dict(zip(
        pending, _dispatch_wave(engine, [jobs[k] for k in pending], side)
    ))
    dead = [k for k, res in results.items() if res is DEGRADED]
    if dead and fallback is not None:
        checked = fallback.extend_many([jobs[k] for k in dead])
        results.update((k, c.result) for k, c in zip(dead, checked))
    for k, res in results.items():
        out[k] = res if res is DEGRADED else _resolve_end(res, jobs[k][2])
    return out


def _run_left_wave(aligner, chains: list[_ChainState]) -> None:
    """Extend every left side; a chain whose left extension dies at the
    origin with no score is dropped."""
    lefts = extend_side(
        aligner.engine, [cs.left_job for cs in chains], "left"
    )
    for cs, left in zip(chains, lefts):
        if left is DEGRADED:
            cs.degraded = True
        else:
            cs.left = left
            cs.dropped = left[0] == (0, 0) and left[1] <= 0


def _run_right_wave(aligner, chains: list[_ChainState]) -> None:
    """Extend the right side of every surviving chain (``h0`` = its
    left score)."""
    live = [cs for cs in chains if cs.alive]
    for cs in live:
        cs.right_job = aligner._right_job(cs.query, cs.chain, cs.left[1])
    rights = extend_side(
        aligner.engine, [cs.right_job for cs in live], "right"
    )
    for cs, right in zip(live, rights):
        if right is DEGRADED:
            cs.degraded = True
        else:
            cs.right = right


def traceback_wave(
    scoring, jobs: list[tuple[np.ndarray, np.ndarray, int, tuple[int, int]]]
) -> list[Cigar]:
    """Origin-to-endpoint CIGARs of ``(query, target, h0, end)`` jobs.

    The paper's once-per-read host step, as a wave.  The recurrence
    looks up and left only, so a walk from ``end = (i, j)`` reads
    nothing outside ``target[:i] x query[:j]``: each job is clipped to
    its endpoint, the clipped jobs are bucketed by padded shape
    (:func:`~repro.align.lockstep.plan_buckets`, the planner every
    lockstep extension sweep and gap fill shares), and each bucket is
    filled in lockstep, walked, and dropped — peak memory is two
    buckets of direction codes (one filling, one just walked) plus the
    ops kept, whatever the window's read count.
    """
    queries = [q[: end[1]] for q, _, _, end in jobs]
    targets = [t[: end[0]] for _, t, _, end in jobs]
    cigars: list[Cigar | None] = [None] * len(jobs)
    for bucket in plan_buckets(queries, targets):
        bq = [queries[k] for k in bucket]
        bt = [targets[k] for k in bucket]
        with obs.span(
            names.SPAN_PIPELINE_WAVE, side="traceback", jobs=len(bucket)
        ):
            filled = fullmatrix.fill_extension_batch(
                bq, bt, scoring, [jobs[k][2] for k in bucket]
            )
        if obs.enabled():
            reg = obs.get_registry()
            _count_wave(reg, "traceback", len(bucket))
            reg.counter(
                names.PIPELINE_BATCH_TRACEBACK_CELLS,
                "matrix cells of the clipped traceback jobs",
            ).inc(sum(bits.size for bits in filled))
            reg.counter(
                names.PIPELINE_BATCH_TRACEBACK_PADDED_CELLS,
                "cells swept by the lockstep traceback fills",
            ).inc(filled[0].base.size)
        for k, bits, q, t in zip(bucket, filled, bq, bt):
            with obs.span(names.SPAN_ALIGNER_TRACEBACK):
                cigars[k] = fullmatrix.traceback_path(
                    bits, q, t, scoring, (len(t), len(q))
                )
    return cigars


def trace_sides(
    scoring, pairs: list[tuple[tuple | None, tuple | None]]
) -> list[tuple[Cigar | None, Cigar | None]]:
    """One :func:`traceback_wave` over ``(left, right)`` job pairs.

    A side with no job (``None``) stays ``None`` in its pair.
    """
    walks = iter(
        traceback_wave(
            scoring,
            [job for pair in pairs for job in pair if job is not None],
        )
    )
    return [
        tuple(None if job is None else next(walks) for job in pair)
        for pair in pairs
    ]


def _finalize_window(aligner, reads: list[_ReadState]) -> list[SamRecord]:
    """Best-candidate selection, traceback wave, SAM records in order.

    Selection runs per read exactly as the scalar path does; then every
    winning extension that needs a walk goes through one traceback
    wave (:func:`trace_sides`).
    """
    records: list[SamRecord | None] = []
    winners: list[tuple[int, AlignmentCandidate, int]] = []
    for state in reads:
        candidates: list[AlignmentCandidate] = []
        for cs in state.chains:
            if cs.degraded:
                state.n_degraded += 1
            elif not cs.dropped:
                candidates.append(
                    aligner._make_candidate(
                        cs.chain, cs.reverse, cs.left_job, cs.right_job,
                        cs.left, cs.right,
                    )
                )
        picked = aligner._select_candidate(
            state.codes,
            state.name,
            candidates,
            state.n_seeds,
            state.n_chains,
            state.n_degraded,
        )
        if isinstance(picked, SamRecord):
            records.append(picked)
        else:
            best, mapq = picked
            winners.append((len(records), best, mapq))
            records.append(None)

    sides = trace_sides(
        aligner.scoring, [best.traceback_jobs() for _, best, _ in winners]
    )
    for (slot, best, mapq), (left, right) in zip(winners, sides):
        cigar = aligner._traceback(best, left, right)
        state = reads[slot]
        records[slot] = aligner._record(
            state.codes, state.name, best, mapq, cigar
        )
    return records


def align_window(aligner, window, on_record=None) -> list[SamRecord]:
    """Align one window of ``(name, codes)`` reads via two waves.

    ``on_record``, when given, is called as ``on_record(i, record)``
    for each finished read in window order the moment the window's
    traceback wave resolves — the streaming hook ``repro serve`` uses
    to answer each request without waiting for a whole run.  The
    callback must not mutate the aligner; records are computed before
    the first call, so output is identical with or without it.
    """
    with obs.span(names.SPAN_PIPELINE_WINDOW, reads=len(window)):
        reads, chains = _collect_chains(aligner, window)
        _run_left_wave(aligner, chains)
        _run_right_wave(aligner, chains)
        records = _finalize_window(aligner, reads)
    if on_record is not None:
        for i, record in enumerate(records):
            on_record(i, record)
    return records


def normalize_reads(reads) -> list[tuple[str, np.ndarray]]:
    """Reads as ``(name, uint8 codes)``; ``SimulatedRead``-likes too."""
    pairs = ((r.name, r.codes) if hasattr(r, "codes") else r for r in reads)
    return [(name, np.asarray(c, dtype=np.uint8)) for name, c in pairs]


def align_batched(
    aligner,
    reads,
    batch_size: int = DEFAULT_BATCH_SIZE,
    progress=None,
    on_record=None,
) -> list[SamRecord]:
    """Align ``reads`` window by window through the wave scheduler.

    ``reads`` may be ``(name, codes)`` pairs or ``SimulatedRead``-like
    objects.  Records come back in input order, byte-identical to the
    per-read reference at any window size.  ``progress``, when given,
    is called after each completed window as ``progress(window_index,
    done, total)``; ``on_record(global_index, record)`` fires per read
    as its window finishes.  Neither callback may mutate the aligner
    (the scheduler's output stays byte-identical whether callbacks are
    attached or not).
    """
    if batch_size < 1:
        raise ValueError("batch size must be at least 1")
    normalized = normalize_reads(reads)
    records: list[SamRecord] = []
    for index, start in enumerate(range(0, len(normalized), batch_size)):
        base = len(records)
        window_cb = None
        if on_record is not None:
            window_cb = lambda i, rec, _b=base: on_record(_b + i, rec)
        records.extend(
            align_window(
                aligner,
                normalized[start : start + batch_size],
                on_record=window_cb,
            )
        )
        if progress is not None:
            progress(index, len(records), len(normalized))
    return records
