"""The per-read and per-pair reference drivers of the byte-identity harness.

The product has one read driver, the wave scheduler
(:mod:`repro.aligner.waves`): every read and every pair goes through a
window, and a single read is a window of one.  These loops are its
independent reference.  :func:`align_reads` seeds, chains and extends
one read at a time, one chain side per ``engine.extend_wave`` call
of one job, and
walks each winner back over a dense scalar fill;
:func:`align_pairs` aligns both mates that way and rescues one mate at
a time, one candidate side per ``rescuer.extend`` call on the checked
rescuer it is given.

They share only the aligner's job geometry, candidate selection,
rescue plan and record rendering with the product — never a wave, a
lockstep fill or the window bookkeeping they judge.  Run them on a
:class:`tests.helpers.ReferenceEngine`, so every extension runs the
per-job oracle: none runs the lockstep sweep, and none is settled by
the ungapped rule either.
"""

from __future__ import annotations

import numpy as np

from repro.align.fullmatrix import fill_extension, traceback_path
from repro.aligner.pipeline import _resolve_end
from repro.genome.sam import SamRecord
from repro.genome.sequence import reverse_complement
from repro.seeding.chaining import chain_seeds, filter_chains
from repro.seeding.mems import seed_read


def align_reads(aligner, reads) -> list[SamRecord]:
    """Align ``(name, codes)`` pairs or ``SimulatedRead``-like objects
    one read at a time."""
    out = []
    for read in reads:
        name, codes = (
            (read.name, read.codes) if hasattr(read, "codes") else read
        )
        out.append(align_read(aligner, codes, name))
    return out


def align_read(aligner, codes: np.ndarray, name: str) -> SamRecord:
    """One read: seed and chain each strand, extend each chain, pick
    the winner, walk it back."""
    codes = np.asarray(codes, dtype=np.uint8)
    candidates = []
    n_seeds = n_chains = 0
    for reverse in (False, True):
        query = reverse_complement(codes) if reverse else codes
        if aligner._fm is not None:
            seeds = seed_read(aligner._fm, query, aligner.min_seed_length)
        else:
            seeds = aligner._kmer.seed_read(query)
        chains = filter_chains(
            chain_seeds(seeds), max_chains=aligner.max_chains
        )
        n_seeds += len(seeds)
        n_chains += len(chains)
        for chain in chains:
            cand = _extend_chain(aligner, query, chain, reverse)
            if cand is not None:
                candidates.append(cand)
    picked = aligner._select_candidate(
        codes, name, candidates, n_seeds, n_chains
    )
    if isinstance(picked, SamRecord):
        return picked
    best, mapq = picked
    left, right = (
        None if job is None else _trace_dense(aligner.scoring, *job)
        for job in best.traceback_jobs()
    )
    cigar = aligner._traceback(best, left, right)
    return aligner._record(codes, name, best, mapq, cigar)


def _extend_chain(aligner, query, chain, reverse):
    """Left side, then right side with the left score as ``h0``;
    ``None`` when the left side dies at the origin."""
    left_job = aligner._left_job(query, chain)
    left = _extend_side(_one_job(aligner.engine), *left_job)
    if left[0] == (0, 0) and left[1] <= 0:
        return None
    right_job = aligner._right_job(query, chain, left[1])
    right = _extend_side(_one_job(aligner.engine), *right_job)
    return aligner._make_candidate(
        chain, reverse, left_job, right_job, left, right
    )


def _one_job(engine):
    """``extend(query, target, h0)`` as a wave of one on ``engine``."""
    return lambda query, target, h0: engine.extend_wave(
        [(query, target, h0)]
    )[0]


def _extend_side(extend, query, target, h0):
    """One side, one ``extend(query, target, h0)`` call, resolved to
    ``(endpoint, score, clipped)``; an empty query resolves without a
    call."""
    if not len(query):
        return (0, 0), h0, 0
    return _resolve_end(extend(query, target, h0), h0)


def _trace_dense(scoring, query, target, h0, end):
    """One side's walk: scalar dense fill of the job clipped to its
    endpoint, dense walker."""
    query, target = query[: end[1]], target[: end[0]]
    mats = fill_extension(query, target, scoring, h0)
    return traceback_path(mats, query, target, scoring, end)


def align_pairs(
    paired, pairs, rescuer
) -> list[tuple[SamRecord, SamRecord]]:
    """Align ``ReadPair`` objects one pair at a time with
    ``paired``'s aligner and insert model, rescuing with ``rescuer``
    (a checked :class:`~repro.core.extender.SeedExtender`, optimal as
    the product's rescue waves are); counts into ``paired.stats`` as
    the product does."""
    return [align_pair(paired, pair, rescuer) for pair in pairs]


def align_pair(paired, pair, rescuer) -> tuple[SamRecord, SamRecord]:
    """Both mates per read, then at most one mate rescued."""
    rec1 = align_read(paired.aligner, pair.first, pair.name)
    rec2 = align_read(paired.aligner, pair.second, pair.name)
    if paired._concordant(rec1, rec2):
        pass
    elif not rec1.is_unmapped:
        rescued = _rescue(paired, rescuer, pair.second, rec1)
        if rescued is not None and (
            rec2.is_unmapped or paired._better_pair(rec1, rescued, rec2)
        ):
            rec2 = rescued
            paired.stats.rescued += 1
    elif not rec2.is_unmapped:
        rescued = _rescue(paired, rescuer, pair.first, rec2)
        if rescued is not None:
            rec1 = rescued
            paired.stats.rescued += 1
    proper = paired._concordant(rec1, rec2)
    if proper:
        paired.stats.proper += 1
    return (
        paired._flag(rec1, rec2, proper, first=True),
        paired._flag(rec2, rec1, proper, first=False),
    )


def _rescue(paired, rescuer, mate_codes, anchor) -> SamRecord | None:
    """Extend each candidate of the rescue plan in enumeration order,
    strict ``>`` best, stopping after a probe group whose best reaches
    half a perfect score; render the winner."""
    plan = paired._rescue_plan(mate_codes, anchor)
    if plan is None:
        return None
    m = paired.aligner.scoring.match

    def extend(query, target, h0):
        return rescuer.extend(query, target, h0).result

    best = None
    for group in plan.groups:
        for o, off in group:
            lq, lt, rq, rt = paired._candidate_jobs(plan, o, off)
            left = _extend_side(extend, lq, lt, plan.k * m)
            right = _extend_side(extend, rq, rt, left[1])
            if best is None or right[1] > best[0]:
                best = (right[1], o, off, left, right)
        if best is not None and best[0] >= len(plan.query) * m // 2:
            break
    left, right = (
        None if job is None else _trace_dense(paired.aligner.scoring, *job)
        for job in paired._rescue_jobs(plan, best)
    )
    return paired._emit_rescue(plan, anchor, best, left, right)
