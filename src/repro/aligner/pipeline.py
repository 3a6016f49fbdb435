"""The end-to-end read aligner: seed, chain, extend, report.

A self-contained BWA-MEM-style pipeline (paper Section V-B):

1. **Seed** both orientations of the read (SMEM via the FM-index, or
   the k-mer/ERT stand-in);
2. **Chain** co-linear seeds and keep the strongest chains;
3. **Extend** each chain's anchor seed left and then right with the
   configured extension engine — the right extension's initial score
   is the left extension's result, exactly as BWA-MEM threads ``h0``;
4. pick the best-scoring candidate, run **traceback on the host** for
   the winner only (Section II-A), and emit a SAM record.

The extension engine is pluggable (:mod:`repro.aligner.engines`); the
whole pipeline is deterministic for a fixed input, so SAM outputs from
different engines are directly comparable — the Figure 13 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.align.cigar import Cigar
from repro.align.fullmatrix import fill_extension, traceback_path
from repro.align.scoring import AffineGap
from repro.aligner.engines import BatchedEngine, ExtensionEngine
from repro.faults.errors import DeadLetterError
from repro.genome.sam import FLAG_REVERSE, SamRecord
from repro.genome.sequence import decode, reverse_complement
from repro.obs import names
from repro.seeding.chaining import Chain, chain_seeds, filter_chains
from repro.seeding.fmindex import FMIndex
from repro.seeding.kmer_index import KmerIndex
from repro.seeding.mems import seed_read

END_BONUS = 4
"""Preference for to-end over clipped extensions (BWA-MEM's -L)."""

DEGRADED = "degraded"
"""Sentinel: a chain whose extension exhausted the resilience ladder."""

DEGRADED_TAG = "XF:Z:degraded_extension"
"""SAM tag on reads left unmapped by the degradation ladder."""


@dataclass
class AlignmentCandidate:
    """One fully-extended chain, before the best-of selection."""

    score: int
    pos: int
    reverse: bool
    chain: Chain
    # The two ``(query, target, h0)`` extension jobs and their resolved
    # ``(endpoint, score, clipped)`` sides, for host-side traceback.
    left_job: tuple
    right_job: tuple
    left: tuple
    right: tuple

    def traceback_jobs(self) -> tuple[tuple | None, tuple | None]:
        """The (left, right) traceback jobs whose walks make this
        candidate's CIGAR (see :func:`_trace_job`)."""
        return (
            _trace_job(*self.left_job, self.left[0]),
            _trace_job(*self.right_job, self.right[0]),
        )


class Aligner:
    """Align reads to one reference with a pluggable extension engine."""

    def __init__(
        self,
        reference: np.ndarray,
        engine: ExtensionEngine | None = None,
        seeding: str = "smem",
        reference_name: str = "chr1",
        min_seed_length: int = 19,
        band_margin: int = 45,
        max_chains: int = 3,
        index: "LoadedIndex | IndexHandle | None" = None,
    ) -> None:
        # Shard workers receive the picklable capability, not the
        # loaded artifact; resolving it here keeps one code path for
        # in-process, forked, and spawned aligners — and surfaces a
        # vanished/swapped artifact as the typed error, in the worker.
        # Imported only here, so a run without --index never loads
        # the index package.
        if index is not None:
            from repro.index.store import IndexHandle

            if isinstance(index, IndexHandle):
                index = index.open()
        self.reference = np.asarray(reference, dtype=np.uint8)
        self.reference_name = reference_name
        self.engine = engine or BatchedEngine()
        self.scoring: AffineGap = self.engine.scoring
        self.min_seed_length = min_seed_length
        self.band_margin = band_margin
        self.max_chains = max_chains
        # A persistent index artifact, when provided, replaces the
        # in-process build of the seeding structures — but only after
        # it proves it describes *this* reference (and this k, for
        # k-mer seeding).  IndexDriftError here, never wrong seeds.
        self.index_meta: dict | None = None
        if index is not None:
            index.check_reference(self.reference)
        if seeding == "smem":
            if index is not None:
                self._fm = index.fm_index()
            else:
                self._fm = FMIndex(self.reference)
            self._kmer = None
        elif seeding == "kmer":
            self._fm = None
            if index is not None:
                index.check_kmer_size(min_seed_length)
                self._kmer = index.kmer_index()
            else:
                self._kmer = KmerIndex(self.reference, k=min_seed_length)
        else:
            raise ValueError(f"unknown seeding backend {seeding!r}")
        if index is not None:
            self.index_meta = index.meta()
        self.seeding = seeding

    # -- seeding ----------------------------------------------------------

    def _seeds(self, query: np.ndarray):
        if self._fm is not None:
            return seed_read(self._fm, query, self.min_seed_length)
        return self._kmer.seed_read(query)

    def _seed_window(self, queries: list[np.ndarray]):
        """Seeds of every query, in order: one k-mer pass for the whole
        window, or the SMEM reference one query at a time."""
        if self._fm is not None:
            return [self._seeds(query) for query in queries]
        return self._kmer.seed_reads(queries)

    # -- extension --------------------------------------------------------

    def _left_job(
        self, query: np.ndarray, chain: Chain
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """The chain's left extension job: ``(lq, lt, h0)``.

        Left extensions run on reversed prefixes so the kernel extends
        rightward in its own coordinates.  Shared by the scalar path
        and the wave scheduler so job geometry cannot drift.
        """
        seed = chain.anchor
        h0 = seed.length * self.scoring.match
        lq = query[: seed.qbegin][::-1].copy()
        lt_lo = max(0, seed.rbegin - len(lq) - self.band_margin)
        lt = self.reference[lt_lo : seed.rbegin][::-1].copy()
        return lq, lt, h0

    def _right_job(
        self, query: np.ndarray, chain: Chain, h0: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """The chain's right extension job: ``(rq, rt, h0)``.

        ``h0`` is the left extension's score (BWA-MEM threads it), so
        the job exists only once the left side is resolved.
        """
        seed = chain.anchor
        rq = query[seed.qend :].copy()
        seed_rend = seed.rbegin + seed.length
        rt_hi = min(
            len(self.reference), seed_rend + len(rq) + self.band_margin
        )
        rt = self.reference[seed_rend:rt_hi].copy()
        return rq, rt, h0

    def _make_candidate(
        self,
        chain: Chain,
        reverse: bool,
        left_job: tuple,
        right_job: tuple,
        left: tuple,
        right: tuple,
    ) -> AlignmentCandidate:
        """Assemble the candidate from the chain's two jobs and their
        resolved ``(endpoint, score, clipped)`` sides."""
        return AlignmentCandidate(
            score=right[1],
            pos=chain.anchor.rbegin - left[0][0],
            reverse=reverse,
            chain=chain,
            left_job=left_job,
            right_job=right_job,
            left=left,
            right=right,
        )

    def _extend_side(self, job: tuple) -> tuple:
        """One job, resolved by the scalar kernel: the per-read twin of
        :func:`repro.aligner.waves.extend_side`."""
        query, target, h0 = job
        if not len(query):
            return (0, 0), h0, 0
        return _resolve_end(self.engine.extend(query, target, h0), h0)

    def _extend_chain(
        self, query: np.ndarray, chain: Chain, reverse: bool
    ) -> "AlignmentCandidate | str | None":
        """Extend one chain; ``DEGRADED`` when the engine dead-letters."""
        left_job = self._left_job(query, chain)
        try:
            left = self._extend_side(left_job)
            if left[0] == (0, 0) and left[1] <= 0:
                return None
            # Right extension continues with the accumulated score.
            right_job = self._right_job(query, chain, left[1])
            right = self._extend_side(right_job)
        except DeadLetterError:
            return DEGRADED
        return self._make_candidate(
            chain, reverse, left_job, right_job, left, right
        )

    # -- per-read alignment ------------------------------------------------

    def align_read(self, codes: np.ndarray, name: str) -> SamRecord:
        """Align one read; always returns a record (possibly unmapped)."""
        with obs.span(names.SPAN_ALIGNER_READ):
            return self._align_read(codes, name)

    def _align_read(self, codes: np.ndarray, name: str) -> SamRecord:
        codes = np.asarray(codes, dtype=np.uint8)
        candidates: list[AlignmentCandidate] = []
        n_seeds = 0
        n_chains = 0
        n_degraded = 0
        for reverse in (False, True):
            query = reverse_complement(codes) if reverse else codes
            with obs.span(names.SPAN_ALIGNER_SEED):
                seeds = self._seeds(query)
            with obs.span(names.SPAN_ALIGNER_CHAIN):
                chains = filter_chains(
                    chain_seeds(seeds), max_chains=self.max_chains
                )
            n_seeds += len(seeds)
            n_chains += len(chains)
            for chain in chains:
                with obs.span(names.SPAN_ALIGNER_EXTEND):
                    cand = self._extend_chain(query, chain, reverse)
                if cand is DEGRADED:
                    n_degraded += 1
                elif cand is not None:
                    candidates.append(cand)
        return self._finalize_read(
            codes, name, candidates, n_seeds, n_chains, n_degraded
        )

    def _finalize_read(
        self,
        codes: np.ndarray,
        name: str,
        candidates: "list[AlignmentCandidate]",
        n_seeds: int,
        n_chains: int,
        n_degraded: int,
    ) -> SamRecord:
        """Best-candidate selection, traceback, and the SAM record.

        Shared verbatim by the scalar path and the wave scheduler —
        given the same candidate list (same order: forward chains then
        reverse, in filter order) both produce the same record byte
        for byte.
        """
        picked = self._select_candidate(
            codes, name, candidates, n_seeds, n_chains, n_degraded
        )
        if isinstance(picked, SamRecord):
            return picked
        best, mapq = picked
        with obs.span(names.SPAN_ALIGNER_TRACEBACK):
            cigar = self._traceback(best)
        return self._record(codes, name, best, mapq, cigar)

    def _select_candidate(
        self,
        codes: np.ndarray,
        name: str,
        candidates: "list[AlignmentCandidate]",
        n_seeds: int,
        n_chains: int,
        n_degraded: int,
    ) -> "SamRecord | tuple[AlignmentCandidate, int]":
        """Pick the read's winner (or emit its unmapped record).

        Returns the finished :class:`SamRecord` for unmapped reads, or
        ``(best, mapq)`` for mapped ones — traceback is the caller's
        job, so the wave scheduler can batch the winners' matrix fills
        across a whole window.
        """
        if obs.enabled():
            reg = obs.get_registry()
            reg.counter(names.ALIGNER_READS_TOTAL, "reads aligned").inc()
            reg.counter(names.ALIGNER_SEEDS_TOTAL, "seeds found").inc(
                n_seeds
            )
            reg.counter(names.ALIGNER_CHAINS_KEPT, "chains kept").inc(
                n_chains
            )
            reg.counter(
                names.ALIGNER_CANDIDATES_TOTAL, "candidates scored"
            ).inc(len(candidates))
            reg.histogram(
                names.ALIGNER_SEEDS_PER_READ, "seeds per read"
            ).observe(n_seeds)
            reg.histogram(
                names.ALIGNER_CHAINS_PER_READ, "chains per read"
            ).observe(n_chains)
            if not candidates:
                reg.counter(
                    names.ALIGNER_READS_UNMAPPED, "unmapped reads"
                ).inc()
            if n_degraded and not candidates:
                reg.counter(
                    names.ALIGNER_READS_DEGRADED,
                    "reads unmapped by the degradation ladder",
                ).inc()

        if not candidates:
            # Never crash on a dead-lettered extension: the read goes
            # out unmapped with the reason in a tag.
            tags = (DEGRADED_TAG,) if n_degraded else ()
            return SamRecord.unmapped(name, decode(codes), tags=tags)

        candidates.sort(key=lambda c: (-c.score, c.reverse, c.pos))
        best = candidates[0]
        runner_up = candidates[1].score if len(candidates) > 1 else 0
        return best, _mapq(best.score, runner_up)

    def _record(
        self,
        codes: np.ndarray,
        name: str,
        best: AlignmentCandidate,
        mapq: int,
        cigar: Cigar,
    ) -> SamRecord:
        """The mapped SAM record for a selected, traced-back winner."""
        flag = FLAG_REVERSE if best.reverse else 0
        return SamRecord(
            qname=name,
            flag=flag,
            rname=self.reference_name,
            pos=best.pos,
            mapq=mapq,
            cigar=str(cigar),
            seq=decode(codes),
            tags=(f"AS:i:{best.score}",),
        )

    def align(self, reads) -> list[SamRecord]:
        """Align a batch of (name, codes) pairs or SimulatedReads."""
        out = []
        for read in reads:
            if hasattr(read, "codes"):
                out.append(self.align_read(read.codes, read.name))
            else:
                name, codes = read
                out.append(self.align_read(codes, name))
        return out

    def align_batched(
        self, reads, batch_size: int = 4096, progress=None
    ) -> list[SamRecord]:
        """Align reads through the deferred-extension wave scheduler.

        Seeds and chains a window of reads, then dispatches all left
        extensions as one lockstep wave and all right extensions as a
        second wave (:mod:`repro.aligner.waves`).  Output is
        byte-identical to :meth:`align`, record for record; the
        optional ``progress(window_index, done, total)`` callback
        observes window completions without affecting it.
        """
        from repro.aligner.waves import align_batched

        return align_batched(
            self, reads, batch_size=batch_size, progress=progress
        )

    # -- host-side traceback ------------------------------------------------

    def _traceback(
        self,
        cand: AlignmentCandidate,
        left: Cigar | None = None,
        right: Cigar | None = None,
    ) -> Cigar:
        """Build the final CIGAR: traceback runs on the host, once, for
        the winning extension only.

        ``left``/``right`` are the sides' walks when a traceback wave
        (:func:`repro.aligner.waves.trace_sides`) already made them; a
        side not given is traced here by the per-read reference.
        """
        jobs = cand.traceback_jobs()
        if left is None and jobs[0] is not None:
            left = self._trace_dense(*jobs[0])
        if right is None and jobs[1] is not None:
            right = self._trace_dense(*jobs[1])
        return stitch_cigar(
            cand.left[2],
            left,
            [(cand.chain.anchor.length, "M")],
            right,
            cand.right[2],
        )

    def _trace_dense(
        self,
        query: np.ndarray,
        target: np.ndarray,
        h0: int,
        end: tuple[int, int],
    ) -> Cigar:
        """One side's walk by the oracle: scalar fill of the job clipped
        to its endpoint, dense walker."""
        query, target = query[: end[1]], target[: end[0]]
        mats = fill_extension(query, target, self.scoring, h0)
        return traceback_path(mats, query, target, self.scoring, end)


def _trace_job(
    query: np.ndarray, target: np.ndarray, h0: int, end: tuple[int, int]
) -> tuple | None:
    """One extension's ``(query, target, h0, end)`` traceback job, or
    ``None`` when it ended at the origin and there is nothing to walk."""
    return None if end == (0, 0) else (query, target, h0, end)


def stitch_cigar(
    clip_left: int,
    left: Cigar | None,
    middle: list[tuple[int, str]],
    right: Cigar | None,
    clip_right: int,
) -> Cigar:
    """One alignment's CIGAR from its traced sides around the middle.

    The ops are ``[S] + reversed(left) + middle + right + [S]``: the
    left walk ran on reversed sequences, so it is flipped back; a
    ``None`` walk or a zero clip adds nothing.  Every path — short read,
    mate rescue, long read — stitches through here.
    """
    ops: list[tuple[int, str]] = [(clip_left, "S")] if clip_left else []
    if left is not None:
        ops.extend(left.reversed().ops)
    ops.extend(middle)
    if right is not None:
        ops.extend(right.ops)
    if clip_right:
        ops.append((clip_right, "S"))
    return Cigar.from_ops(ops)


def _resolve_end(result, h0: int) -> tuple[tuple[int, int], int, int]:
    """Choose between to-end and clipped extension (BWA's end bonus).

    Returns ``(endpoint, score, clipped_query_chars)``.  The to-end
    alignment wins when its score is within ``END_BONUS`` of the best
    local score; otherwise the extension clips at the local maximum.
    """
    if result.gpos >= 0 and result.gscore + END_BONUS >= result.lscore:
        return (result.gpos, result.qlen), result.gscore, 0
    i, j = result.lpos
    return (i, j), result.lscore, result.qlen - j


def _mapq(best: int, runner_up: int) -> int:
    """A simple, deterministic mapping quality."""
    if best <= 0:
        return 0
    gap = best - max(runner_up, 0)
    return max(0, min(60, int(60 * gap / best) if runner_up else 60))
