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

:class:`Aligner` owns the reference, the seeding structures and the
per-read steps (job geometry, selection, record); the driver that
runs them over a window of reads is :mod:`repro.aligner.waves`, and
:meth:`Aligner.align_read` is a window of one.  The extension engine
is pluggable (:mod:`repro.aligner.engines`); the whole pipeline is
deterministic for a fixed input, so SAM outputs from different
engines are directly comparable — the Figure 13 experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.align.cigar import Cigar
from repro.align.scoring import AffineGap
from repro.aligner.engines import BatchedEngine, ExtensionEngine
from repro.constants import MIN_SEED_LENGTH
from repro.genome.sam import FLAG_REVERSE, SamRecord
from repro.genome.sequence import decode
from repro.obs import names
from repro.seeding.chaining import Chain
from repro.seeding.fmindex import FMIndex
from repro.seeding.kmer_index import KmerIndex
from repro.seeding.mems import seed_read

END_BONUS = 4
"""Preference for to-end over clipped extensions (BWA-MEM's -L)."""


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
        min_seed_length: int = MIN_SEED_LENGTH,
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

    def _seed_window(self, queries: list[np.ndarray]):
        """Seeds of every query, in order: one k-mer pass for the whole
        window, or the SMEM reference one query at a time."""
        if self._fm is not None:
            return [
                seed_read(self._fm, query, self.min_seed_length)
                for query in queries
            ]
        return self._kmer.seed_reads(queries)

    # -- extension --------------------------------------------------------

    def _left_job(
        self, query: np.ndarray, chain: Chain
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """The chain's left extension job: ``(lq, lt, h0)``.

        Left extensions run on reversed prefixes so the kernel extends
        rightward in its own coordinates.
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

    # -- per-read alignment ------------------------------------------------

    def align_read(self, codes: np.ndarray, name: str) -> SamRecord:
        """Align one read; always returns a record (possibly unmapped).

        A window of one through the wave scheduler
        (:func:`~repro.aligner.waves.align_window`).
        """
        from repro.aligner.waves import align_window

        return align_window(self, [(name, codes)])[0]

    def _select_candidate(
        self,
        codes: np.ndarray,
        name: str,
        candidates: "list[AlignmentCandidate]",
        n_seeds: int,
        n_chains: int,
    ) -> "SamRecord | tuple[AlignmentCandidate, int]":
        """Pick the read's winner (or emit its unmapped record).

        Returns the finished :class:`SamRecord` for unmapped reads, or
        ``(best, mapq)`` for mapped ones — traceback is the caller's
        job, so the wave scheduler batches the winners' matrix fills
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

        if not candidates:
            return SamRecord.unmapped(name, decode(codes))

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

    def align_batched(
        self, reads, batch_size: int = 4096, progress=None
    ) -> list[SamRecord]:
        """Align reads through the deferred-extension wave scheduler.

        Seeds and chains a window of reads, then dispatches all left
        extensions as one lockstep wave and all right extensions as a
        second wave (:mod:`repro.aligner.waves`).  Output is the same
        at every ``batch_size``, record for record; the optional ``progress(window_index, done, total)`` callback
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
        left: Cigar | None,
        right: Cigar | None,
    ) -> Cigar:
        """Build the final CIGAR: traceback runs on the host, once, for
        the winning extension only.

        ``left``/``right`` are the sides' walks, made by a traceback
        wave (:func:`repro.aligner.waves.trace_sides`); ``None`` for a
        side with nothing to walk.
        """
        return stitch_cigar(
            cand.left[2],
            left,
            [(cand.chain.anchor.length, "M")],
            right,
            cand.right[2],
        )


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
