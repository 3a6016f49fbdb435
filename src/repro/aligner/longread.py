"""Long-read alignment with the seed-chain-then-fill strategy.

Paper Section VII-D: long-read aligners (minimap2, BLASR) do not grow
one seed with an enormous band; they chain many seeds and *globally
align the gaps between adjacent seeds*, which keeps every DP small.
The paper observes this fill step takes 16-33% of minimap2's time and
that "SeedEx can be directly applied to this kernel, performing
optimal global alignment with a small area".

This module is that application: a minimap2-flavoured pipeline whose
fill kernel is :class:`repro.core.globalcheck.GlobalSeedEx` — every
inter-seed gap is aligned on a narrow band, proven optimal or rerun,
so the stitched alignment is bit-equivalent to full-band fills.  Read
ends are finished with the semi-global :class:`SeedExtender`, so both
of the paper's guaranteed modes are exercised in one pipeline.

Two execution paths share one plan/stitch skeleton:

* :meth:`LongReadAligner.align` — the scalar path (``longread
  --engine scalar``, the oracle the batched path is checked against):
  one read at a time, one ``GlobalSeedEx`` call per gap;
* :meth:`LongReadAligner.align_batch` — the batched path: windows of
  reads move through three dependency-ordered waves (left ends →
  gap fills → right ends).  End extensions go through the same
  :func:`~repro.aligner.waves.extend_side` step the short-read
  scheduler uses; gap fills
  are collected *across* reads into shape-bucketed lockstep sweeps
  with adaptive band escalation
  (:func:`repro.align.globalbatch.fill_gaps_guaranteed`), each
  returning its trace from the rung that proved it; the ends' traces
  come from one traceback wave per window.

Both paths end at guaranteed-optimal scores for every piece, so their
stitched alignments — and the SAM lines :func:`sam_record` renders —
are byte-identical (pinned by ``tests/test_byte_identity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.align.cigar import Cigar
from repro.align.fullmatrix import traceback_extension, traceback_global
from repro.align.globalbatch import fill_gaps_guaranteed
from repro.align.scoring import BWA_MEM_SCORING, AffineGap
from repro.aligner.pipeline import _resolve_end, _trace_job, stitch_cigar
from repro.aligner.waves import DEFAULT_BATCH_SIZE, extend_side, trace_sides
from repro.constants import DEFAULT_BAND
from repro.core.extender import SeedExtender
from repro.core.globalcheck import GlobalSeedEx
from repro.genome.sam import SamRecord
from repro.genome.sequence import decode
from repro.obs import names
from repro.seeding.chaining import chain_seeds, filter_chains
from repro.seeding.kmer_index import KmerIndex
from repro.seeding.mems import Seed

_SEEDING = {"stride": 8, "max_occurrences": 8}
"""k-mer anchoring of a long read: sparser anchors, fewer repeats."""


@dataclass
class FillRecord:
    """One inter-seed gap fill and its check outcome."""

    query_gap: int
    target_gap: int
    band_used: int
    score: int
    proved_optimal: bool
    rerun: bool


@dataclass
class LongReadAlignment:
    """A stitched long-read alignment."""

    name: str
    pos: int
    score: int
    cigar: Cigar
    seeds_used: int
    fills: list[FillRecord] = field(default_factory=list)

    @property
    def fill_pass_rate(self) -> float:
        """Fraction of this read's fills proved optimal."""
        if not self.fills:
            return 1.0
        return sum(f.proved_optimal for f in self.fills) / len(self.fills)


@dataclass
class LongReadStats:
    reads: int = 0
    unaligned: int = 0
    fills: int = 0
    fills_proved: int = 0
    fill_cells_narrow: int = 0

    @property
    def fill_pass_rate(self) -> float:
        """Fraction of all fills proved optimal on the narrow band."""
        return self.fills_proved / self.fills if self.fills else 0.0


@dataclass
class _FillOutcome:
    """A guaranteed-optimal gap fill and its trace, path-agnostic."""

    score: int
    band_used: int
    proved: bool
    rerun: bool
    cells: int
    cigar: Cigar


@dataclass
class _ReadPlan:
    """Everything about a read that is known before any DP runs.

    Both execution paths derive jobs from the same plan, which is what
    makes their outputs byte-identical: the job *geometry* is decided
    once, only the schedule differs.
    """

    name: str
    codes: np.ndarray
    backbone: list[Seed]
    lq: np.ndarray
    lt: np.ndarray
    h0: int
    rq: np.ndarray
    rt: np.ndarray
    gaps: list[tuple[np.ndarray, np.ndarray]]
    gap_slots: list[int | None]


class LongReadAligner:
    """Seed-chain-fill alignment with guaranteed-optimal fills.

    :attr:`end_extender` is the checked read-end extender, at the
    paper's band (:data:`~repro.constants.DEFAULT_BAND`).  It runs
    every end of the scalar :meth:`align` and, in :meth:`align_batch`,
    only the end jobs the wave engine dead-letters; the end waves
    themselves run under the engine's own policy (the full band, for
    ``longread --engine batched``).  Either way the ends are optimal,
    so the SAM is the same.
    """

    def __init__(
        self,
        reference: np.ndarray,
        fill_band: int = 16,
        k: int = 15,
        scoring: AffineGap = BWA_MEM_SCORING,
        max_fill_gap: int = 400,
        reference_name: str = "chr1",
    ) -> None:
        self.reference = np.asarray(reference, dtype=np.uint8)
        self.scoring = scoring
        self.fill_band = fill_band
        self.max_fill_gap = max_fill_gap
        self.reference_name = reference_name
        self.index = KmerIndex(self.reference, k=k)
        self.filler = GlobalSeedEx(band=fill_band, scoring=scoring)
        self.end_extender = SeedExtender(band=DEFAULT_BAND, scoring=scoring)
        self.stats = LongReadStats()

    # -- planning -------------------------------------------------------

    def _plan(
        self, codes: np.ndarray, name: str, seeds: list[Seed]
    ) -> _ReadPlan | None:
        """Chain one read's seeds and lay out its jobs; None when
        hopeless."""
        self.stats.reads += 1
        codes = np.asarray(codes, dtype=np.uint8)
        chains = filter_chains(
            chain_seeds(seeds, max_gap=self.max_fill_gap,
                        max_diagonal_drift=self.max_fill_gap // 2),
            max_chains=1,
        )
        if not chains:
            self.stats.unaligned += 1
            return None
        chain = chains[0]
        backbone = _non_overlapping(sorted(
            chain.seeds, key=lambda s: (s.qbegin, s.rbegin)
        ))
        if not backbone:
            self.stats.unaligned += 1
            return None

        ref = self.reference
        first = backbone[0]
        lq = codes[: first.qbegin][::-1].copy()
        lt_lo = max(0, first.rbegin - len(lq) - 64)
        lt = ref[lt_lo : first.rbegin][::-1].copy()
        h0 = first.length * self.scoring.match

        gaps: list[tuple[np.ndarray, np.ndarray]] = []
        gap_slots: list[int | None] = []
        prev = first
        for seed in backbone[1:]:
            qgap = codes[prev.qend : seed.qbegin]
            tgap = ref[prev.rbegin + prev.length : seed.rbegin]
            if len(qgap) == 0 and len(tgap) == 0:
                gap_slots.append(None)
            else:
                gap_slots.append(len(gaps))
                gaps.append((qgap, tgap))
            prev = seed

        rq = codes[prev.qend :].copy()
        rt_hi = min(len(ref), prev.rbegin + prev.length + len(rq) + 64)
        rt = ref[prev.rbegin + prev.length : rt_hi].copy()
        return _ReadPlan(
            name=name, codes=codes, backbone=backbone,
            lq=lq, lt=lt, h0=h0, rq=rq, rt=rt,
            gaps=gaps, gap_slots=gap_slots,
        )

    # -- the two fill schedules ----------------------------------------

    def _fill_scalar(
        self, qgap: np.ndarray, tgap: np.ndarray
    ) -> _FillOutcome:
        """One gap through the scalar checked filler."""
        out = self.filler.align(qgap, tgap)
        self.stats.fills += 1
        self.stats.fills_proved += out.decision.passed
        self.stats.fill_cells_narrow += out.narrow_result.cells_computed
        return _FillOutcome(
            score=out.result.score,
            band_used=out.narrow_result.band,
            proved=out.decision.passed,
            rerun=out.rerun,
            cells=out.narrow_result.cells_computed,
            cigar=traceback_global(qgap, tgap, self.scoring),
        )

    def _fill_wave(
        self, gaps: list[tuple[np.ndarray, np.ndarray]]
    ) -> list[_FillOutcome]:
        """A whole wave of gaps through the lockstep escalation ladder."""
        if not gaps:
            return []
        with obs.span(
            names.SPAN_PIPELINE_LONGREAD_FILL_WAVE, jobs=len(gaps)
        ):
            outs = fill_gaps_guaranteed(
                [q for q, _ in gaps],
                [t for _, t in gaps],
                self.scoring,
                band=self.fill_band,
            )
        escalated = sum(1 for o in outs if o.escalations)
        self.stats.fills += len(outs)
        self.stats.fills_proved += len(outs) - escalated
        self.stats.fill_cells_narrow += sum(
            o.result.cells_computed for o in outs
        )
        if obs.enabled():
            reg = obs.get_registry()
            reg.counter(
                names.PIPELINE_LONGREAD_FILL_JOBS, "batched gap fills"
            ).inc(len(outs))
            if escalated:
                reg.counter(
                    names.PIPELINE_LONGREAD_FILL_ESCALATIONS,
                    "gap fills that climbed the band ladder",
                ).inc(escalated)
        return [
            _FillOutcome(
                score=o.result.score,
                band_used=o.result.band,
                proved=o.escalations == 0,
                rerun=o.rerun,
                cells=o.result.cells_computed,
                cigar=o.result.cigar,
            )
            for o in outs
        ]

    # -- stitching ------------------------------------------------------

    def _stitch_middle(
        self,
        plan: _ReadPlan,
        l_score: int,
        fill_outs: list[_FillOutcome],
    ):
        """Backbone seeds and gap fills into ops; returns (ops, score, fills)."""
        first = plan.backbone[0]
        score = l_score
        m = self.scoring.match

        ops: list[tuple[int, str]] = [(first.length, "M")]
        fills: list[FillRecord] = []
        for seed, slot in zip(plan.backbone[1:], plan.gap_slots):
            if slot is not None:
                qgap, tgap = plan.gaps[slot]
                fo = fill_outs[slot]
                fills.append(
                    FillRecord(
                        query_gap=len(qgap),
                        target_gap=len(tgap),
                        band_used=fo.band_used,
                        score=fo.score,
                        proved_optimal=fo.proved,
                        rerun=fo.rerun,
                    )
                )
                score += fo.score
                ops.extend(fo.cigar.ops)
            ops.append((seed.length, "M"))
            score += seed.length * m
        return ops, score, fills

    def _finish(
        self,
        plan: _ReadPlan,
        l_resolved: tuple[tuple[int, int], int, int],
        left: Cigar | None,
        middle: tuple,
        r_resolved: tuple[tuple[int, int], int, int] | None,
        right: Cigar | None,
    ) -> LongReadAlignment:
        """Put the traced ends around the middle and build the alignment.

        A read with no right end (``r_resolved is None``) reports the
        stitched middle's score, not the end job's ``max(1, middle)``.
        """
        mid_ops, score, fills = middle
        clip_right = 0
        if r_resolved is not None:
            _, score, clip_right = r_resolved
        return LongReadAlignment(
            name=plan.name,
            pos=plan.backbone[0].rbegin - l_resolved[0][0],
            score=score,
            cigar=stitch_cigar(
                l_resolved[2], left, mid_ops, right, clip_right
            ),
            seeds_used=len(plan.backbone),
            fills=fills,
        )

    # -- the scalar path ------------------------------------------------

    def align(self, codes: np.ndarray, name: str = "read") -> LongReadAlignment | None:
        """Align one long read; None when no usable chain exists."""
        plan = self._plan(
            codes, name, self.index.seed_read(codes, **_SEEDING)
        )
        if plan is None:
            return None
        if len(plan.lq):
            lres = self.end_extender.extend(plan.lq, plan.lt, plan.h0).result
            l_resolved = _resolve_end(lres, plan.h0)
        else:
            l_resolved = ((0, 0), plan.h0, 0)
        fill_outs = [self._fill_scalar(q, t) for q, t in plan.gaps]
        middle = self._stitch_middle(plan, l_resolved[1], fill_outs)
        r_resolved = None
        r_h0 = max(1, middle[1])
        if len(plan.rq):
            rres = self.end_extender.extend(plan.rq, plan.rt, r_h0).result
            r_resolved = _resolve_end(rres, r_h0)
        left, right = (
            None
            if job is None
            else traceback_extension(
                job[0], job[1], self.scoring, job[2], job[3]
            )
            for job in _end_jobs(plan, l_resolved, r_resolved, r_h0)
        )
        return self._finish(
            plan, l_resolved, left, middle, r_resolved, right
        )

    # -- the batched path -----------------------------------------------

    def align_batch(
        self,
        reads,
        engine,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> list[LongReadAlignment | None]:
        """Align many reads through three dependency-ordered waves.

        ``reads`` may be ``(name, codes)`` pairs or ``SimulatedRead``-like
        objects; results come back in input order, byte-identical to
        per-read :meth:`align`.  ``engine`` (any
        :class:`~repro.aligner.engines.ExtensionEngine`) runs the
        end-extension waves through
        :func:`~repro.aligner.waves.extend_side`.  A dead-lettered end
        job falls back to the checked :attr:`end_extender` alone,
        never its whole wave.
        """
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        normalized = [
            (read.name, read.codes) if hasattr(read, "codes") else read
            for read in reads
        ]
        out: list[LongReadAlignment | None] = []
        for start in range(0, len(normalized), batch_size):
            out.extend(
                self._align_window(
                    normalized[start : start + batch_size], engine
                )
            )
        return out

    def _align_window(self, window, engine) -> list[LongReadAlignment | None]:
        """One window: left wave → fill wave → right wave → traceback
        wave over both ends → stitch."""
        with obs.span(
            names.SPAN_PIPELINE_LONGREAD_WINDOW, reads=len(window)
        ):
            seeded = self.index.seed_reads(
                [codes for _, codes in window], **_SEEDING
            )
            plans = [
                self._plan(codes, name, seeds)
                for (name, codes), seeds in zip(window, seeded)
            ]
            live = [p for p in plans if p is not None]
            if obs.enabled():
                obs.get_registry().counter(
                    names.PIPELINE_LONGREAD_READS, "long reads planned"
                ).inc(len(window))

            # Wave 1: left ends (h0 known up front).
            lefts = extend_side(
                engine,
                [(p.lq, p.lt, p.h0) for p in live],
                "longread_left",
                fallback=self.end_extender,
            )

            # Wave 2: every gap of every read, one lockstep ladder.
            flat: list[tuple[np.ndarray, np.ndarray]] = []
            spans: list[tuple[int, int]] = []
            for p in live:
                spans.append((len(flat), len(flat) + len(p.gaps)))
                flat.extend(p.gaps)
            fill_outs = self._fill_wave(flat)

            # Stitch middles; wave 3: right ends (h0 = stitched score).
            middles = [
                self._stitch_middle(p, left[1], fill_outs[lo:hi])
                for p, left, (lo, hi) in zip(live, lefts, spans)
            ]
            r_h0 = [max(1, middle[1]) for middle in middles]
            rights = extend_side(
                engine,
                [(p.rq, p.rt, h0) for p, h0 in zip(live, r_h0)],
                "longread_right",
                fallback=self.end_extender,
            )
            # An empty right end stays None: its dispatch h0 is not
            # the score the read reports.
            rights = [
                right if len(p.rq) else None
                for p, right in zip(live, rights)
            ]

            # Wave 4: every end that needs a walk, one traceback wave.
            walks = trace_sides(
                self.scoring,
                [
                    _end_jobs(p, left, right, h0)
                    for p, left, right, h0 in zip(live, lefts, rights, r_h0)
                ],
            )
            finished = (
                self._finish(p, left, lw, middle, right, rw)
                for p, left, middle, right, (lw, rw) in zip(
                    live, lefts, middles, rights, walks
                )
            )
            return [None if p is None else next(finished) for p in plans]


def _end_jobs(
    plan: _ReadPlan,
    l_resolved: tuple,
    r_resolved: tuple | None,
    r_h0: int,
) -> tuple[tuple | None, tuple | None]:
    """The read's (left, right) traceback jobs; ``None`` for an end
    with nothing to walk."""
    return (
        _trace_job(plan.lq, plan.lt, plan.h0, l_resolved[0]),
        r_resolved and _trace_job(plan.rq, plan.rt, r_h0, r_resolved[0]),
    )


def _non_overlapping(seeds: list[Seed]) -> list[Seed]:
    """Greedy backbone: keep seeds that advance both coordinates."""
    backbone: list[Seed] = []
    for seed in seeds:
        if not backbone:
            backbone.append(seed)
            continue
        prev = backbone[-1]
        if (
            seed.qbegin >= prev.qend
            and seed.rbegin >= prev.rbegin + prev.length
        ):
            backbone.append(seed)
    return backbone


@dataclass(frozen=True)
class LongReadRecipe:
    """Worker recipe for long reads (see :mod:`repro.aligner.parallel`).

    ``mode`` selects the schedule (``scalar`` loops
    :meth:`LongReadAligner.align`; ``batched`` runs the three-wave
    :meth:`LongReadAligner.align_batch` in windows of ``batch_size``),
    ``spec`` (an :class:`~repro.aligner.engines.EngineSpec`, required
    by ``batched`` and unused by ``scalar``) names the end-wave engine
    and ``options`` go to :class:`LongReadAligner`.  Both modes, in one
    process or under :func:`~repro.aligner.parallel.align_supervised`
    at any worker count, emit byte-identical SAM.
    """

    mode: str = "batched"
    spec: object = None
    batch_size: int = DEFAULT_BATCH_SIZE
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in ("scalar", "batched"):
            raise ValueError(f"unknown long-read mode {self.mode!r}")
        if self.mode == "batched" and self.spec is None:
            raise ValueError("batched long-read mode needs an engine spec")

    def probe(self) -> None:
        """Nothing to check in the parent: no artifact is shipped."""

    def build(self, reference):
        """One aligner + end engine, as a ``reads -> records`` function."""
        aligner = LongReadAligner(reference, **self.options)
        engine = self.spec.build() if self.mode == "batched" else None

        def run(reads) -> list[SamRecord]:
            if self.mode == "batched":
                alns = aligner.align_batch(
                    reads, engine=engine, batch_size=self.batch_size
                )
            else:
                alns = [aligner.align(codes, name) for name, codes in reads]
            return [
                sam_record(
                    name, codes, aln,
                    reference_name=aligner.reference_name,
                    match=aligner.scoring.match,
                )
                for (name, codes), aln in zip(reads, alns)
            ]

        return run


def sam_record(
    name: str,
    codes: np.ndarray,
    aln: LongReadAlignment | None,
    reference_name: str = "chr1",
    match: int = BWA_MEM_SCORING.match,
) -> SamRecord:
    """Render one long-read alignment (or its absence) as SAM.

    MAPQ scales the stitched score against a perfect full-length match
    — deterministic in the score alone, so the scalar and batched
    paths render identical lines.
    """
    if aln is None:
        return SamRecord.unmapped(name, decode(codes))
    denom = max(1, len(codes) * match)
    mapq = max(0, min(60, (aln.score * 60) // denom))
    return SamRecord(
        qname=name,
        flag=0,
        rname=reference_name,
        pos=aln.pos,
        mapq=mapq,
        cigar=str(aln.cigar),
        seq=decode(codes),
        tags=(f"AS:i:{aln.score}", f"XS:i:{aln.seeds_used}"),
    )
