"""Paired-end alignment: proper pairs, mate rescue, SAM pair flags.

The paper's dataset is single-end ERR194147, but BWA-MEM's production
mode — and the mode any adopter of this library runs — is paired-end.
This module adds it on top of the single-end pipeline:

* both mates align independently (any extension engine, so SeedEx's
  bit-equivalence guarantee carries over verbatim);
* pairs are scored with an insert-size model and flagged proper when
  orientation (forward/reverse, FR) and insert size agree;
* **mate rescue**: when one mate is unmapped or discordant, a
  SeedEx extension searches the window implied by the mapped mate and
  the insert distribution — the same speculate-and-test kernel, used
  as a targeted aligner.

SAM output carries the pair flags/fields (0x1/0x2/0x40/0x80, mate
reverse, RNEXT/PNEXT/TLEN).

One driver runs it: :meth:`PairedAligner.align_pairs_batched` aligns a
window of pairs — both mates through the wave scheduler, then every
rescue candidate of the window as two cross-pair extension waves — and
:meth:`PairedAligner.align_pair` is a window of one pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.align.cigar import Cigar
from repro.aligner.pipeline import Aligner, _trace_job, stitch_cigar
from repro.aligner.waves import align_window, extend_side, trace_sides
from repro.constants import InputError
from repro.genome.sam import FLAG_REVERSE, SamRecord
from repro.genome.sequence import decode, reverse_complement
from repro.genome.synth import ReadProfile
from repro.obs import names

FLAG_PAIRED = 0x1
FLAG_PROPER = 0x2
FLAG_MATE_UNMAPPED = 0x8
FLAG_MATE_REVERSE = 0x20
FLAG_FIRST = 0x40
FLAG_SECOND = 0x80


@dataclass(frozen=True)
class InsertSizeModel:
    """FR library: mates face each other, insert ~ N(mean, std)."""

    mean: float = 400.0
    std: float = 50.0
    max_deviation: float = 4.0

    @property
    def window(self) -> tuple[int, int]:
        """Acceptable insert-size range (lo, hi)."""
        lo = int(self.mean - self.max_deviation * self.std)
        hi = int(self.mean + self.max_deviation * self.std)
        return max(0, lo), hi

    def is_proper(self, insert: int) -> bool:
        """Whether an observed insert size is concordant."""
        lo, hi = self.window
        return lo <= insert <= hi


@dataclass(frozen=True)
class ReadPair:
    """Two mates of one fragment."""

    name: str
    first: np.ndarray
    second: np.ndarray


@dataclass
class _RescuePlan:
    """A rescue attempt's geometry, fixed before any DP runs.

    ``query`` is the mate in window orientation (reverse-complemented
    when the anchor is forward), ``window`` the reference slice the
    insert model implies, and ``groups`` the candidate ``(o, off)``
    placements per probe offset, in scalar enumeration order.
    """

    mate_codes: np.ndarray
    query: np.ndarray
    window: np.ndarray
    start: int
    reverse: bool
    k: int
    groups: list[list[tuple[int, int]]]


@dataclass
class PairStats:
    proper: int = 0
    rescued: int = 0


def simulate_pairs(
    reference: np.ndarray,
    count: int,
    rng: np.random.Generator,
    profile: ReadProfile | None = None,
    insert: InsertSizeModel | None = None,
) -> list[tuple[ReadPair, int, int]]:
    """Simulate FR read pairs; returns (pair, pos1, pos2) with truth.

    Mate 1 is the forward read at the fragment's left end; mate 2 the
    reverse-complemented read at its right end.
    """
    profile = profile or ReadProfile(reverse_strand_fraction=0.0)
    insert = insert or InsertSizeModel()
    length = profile.read_length
    max_size = int(insert.mean + insert.max_deviation * insert.std)
    if len(reference) < max_size + length + 100:
        raise InputError("reference too short for the insert model")
    out = []
    for k in range(count):
        size = int(rng.normal(insert.mean, insert.std))
        size = max(2 * length + 10, size)
        pos1 = int(rng.integers(0, len(reference) - size - length - 80))
        first_read = _mutated_window(reference, pos1, profile, rng)
        pos2 = pos1 + size - length
        second_read = _mutated_window(reference, pos2, profile, rng)
        pair = ReadPair(
            name=f"pair{k:06d}",
            first=first_read,
            second=reverse_complement(second_read),
        )
        out.append((pair, pos1, pos2))
    return out


def _mutated_window(
    reference: np.ndarray,
    pos: int,
    profile: ReadProfile,
    rng: np.random.Generator,
) -> np.ndarray:
    """A read originating at ``pos`` with substitution errors only."""
    window = reference[pos : pos + profile.read_length].copy()
    n_subs = int(rng.binomial(len(window), profile.substitution_rate))
    for _ in range(n_subs):
        site = int(rng.integers(0, len(window)))
        window[site] = (window[site] + int(rng.integers(1, 4))) % 4
    return window


class PairedAligner:
    """Paired-end wrapper over the single-end pipeline."""

    def __init__(
        self,
        reference: np.ndarray,
        engine=None,
        seeding: str = "kmer",
        insert: InsertSizeModel | None = None,
        reference_name: str = "chr1",
    ) -> None:
        self.reference = np.asarray(reference, dtype=np.uint8)
        self.aligner = Aligner(
            self.reference,
            engine,
            seeding=seeding,
            reference_name=reference_name,
        )
        self.insert = insert or InsertSizeModel()
        self.stats = PairStats()

    def align_pair(self, pair: ReadPair) -> tuple[SamRecord, SamRecord]:
        """Align both mates, attempt rescue, emit flagged records: a
        window of one pair (:meth:`align_pairs_batched`)."""
        return self._pairs_window([pair])[0]

    # -- pairing logic ------------------------------------------------------

    def _concordant(self, a: SamRecord, b: SamRecord) -> bool:
        if a.is_unmapped or b.is_unmapped:
            return False
        if a.is_reverse == b.is_reverse:
            return False  # FR libraries: opposite strands
        left, right = (a, b) if a.pos <= b.pos else (b, a)
        if left.is_reverse:
            return False  # forward mate must be on the left
        insert = (
            right.pos + Cigar.parse(right.cigar).reference_length - left.pos
        )
        return self.insert.is_proper(insert)

    def _better_pair(
        self, anchor: SamRecord, rescued: SamRecord, original: SamRecord
    ) -> bool:
        if original.is_unmapped:
            return True
        return self._concordant(anchor, rescued) and not self._concordant(
            anchor, original
        )

    # -- mate rescue -----------------------------------------------------------

    def _rescue_plan(
        self, mate_codes: np.ndarray, anchor: SamRecord
    ) -> "_RescuePlan | None":
        """Everything about a rescue attempt known before any DP runs.

        The insert model and the anchor's strand fix the reference
        window and the mate's orientation; short exact probes at
        several query offsets nominate candidate placements (grouped
        by probe offset, deduplicated by implied start — the exact
        enumeration order of the scalar rescue loop).  The batched
        rescue and that loop (kept as the reference driver in
        ``tests/reference_drivers.py``) both consume this plan, which
        is what makes their records byte-identical.
        """
        lo_ins, hi_ins = self.insert.window
        ref = self.reference
        if not anchor.is_reverse:
            start = anchor.pos + lo_ins - len(mate_codes) - 20
            end = anchor.pos + hi_ins + 20
            query = reverse_complement(mate_codes)
            reverse = True
        else:
            anchor_end = anchor.pos + Cigar.parse(
                anchor.cigar
            ).reference_length
            start = anchor_end - hi_ins - 20
            end = anchor_end - lo_ins + len(mate_codes) + 20
            query = mate_codes
            reverse = False
        start = max(0, start)
        end = min(len(ref), end)
        if end - start < len(mate_codes):
            return None
        window = ref[start:end]

        # Anchor via short exact probes at several query offsets (short
        # enough to survive scattered errors), then extend both sides
        # with the guaranteed kernel — the same left/right structure
        # the main pipeline uses for chain anchors.
        k = 12
        if len(query) < k:
            return None
        groups: list[list[tuple[int, int]]] = []
        seen_starts: set[int] = set()
        for o in range(0, len(query) - k + 1, 10):
            probe = query[o : o + k]
            group: list[tuple[int, int]] = []
            for off in _find_exact(window, probe):
                implied = off - o
                if implied in seen_starts:
                    continue
                seen_starts.add(implied)
                group.append((o, off))
            groups.append(group)
        return _RescuePlan(
            mate_codes=mate_codes,
            query=query,
            window=window,
            start=start,
            reverse=reverse,
            k=k,
            groups=groups,
        )

    def _candidate_jobs(self, plan: "_RescuePlan", o: int, off: int):
        """The (left, right-template) job geometry of one candidate."""
        lq = plan.query[:o][::-1].copy()
        lt = plan.window[max(0, off - o) : off][::-1].copy()
        rq = plan.query[o + plan.k :].copy()
        rt = plan.window[
            off + plan.k : off + plan.k + len(rq) + 25
        ].copy()
        return lq, lt, rq, rt

    def _select_rescue(
        self, plan: "_RescuePlan", extended: dict
    ) -> tuple | None:
        """Pick the winning candidate from pre-computed extensions.

        Replicates the scalar rescue loop exactly — strict ``>`` best
        tracking in enumeration order and the early break after any
        probe group whose best reaches half a perfect score — so
        candidates that loop never extends are ignored even when
        their results sit in ``extended``.
        """
        m = self.aligner.scoring.match
        best = None
        for group in plan.groups:
            for o, off in group:
                cand = extended[(o, off)]
                if best is None or cand[0] > best[0]:
                    best = cand
            if best is not None and best[0] >= len(plan.query) * m // 2:
                break
        return best

    def _min_rescue_score(self, plan: "_RescuePlan") -> int:
        return len(plan.query) * self.aligner.scoring.match // 3

    def _rescue_jobs(
        self, plan: "_RescuePlan", best: tuple | None
    ) -> tuple[tuple | None, tuple | None]:
        """The (left, right) ``(query, target, h0, end)`` traceback
        jobs of a winner that clears the score gate; ``None`` for a
        side with nothing to walk."""
        if best is None or best[0] < self._min_rescue_score(plan):
            return None, None
        _, o, off, left, right = best
        lq, lt, rq, rt = self._candidate_jobs(plan, o, off)
        return (
            _trace_job(lq, lt, plan.k * self.aligner.scoring.match, left[0]),
            _trace_job(rq, rt, left[1], right[0]),
        )

    def _emit_rescue(
        self,
        plan: "_RescuePlan",
        anchor: SamRecord,
        best: tuple | None,
        left_walk: Cigar | None,
        right_walk: Cigar | None,
    ) -> SamRecord | None:
        """Score-gate the winning candidate and render its record from
        its traced sides."""
        min_score = self._min_rescue_score(plan)
        if best is None or best[0] < min_score:
            return None
        score, _, off, left, right = best
        cigar = stitch_cigar(
            left[2], left_walk, [(plan.k, "M")], right_walk, right[2]
        )
        pos_in_window = off - left[0][0]
        flag = FLAG_REVERSE if plan.reverse else 0
        return SamRecord(
            qname=anchor.qname,
            flag=flag,
            rname=anchor.rname,
            pos=plan.start + pos_in_window,
            mapq=max(0, min(60, score - min_score)),
            cigar=str(cigar),
            seq=decode(plan.mate_codes),
            tags=(f"AS:i:{score}", "XR:i:1"),
        )

    # -- the batched path ---------------------------------------------------

    def align_pairs_batched(
        self, pairs, batch_size: int = 4096
    ) -> list[tuple[SamRecord, SamRecord]]:
        """Align pairs window by window with batched mate rescue.

        Phase A sends every mate of a window through the deferred-
        extension wave scheduler; phase B collects every rescue
        candidate across the window into two cross-pair extension
        waves (all left extensions, then all rights with the lefts'
        scores as ``h0``) instead of extending pair by pair.  The
        selection replays the scalar enumeration order, so records —
        flags, positions, CIGARs, tags — are the same at every
        ``batch_size``.

        The aligner's own engine serves the rescue waves, so they run
        under the same ``(band, checks)`` policy as the mates, and it
        answers every rescue job as it answers every mate's.
        """
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        out: list[tuple[SamRecord, SamRecord]] = []
        for start in range(0, len(pairs), batch_size):
            out.extend(self._pairs_window(pairs[start : start + batch_size]))
        return out

    def _pairs_window(self, pairs) -> list[tuple[SamRecord, SamRecord]]:
        mates: list[tuple[str, np.ndarray]] = []
        for pair in pairs:
            mates.append((pair.name, pair.first))
            mates.append((pair.name, pair.second))
        recs = align_window(self.aligner, mates)

        # Decide, per pair, whether (and which mate) to rescue.
        decisions: list[tuple[SamRecord, SamRecord, tuple | None]] = []
        for i, pair in enumerate(pairs):
            rec1, rec2 = recs[2 * i], recs[2 * i + 1]
            need: tuple | None = None
            if self._concordant(rec1, rec2):
                pass
            elif not rec1.is_unmapped:
                plan = self._rescue_plan(pair.second, rec1)
                if plan is not None:
                    need = ("second", plan, rec1)
            elif not rec2.is_unmapped:
                plan = self._rescue_plan(pair.first, rec2)
                if plan is not None:
                    need = ("first", plan, rec2)
            decisions.append((rec1, rec2, need))

        # Phase B: every candidate of every plan, two waves.
        cands: list[tuple[object, int, int]] = []
        for _, _, need in decisions:
            if need is None:
                continue
            for group in need[1].groups:
                for o, off in group:
                    cands.append((need[1], o, off))
        extended = self._extend_wave(cands)

        # Phase C: every rescue winner's trace, one traceback wave.
        bests: list[tuple | None] = []
        for _, _, need in decisions:
            best = None
            if need is not None:
                plan = need[1]
                per_plan = {
                    (o, off): extended[(id(plan), o, off)]
                    for group in plan.groups
                    for o, off in group
                }
                best = self._select_rescue(plan, per_plan)
            bests.append(best)
        traced = trace_sides(
            self.aligner.scoring,
            [
                (None, None) if need is None
                else self._rescue_jobs(need[1], best)
                for (_, _, need), best in zip(decisions, bests)
            ],
        )

        out: list[tuple[SamRecord, SamRecord]] = []
        for (rec1, rec2, need), best, sides in zip(decisions, bests, traced):
            if need is not None:
                which, plan, anchor = need
                rescued = self._emit_rescue(plan, anchor, best, *sides)
                if which == "second":
                    if rescued is not None and (
                        rec2.is_unmapped
                        or self._better_pair(rec1, rescued, rec2)
                    ):
                        rec2 = rescued
                        self.stats.rescued += 1
                else:
                    if rescued is not None:
                        rec1 = rescued
                        self.stats.rescued += 1
            proper = self._concordant(rec1, rec2)
            if proper:
                self.stats.proper += 1
            out.append(
                (
                    self._flag(rec1, rec2, proper, first=True),
                    self._flag(rec2, rec1, proper, first=False),
                )
            )
        return out

    def _extend_wave(self, cands) -> dict:
        """Extend every candidate via two cross-pair waves.

        Returns ``{(id(plan), o, off): (score, o, off, left, right)}``,
        the sides resolved as ``(endpoint, score, clipped)`` — the
        right wave threads each left result's score in as ``h0``.
        """
        if not cands:
            return {}
        m = self.aligner.scoring.match
        geoms = [
            self._candidate_jobs(plan, o, off) for plan, o, off in cands
        ]
        if obs.enabled():
            reg = obs.get_registry()
            reg.counter(
                names.PAIRED_RESCUE_JOBS, "rescue candidates extended"
            ).inc(len(cands))
            reg.counter(names.PAIRED_RESCUE_WAVES, "rescue waves").inc(2)
        lefts = extend_side(
            self.aligner.engine,
            [(lq, lt, plan.k * m) for (plan, _, _), (lq, lt, _, _)
             in zip(cands, geoms)],
            "rescue_left",
        )
        rights = extend_side(
            self.aligner.engine,
            [(rq, rt, left[1]) for (_, _, rq, rt), left
             in zip(geoms, lefts)],
            "rescue_right",
        )
        return {
            (id(plan), o, off): (right[1], o, off, left, right)
            for (plan, o, off), left, right in zip(cands, lefts, rights)
        }

    # -- flagging ---------------------------------------------------------------

    def _flag(
        self,
        rec: SamRecord,
        mate: SamRecord,
        proper: bool,
        first: bool,
    ) -> SamRecord:
        flag = rec.flag | FLAG_PAIRED
        flag |= FLAG_FIRST if first else FLAG_SECOND
        if proper:
            flag |= FLAG_PROPER
        if mate.is_unmapped:
            flag |= FLAG_MATE_UNMAPPED
        elif mate.is_reverse:
            flag |= FLAG_MATE_REVERSE
        tlen = 0
        if proper:
            left = min(rec.pos, mate.pos)
            right = max(
                rec.pos + Cigar.parse(rec.cigar).reference_length,
                mate.pos + Cigar.parse(mate.cigar).reference_length,
            )
            tlen = right - left
            if rec.pos > mate.pos or (
                rec.pos == mate.pos and rec.is_reverse
            ):
                tlen = -tlen
        return SamRecord(
            qname=rec.qname,
            flag=flag,
            rname=rec.rname,
            pos=rec.pos,
            mapq=rec.mapq,
            cigar=rec.cigar,
            seq=rec.seq,
            tags=rec.tags + (f"MP:i:{mate.pos + 1}", f"TL:i:{tlen}"),
        )


def _find_exact(window: np.ndarray, probe: np.ndarray) -> list[int]:
    """All exact occurrences of ``probe`` in ``window`` (numpy scan)."""
    k = len(probe)
    if len(window) < k:
        return []
    hits = window[: len(window) - k + 1] == probe[0]
    for d in range(1, k):
        hits &= window[d : len(window) - k + 1 + d] == probe[d]
    return [int(i) for i in np.flatnonzero(hits)]
