"""Synthetic reference genomes and read simulation.

The paper evaluates on GRCh38 plus 787 M real 101 bp reads (Platinum
Genomes NA12878).  Neither is available offline, so this module
provides the calibrated synthetic equivalent (see DESIGN.md,
"Substitutions"): what drives every SeedEx experiment is the *edit
structure* of reads relative to the reference — the band-demand
distribution of Figure 2 — not the biological content.

``PLATINUM_LIKE`` is tuned so that the fraction of seed extensions
needing a given band matches the paper's findings: ~98% of extensions
need ``w <= 10`` and ~2% carry a structural indel demanding a large
band.  Reads record their true origin so aligner output can be scored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import InputError
from repro.genome.sequence import decode, random_sequence, reverse_complement


@dataclass(frozen=True)
class ReadProfile:
    """Knobs of the read simulator.

    Rates are per base unless stated otherwise.  ``large_indel_rate``
    is per *read* and plants one structural indel of size uniform in
    ``[large_indel_min, large_indel_max]`` — these are the rare reads
    that genuinely need a wide band.
    """

    read_length: int = 101
    substitution_rate: float = 0.010
    small_indel_rate: float = 0.0012
    small_indel_max: int = 4
    large_indel_rate: float = 0.02
    large_indel_min: int = 8
    large_indel_max: int = 40
    reverse_strand_fraction: float = 0.5


PLATINUM_LIKE = ReadProfile()
"""Default profile calibrated against the paper's Figure 2 shape."""

CLEAN = ReadProfile(
    substitution_rate=0.0,
    small_indel_rate=0.0,
    large_indel_rate=0.0,
)
"""Error-free reads, for pipeline plumbing tests."""


@dataclass
class SimulatedRead:
    """A read plus the ground truth of how it was produced."""

    name: str
    codes: np.ndarray
    true_pos: int
    reverse: bool
    substitutions: int
    insertions: int
    deletions: int

    @property
    def sequence(self) -> str:
        """The read as a DNA string."""
        return decode(self.codes)

    @property
    def edits(self) -> int:
        """Total edits applied to this read."""
        return self.substitutions + self.insertions + self.deletions

    @property
    def indel_span(self) -> int:
        """Total inserted+deleted bases: the read's true band demand."""
        return self.insertions + self.deletions


def synthesize_reference(
    length: int,
    rng: np.random.Generator,
    repeat_fraction: float = 0.05,
    repeat_length: int = 300,
) -> np.ndarray:
    """Generate a reference with a controllable repeat content.

    Real genomes are repetitive; repeats are what make seeding
    ambiguous and reruns interesting.  ``repeat_fraction`` of the
    reference is covered by copies of earlier segments.
    """
    if length <= 0:
        raise ValueError("reference length must be positive")
    ref = random_sequence(length, rng)
    if repeat_fraction <= 0 or length < 2 * repeat_length:
        return ref
    n_repeats = int(length * repeat_fraction / repeat_length)
    for _ in range(n_repeats):
        src = int(rng.integers(0, length - repeat_length))
        dst = int(rng.integers(0, length - repeat_length))
        ref[dst : dst + repeat_length] = ref[src : src + repeat_length]
    return ref


def write_truth_sidecar(reads, reads_path) -> "Path":
    """Write the ``.truth.tsv`` sidecar for a simulated FASTQ.

    ``reads`` is any iterable of :class:`SimulatedRead` (or objects
    with the same truth attributes); the sidecar lands next to
    ``reads_path`` at the canonical ``<reads>.truth.tsv`` location and
    the path is returned.  Imports lazily so the simulator stays free
    of a scorecard dependency unless truth output is requested.
    """
    from repro.scorecard.truth import (
        TruthRecord,
        truth_path_for,
        write_truth,
    )

    path = truth_path_for(reads_path)
    with open(path, "w") as handle:
        write_truth(handle, (TruthRecord.from_read(r) for r in reads))
    return path


class ReadSimulator:
    """Samples reads from a reference with a mutation/error model."""

    def __init__(
        self,
        reference: np.ndarray,
        profile: ReadProfile = PLATINUM_LIKE,
        seed: int = 0,
    ) -> None:
        if len(reference) < profile.read_length + profile.large_indel_max:
            raise InputError("reference too short for the read profile")
        self.reference = np.asarray(reference, dtype=np.uint8)
        self.profile = profile
        self.rng = np.random.default_rng(seed)
        self._counter = 0

    def simulate(self, count: int) -> list[SimulatedRead]:
        """Simulate ``count`` reads."""
        return [self._one() for _ in range(count)]

    def _one(self) -> SimulatedRead:
        p = self.profile
        rng = self.rng
        # Over-sample the reference span so deletions can be absorbed.
        span = p.read_length + p.large_indel_max + 8
        pos = int(rng.integers(0, len(self.reference) - span))
        fragment = list(int(b) for b in self.reference[pos : pos + span])

        subs = ins = dels = 0
        # One optional structural indel (the wide-band tail of Fig 2).
        if rng.random() < p.large_indel_rate:
            size = int(rng.integers(p.large_indel_min, p.large_indel_max + 1))
            at = int(rng.integers(8, p.read_length - 8))
            if rng.random() < 0.5:
                del fragment[at : at + size]
                dels += size
            else:
                insert = [int(b) for b in random_sequence(size, rng)]
                fragment[at:at] = insert
                ins += size

        # Small indels.
        n_small = rng.binomial(p.read_length, p.small_indel_rate)
        for _ in range(int(n_small)):
            size = int(rng.integers(1, p.small_indel_max + 1))
            at = int(rng.integers(1, max(2, len(fragment) - size - 1)))
            if rng.random() < 0.5:
                del fragment[at : at + size]
                dels += size
            else:
                fragment[at:at] = [
                    int(b) for b in random_sequence(size, rng)
                ]
                ins += size

        read = np.array(fragment[: p.read_length], dtype=np.uint8)
        # Substitution errors.
        n_subs = int(rng.binomial(p.read_length, p.substitution_rate))
        if n_subs:
            sites = rng.choice(p.read_length, size=n_subs, replace=False)
            shift = rng.integers(1, 4, size=n_subs)
            read[sites] = (read[sites] + shift) % 4
            subs += n_subs

        reverse = bool(rng.random() < p.reverse_strand_fraction)
        if reverse:
            read = reverse_complement(read)
        self._counter += 1
        return SimulatedRead(
            name=f"read{self._counter:07d}",
            codes=read,
            true_pos=pos,
            reverse=reverse,
            substitutions=subs,
            insertions=ins,
            deletions=dels,
        )


@dataclass
class ExtensionJob:
    """One seed-extension work item: the accelerator's input format."""

    query: np.ndarray
    target: np.ndarray
    h0: int
    tag: str = ""


@dataclass(frozen=True)
class LongReadProfile:
    """Error model for long reads (paper Section VII-D).

    Long-read technologies trade length for error rate; the mix is
    indel-dominated.  Defaults approximate corrected long reads (a few
    percent error) — raw-noisy settings also work, they just shrink
    seeds and enlarge fill regions.
    """

    read_length: int = 1500
    length_sd: float = 0.0
    substitution_rate: float = 0.015
    indel_rate: float = 0.02
    indel_max: int = 3
    sv_rate: float = 0.10
    sv_min: int = 10
    sv_max: int = 60
    reverse_strand_fraction: float = 0.0


def simulate_long_reads(
    reference: np.ndarray,
    count: int,
    rng: np.random.Generator,
    profile: LongReadProfile | None = None,
) -> list[SimulatedRead]:
    """Sample long reads with an indel-dominated error model.

    With ``length_sd > 0`` per-read lengths are drawn PBSIM-style from
    a normal distribution around ``read_length`` (clamped to
    ``[300, read_length + 4*length_sd]``); the default ``0.0`` keeps
    every read exactly ``read_length`` long — and draws nothing from
    ``rng`` for it, so existing fixed-seed corpora are unchanged.
    """
    p = profile or LongReadProfile()
    max_len = p.read_length + (
        int(4 * p.length_sd) if p.length_sd else 0
    )
    if len(reference) < max_len + p.sv_max + 64:
        raise InputError("reference too short for the long-read profile")
    reads = []
    for k in range(count):
        if p.length_sd:
            rlen = int(rng.normal(p.read_length, p.length_sd))
            rlen = max(300, min(max_len, rlen))
        else:
            rlen = p.read_length
        span = rlen + p.sv_max + 64
        pos = int(rng.integers(0, len(reference) - span))
        fragment = [int(b) for b in reference[pos : pos + span]]
        subs = ins = dels = 0
        if rng.random() < p.sv_rate:
            size = int(rng.integers(p.sv_min, p.sv_max + 1))
            at = int(rng.integers(64, rlen - 64))
            if rng.random() < 0.5:
                del fragment[at : at + size]
                dels += size
            else:
                fragment[at:at] = [
                    int(b) for b in random_sequence(size, rng)
                ]
                ins += size
        n_indels = int(rng.binomial(rlen, p.indel_rate))
        for _ in range(n_indels):
            size = int(rng.integers(1, p.indel_max + 1))
            at = int(rng.integers(1, max(2, len(fragment) - size - 1)))
            if rng.random() < 0.5:
                del fragment[at : at + size]
                dels += size
            else:
                fragment[at:at] = [
                    int(b) for b in random_sequence(size, rng)
                ]
                ins += size
        read = np.array(fragment[:rlen], dtype=np.uint8)
        n_subs = int(rng.binomial(rlen, p.substitution_rate))
        if n_subs:
            sites = rng.choice(rlen, size=n_subs, replace=False)
            shift = rng.integers(1, 4, size=n_subs)
            read[sites] = (read[sites] + shift) % 4
            subs += n_subs
        reverse = bool(rng.random() < p.reverse_strand_fraction)
        if reverse:
            read = reverse_complement(read)
        reads.append(
            SimulatedRead(
                name=f"longread{k:06d}",
                codes=read,
                true_pos=pos,
                reverse=reverse,
                substitutions=subs,
                insertions=ins,
                deletions=dels,
            )
        )
    return reads


def fragment_corpus(
    reference: np.ndarray,
    rng: np.random.Generator,
    length: int = 300,
    step: int = 200,
    substitution_rate: float = 0.01,
    count: int | None = None,
) -> list[SimulatedRead]:
    """Shear a reference into tiling fragments with known overlaps.

    Consecutive fragments start ``step`` apart, so each overlaps the
    next by ``length - step`` bases — ground truth for the all-vs-all
    overlap detector (:mod:`repro.apps.overlap`): fragment ``i``'s
    suffix must be reported against fragment ``i+1``'s prefix, and the
    true overlap span follows from the ``true_pos`` fields.  Errors
    are substitution-only so overlap lengths stay exact.
    """
    if not 0 < step < length:
        raise ValueError("need 0 < step < length for overlapping tiles")
    starts = list(range(0, max(1, len(reference) - length + 1), step))
    if count is not None:
        starts = starts[:count]
    reads: list[SimulatedRead] = []
    for k, pos in enumerate(starts):
        frag = reference[pos : pos + length].copy()
        n_subs = int(rng.binomial(len(frag), substitution_rate))
        if n_subs:
            sites = rng.choice(len(frag), size=n_subs, replace=False)
            shift = rng.integers(1, 4, size=n_subs)
            frag[sites] = (frag[sites] + shift) % 4
        reads.append(
            SimulatedRead(
                name=f"frag{k:05d}",
                codes=frag,
                true_pos=pos,
                reverse=False,
                substitutions=n_subs,
                insertions=0,
                deletions=0,
            )
        )
    return reads


def structural_corpus(
    n_jobs: int,
    rng: np.random.Generator,
    query_length: int = 101,
    structural_fraction: float = 0.65,
    deletion_bias: float = 0.85,
    size_range: tuple[int, int] = (15, 55),
    early_subs_max: int = 3,
    substitution_rate: float = 0.01,
    target_margin: int = 70,
    h0_range: tuple[int, int] = (19, 31),
) -> list["ExtensionJob"]:
    """An extension corpus rich in case-c inputs (Figure 14's regime).

    Real case-c extensions — the ones the E-score and edit-distance
    checks exist for — are reads carrying a structural deletion whose
    size approaches the band, with their substitutions clustered right
    after the seed (seeds end at the first error).  This generator
    reproduces that population directly: ``structural_fraction`` of
    jobs get one indel (``deletion_bias`` of them deletions) of size
    uniform in ``size_range``, plus up to ``early_subs_max``
    substitutions in the first 20 query bases.

    Insertions larger than half the band are *designed* to fail the
    checks (their lost matches break the all-match bound on both our
    and the paper's formulation); they model the rerun tail.
    """
    jobs: list[ExtensionJob] = []
    span = query_length + max(size_range[1], target_margin) + 16
    for k in range(n_jobs):
        ref = random_sequence(span + target_margin, rng)
        h0 = int(rng.integers(*h0_range))
        q = list(int(b) for b in ref[:query_length])
        if rng.random() < structural_fraction:
            size = int(rng.integers(size_range[0], size_range[1] + 1))
            # Place the indel after the prefix has banked enough score
            # to survive the gap penalty (otherwise the extension dies
            # and the read is a guaranteed rerun, not a case-c input).
            at_lo = min(size + 12, query_length - 12)
            at = int(rng.integers(at_lo, query_length - 10))
            if rng.random() < deletion_bias:
                q = [int(b) for b in ref[:at]] + [
                    int(b)
                    for b in ref[at + size : at + size + query_length - at]
                ]
            else:
                ins = [int(b) for b in random_sequence(size, rng)]
                tail = query_length - at - size
                if tail > 0:
                    q = (
                        [int(b) for b in ref[:at]]
                        + ins
                        + [int(b) for b in ref[at : at + tail]]
                    )
        q = np.array(q[:query_length], dtype=np.uint8)
        for _ in range(int(rng.integers(0, early_subs_max + 1))):
            pos = int(rng.integers(0, min(20, query_length)))
            q[pos] = (q[pos] + int(rng.integers(1, 4))) % 4
        n_subs = int(rng.binomial(query_length, substitution_rate))
        for _ in range(n_subs):
            pos = int(rng.integers(0, query_length))
            q[pos] = (q[pos] + int(rng.integers(1, 4))) % 4
        target = ref[: query_length + target_margin]
        jobs.append(
            ExtensionJob(query=q, target=target, h0=h0, tag=f"sv{k:06d}")
        )
    return jobs


def extension_corpus(
    n_jobs: int,
    rng: np.random.Generator,
    query_length: int = 101,
    profile: ReadProfile = PLATINUM_LIKE,
    reference_length: int = 200_000,
    h0_range: tuple[int, int] = (19, 40),
    vary_query_length: bool = False,
    min_query_length: int = 12,
) -> list[ExtensionJob]:
    """A standalone corpus of extension jobs with the paper's workload
    shape, for kernel-level experiments that bypass the full aligner.

    Each job is a read fragment (query) against its true reference
    window (target), with a seed score ``h0`` — the form in which
    BWA-MEM hands work to the accelerator.  ``vary_query_length``
    mimics real seed placement: the extension covers only the read
    portion beyond the seed, so query lengths spread uniformly — which
    is what spreads BWA-MEM's *estimated* band across Figure 2's
    buckets (the estimate is proportional to the query length).
    """
    ref = synthesize_reference(reference_length, rng)
    sim_profile = ReadProfile(
        read_length=query_length,
        substitution_rate=profile.substitution_rate,
        small_indel_rate=profile.small_indel_rate,
        small_indel_max=profile.small_indel_max,
        large_indel_rate=profile.large_indel_rate,
        large_indel_min=profile.large_indel_min,
        large_indel_max=profile.large_indel_max,
        reverse_strand_fraction=0.0,
    )
    sim = ReadSimulator(ref, sim_profile, seed=int(rng.integers(2**31)))
    jobs = []
    for read in sim.simulate(n_jobs):
        query = read.codes
        if vary_query_length:
            qlen = int(rng.integers(min_query_length, query_length + 1))
            query = query[:qlen]
        margin = profile.large_indel_max + 8
        t_end = min(len(ref), read.true_pos + len(query) + margin)
        target = ref[read.true_pos : t_end]
        h0 = int(rng.integers(*h0_range))
        jobs.append(
            ExtensionJob(
                query=query,
                target=target,
                h0=h0,
                tag=read.name,
            )
        )
    return jobs
