"""Seeded inputs, truth tables and the argv table of the five workloads.

Everything here is numpy-only and independent of ``repro``: the
corpora are *not* made with ``repro simulate``, so a later change to
``genome/synth.py`` cannot move the benchmark's inputs.  The same seed
always gives the same bytes; ``run.py`` records the sha256 of every
generated file in its result.

Sizes are the ISSUE's sizes times one common factor, :data:`SCALE`.
The benchmark contract gives each run about 10 s of measuring and
wants a median over several CLI invocations inside it, so one
invocation has to take about 2.5 s rather than 10 s.  The served
workload is the exception: one server answers one open-loop window of
``rate x seconds`` requests: the ISSUE's rate times the same factor
(rounded to 100 req/s, so 1,000 requests at the default 10 s).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_SEED = 20200613
"""Seed every quoted number was measured with."""

HELD_OUT_SEED = 20200614
"""Kept for confirming a later claim on inputs nobody tuned against."""

SCALE = 0.24
"""Common factor applied to every ISSUE read count (see module doc).

Not 0.25: at 875 fragments ``overlap``'s k-mer table sits on a dict
resize threshold and its peak RSS flips between 98 and 113 MB by seed.
"""

REFERENCE_LENGTH = 200_000
REPEAT_FRACTION = 0.05
REPEAT_LENGTH = 300

SERVE_RATE = 100.0
"""Open-loop request rate of ``serve_open``, requests per second.

The ISSUE's 400 req/s scaled like the read counts (1,000 requests in
the 10 s window).  It is also what keeps the metric usable on the
2-core box: the server's CPU is busy ~45% of the window, and a 10%
slower machine costs ~11% of p50.  At 250 req/s the same slowdown
costs ~20%, and 400 req/s sits on the knee (utilisation 0.7-0.8, p99
interquartile spread across seeds 27-35% of its median).
"""

SERVE_WARMUP = 64
"""Extra reads sent before the window so the first wave is not cold."""

SERVE_LIMIT_MS = 250.0
"""Latency limit from due time; a later answer counts as failed."""

_BASES = np.frombuffer(b"ACGT", dtype=np.uint8)


def _scaled(count: int) -> int:
    return max(1, int(round(count * SCALE)))


@dataclass(frozen=True)
class Read:
    """One generated read plus the truth of where it came from."""

    name: str
    sequence: str
    pos: int
    reverse: bool
    indel_span: int
    alternatives: tuple[int, ...] = ()
    """Other origins that are as true: most of the read lies inside
    one copy of an exact repeat, so it places as well on the twin."""


@dataclass(frozen=True)
class Workload:
    """One row of the workload table."""

    name: str
    command: str
    """``repro`` subcommand the timed invocations run."""
    flags: tuple[str, ...]
    """Flags beyond the input/output paths."""
    records: int
    """Input records of one timed invocation."""
    oracle_flags: tuple[str, ...] = ()
    """Flags of the untimed run the first records must equal: the
    full-band / scalar oracle (check c), the batch command (check e)."""
    oracle_records: int = 0


_SHORT_BATCHED_FLAGS = (
    "--engine", "batched", "--kernel", "striped",
    "--seeding", "kmer", "--batch-size", "4096",
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="short_batched",
            command="align",
            flags=_SHORT_BATCHED_FLAGS,
            records=_scaled(10_000),
            oracle_flags=("--engine", "full"),
            oracle_records=_scaled(400),
        ),
        Workload(
            name="short_default_sv",
            command="align",
            flags=(),
            records=_scaled(400),
            oracle_flags=("--engine", "full"),
            oracle_records=_scaled(150),
        ),
        Workload(
            name="longread",
            command="longread",
            flags=("--engine", "batched", "--kernel", "striped"),
            records=_scaled(200),
            oracle_flags=("--engine", "scalar"),
            oracle_records=_scaled(40),
        ),
        Workload(
            name="overlap",
            command="overlap",
            flags=("--kernel", "striped", "--band", "31"),
            records=_scaled(3_500),
        ),
        Workload(
            name="serve_open",
            command="serve",
            flags=("--seeding", "kmer"),
            records=0,  # rate x seconds, fixed by the run
            # what a served line must equal: the batch command's record
            oracle_flags=_SHORT_BATCHED_FLAGS,
            oracle_records=10**6,  # every request
        ),
    )
}


# -- sequence helpers ---------------------------------------------------


def decode(codes: np.ndarray) -> str:
    """Base codes 0..3 as an ``ACGT`` string."""
    return _BASES[codes].tobytes().decode("ascii")


def reverse_complement(sequence: str) -> str:
    """Reverse complement of an ``ACGTN`` string."""
    return sequence[::-1].translate(str.maketrans("ACGTN", "TGCAN"))


def _random_codes(rng: np.random.Generator, length: int) -> np.ndarray:
    return rng.integers(0, 4, size=length, dtype=np.uint8)


def make_reference(
    rng: np.random.Generator,
    length: int = REFERENCE_LENGTH,
    repeat_fraction: float = REPEAT_FRACTION,
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Random reference; ``repeat_fraction`` of it copies of 300 bp.

    Also returns the ``(source, copy)`` starts.  No repeat touches
    another, so every pair stays an exact copy and has one twin.
    """
    ref = _random_codes(rng, length)
    touched = np.zeros(length, dtype=bool)
    pairs = []
    for _ in range(int(length * repeat_fraction / REPEAT_LENGTH)):
        while True:
            src, dst = (
                int(x) for x in rng.integers(0, length - REPEAT_LENGTH, 2)
            )
            windows = (
                slice(src, src + REPEAT_LENGTH),
                slice(dst, dst + REPEAT_LENGTH),
            )
            if abs(src - dst) >= REPEAT_LENGTH and not any(
                touched[w].any() for w in windows
            ):
                break
        ref[windows[1]] = ref[windows[0]]
        for w in windows:
            touched[w] = True
        pairs.append((src, dst))
    return ref, pairs


def _twins(
    repeats: list[tuple[int, int]], pos: int, span: int
) -> tuple[int, ...]:
    """Where else ``reference[pos : pos + span]`` lies by a repeat.

    A read with at least half of itself inside one copy of an exact
    repeat places about as well on the other copy (better, if its own
    locus carries an indel).
    """
    twins = []
    for a, b in repeats:
        for here, there in ((a, b), (b, a)):
            inside = min(pos + span, here + REPEAT_LENGTH) - max(pos, here)
            if 2 * inside >= span:
                twins.append(pos - here + there)
    return tuple(twins)


def _indel(
    rng: np.random.Generator, frag: np.ndarray, at: int, size: int
) -> np.ndarray:
    """Delete or insert ``size`` bases at ``at``, each with p = 1/2."""
    if rng.random() < 0.5:
        return np.delete(frag, slice(at, at + size))
    return np.insert(frag, at, _random_codes(rng, size))


def _substitute(
    rng: np.random.Generator,
    read: np.ndarray,
    rate: float,
    allowed: np.ndarray | None = None,
) -> None:
    """Substitute bases at ``rate``, only at ``allowed`` sites if given."""
    sites = np.arange(len(read)) if allowed is None else allowed
    n = int(rng.binomial(len(sites), rate))
    if n:
        sites = rng.choice(sites, size=n, replace=False)
        read[sites] = (read[sites] + rng.integers(1, 4, size=n)) % 4


SV_BLOCK = 100
"""Reads per block over which the large indels are stratified."""


def _large_indel_block(
    rng: np.random.Generator, rate: float
) -> np.ndarray:
    """For each read of one block, the size of its 8-40 bp indel or 0.

    Exactly ``rate`` of the block's reads carry one, and their sizes
    take one value from each of as many equal slices of 8..40, so the
    work a corpus asks for hardly depends on the seed.
    """
    carriers = round(rate * SV_BLOCK)
    sizes = np.zeros(SV_BLOCK, dtype=np.int64)
    strata = 8 + (np.arange(carriers) + rng.random(carriers)) * 33 / carriers
    sizes[rng.permutation(SV_BLOCK)[:carriers]] = strata.astype(np.int64)
    return sizes


def short_reads(
    reference: np.ndarray,
    repeats: list[tuple[int, int]],
    rng: np.random.Generator,
    count: int,
    length: int,
    large_indel_rate: float,
) -> list[Read]:
    """Platinum-like short reads.

    1% substitutions, 0.12% small indels of at most 4 bp,
    ``large_indel_rate`` of reads carry one 8-40 bp indel, half the
    reads are reverse-strand.  Reads are drawn one after another from
    one stream, so the first ``n`` reads do not depend on ``count``.
    """
    span = length + 64
    reads = []
    for k in range(count):
        if k % SV_BLOCK == 0:
            large = _large_indel_block(rng, large_indel_rate)
        pos = int(rng.integers(0, len(reference) - span))
        frag = reference[pos : pos + span]
        indel_span = 0
        size = int(large[k % SV_BLOCK])
        if size:
            frag = _indel(rng, frag, int(rng.integers(8, length - 8)), size)
            indel_span += size
        for _ in range(int(rng.binomial(length, 0.0012))):
            size = int(rng.integers(1, 5))
            frag = _indel(rng, frag, int(rng.integers(1, length - 5)), size)
            indel_span += size
        read = frag[:length].copy()
        _substitute(rng, read, 0.01)
        reverse = bool(rng.random() < 0.5)
        sequence = decode(read)
        if reverse:
            sequence = reverse_complement(sequence)
        reads.append(
            Read(
                f"read{k:07d}", sequence, pos, reverse, indel_span,
                _twins(repeats, pos, length),
            )
        )
    return reads


def long_reads(
    reference: np.ndarray, rng: np.random.Generator, count: int
) -> list[Read]:
    """Long reads, length N(1500, 300), indel-dominated errors.

    About 1% substitutions, 3% of bases in 1-3 bp indels, and one
    5-10 bp indel per kilobase; forward strand only (the long-read
    aligner maps one strand).
    """
    reads = []
    for k in range(count):
        length = int(np.clip(rng.normal(1500, 300), 300, 2700))
        span = length + 160
        pos = int(rng.integers(0, len(reference) - span))
        frag = reference[pos : pos + span]
        indel_span = 0
        sizes = [
            int(rng.integers(1, 4))
            for _ in range(int(rng.binomial(length, 0.015)))
        ] + [
            int(rng.integers(5, 11))
            for _ in range(int(rng.binomial(length, 0.001)))
        ]
        for size in sizes:
            frag = _indel(rng, frag, int(rng.integers(32, length - 32)), size)
            indel_span += size
        read = frag[:length].copy()
        _substitute(rng, read, 0.01)
        reads.append(
            Read(f"long{k:06d}", decode(read), pos, False, indel_span)
        )
    return reads


TILE_LENGTH = 400
TILE_STEP = 150
TILE_CLEAR = 10
"""Error-free bases before each overlap end (see tiling_fragments)."""


def tiling_fragments(
    rng: np.random.Generator, count: int
) -> list[Read]:
    """400 bp fragments tiling a repeat-free reference at step 150.

    Every fragment overlaps its next two by exactly 250 and 100 bp.
    Errors are 1% substitutions only, and none in the last
    ``TILE_CLEAR`` bases before an overlap's end (fragment positions
    90-99, 240-249, 390-399): a mismatch there makes a shorter overlap
    score as well as the true one, and the truth must be exact.
    """
    reference = _random_codes(
        rng, TILE_STEP * (count - 1) + TILE_LENGTH
    )
    ends = (
        TILE_LENGTH - 2 * TILE_STEP, TILE_LENGTH - TILE_STEP, TILE_LENGTH
    )
    allowed = np.array(
        [
            p for p in range(TILE_LENGTH)
            if not any(end - TILE_CLEAR <= p < end for end in ends)
        ]
    )
    reads = []
    for k in range(count):
        pos = k * TILE_STEP
        frag = reference[pos : pos + TILE_LENGTH].copy()
        _substitute(rng, frag, 0.01, allowed)
        reads.append(Read(f"frag{k:05d}", decode(frag), pos, False, 0))
    return reads


def expected_overlaps(
    fragments: list[Read],
) -> set[tuple[str, int, int, int, str, int, int, int]]:
    """Ground truth of the tiling: the PAF-like columns 1-4 and 6-9."""
    truth = set()
    for i, a in enumerate(fragments):
        for b in fragments[i + 1 : i + 3]:
            shift = b.pos - a.pos
            truth.add(
                (
                    a.name, TILE_LENGTH, shift, TILE_LENGTH,
                    b.name, TILE_LENGTH, 0, TILE_LENGTH - shift,
                )
            )
    return truth


# -- files --------------------------------------------------------------


def write_fasta(path: Path, name: str, codes: np.ndarray) -> None:
    sequence = decode(codes)
    with open(path, "w") as handle:
        handle.write(f">{name}\n")
        for i in range(0, len(sequence), 70):
            handle.write(sequence[i : i + 70] + "\n")


def write_fastq(path: Path, reads: list[Read]) -> None:
    with open(path, "w") as handle:
        for read in reads:
            handle.write(
                f"@{read.name}\n{read.sequence}\n+\n"
                f"{'I' * len(read.sequence)}\n"
            )


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class Corpus:
    """The generated inputs of one workload, on disk and in memory."""

    workload: Workload
    reads: list[Read]
    reads_path: Path
    one_path: Path
    """A one-record input, for the set-up time measurement."""
    oracle_path: Path | None = None
    reference_path: Path | None = None
    reference: np.ndarray | None = None
    warmup: list[Read] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)


def generate(
    name: str, seed: int, directory: Path, serve_requests: int = 0
) -> Corpus:
    """Write the inputs of workload ``name`` for ``seed`` to ``directory``.

    ``serve_requests`` is the number of requests of the open-loop
    window (``serve_open`` only).  ``serve_open`` shares the
    ``short_batched`` recipe and stream, so its first reads are that
    workload's reads.
    """
    workload = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)
    reference = None
    warmup: list[Read] = []
    if name == "overlap":
        reads = tiling_fragments(rng, workload.records)
    else:
        reference, repeats = make_reference(rng)
        if name == "longread":
            reads = long_reads(reference, rng, workload.records)
        elif name == "short_default_sv":
            reads = short_reads(
                reference, repeats, rng, workload.records, 151, 0.25
            )
        else:
            count = workload.records or serve_requests + SERVE_WARMUP
            reads = short_reads(
                reference, repeats, rng, count, 101, 0.02
            )
            if name == "serve_open":
                reads, warmup = (
                    reads[:serve_requests], reads[serve_requests:]
                )
    corpus = Corpus(
        workload=workload,
        reads=reads,
        reads_path=directory / "reads.fastq",
        one_path=directory / "one.fastq",
        reference=reference,
        warmup=warmup,
    )
    write_fastq(corpus.reads_path, reads)
    write_fastq(corpus.one_path, reads[:1])
    files = [corpus.reads_path]
    if reference is not None:
        corpus.reference_path = directory / "reference.fasta"
        write_fasta(corpus.reference_path, "chr1", reference)
        files.append(corpus.reference_path)
    if workload.oracle_records:
        corpus.oracle_path = directory / "oracle.fastq"
        write_fastq(corpus.oracle_path, reads[: workload.oracle_records])
    corpus.digests = {path.name: sha256_of(path) for path in files}
    return corpus


def argv_for(
    workload: Workload,
    corpus: Corpus,
    reads: Path,
    out: Path,
    flags: tuple[str, ...] | None = None,
) -> list[str]:
    """The ``repro`` argv of one batch invocation of ``workload``.

    ``flags`` defaults to the workload's own; the oracle run and the
    sharded run pass theirs.  ``serve_open``'s batch invocations (the
    records its answers must equal) are ``align`` runs.
    """
    command = "align" if workload.command == "serve" else workload.command
    argv = [command]
    if corpus.reference_path is not None:
        argv += ["--reference", str(corpus.reference_path)]
    argv += ["--reads", str(reads), "--out", str(out)]
    argv += list(workload.flags if flags is None else flags)
    return argv
