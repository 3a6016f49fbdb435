"""Shared test utilities: runners, generators and a path oracle.

The runners (:func:`sam_bytes`, :func:`cli_output`,
:func:`serve_report`) are the transports of the byte-identity harness,
``tests/test_byte_identity.py``.

The brute-force enumerator walks every monotone path of a small DP
matrix and scores it with exact affine-gap accounting.  It is the
independent ground truth used to validate both the DP kernels and the
admissibility of every SeedEx bound: kernels and checks are only
trusted because they agree with this enumeration on small inputs.
"""

from __future__ import annotations

import io
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.align.scoring import AffineGap


def sam_bytes(
    reference: np.ndarray,
    reads,
    engine,
    *,
    workers: int = 1,
    batch_size: int | None = None,
    seeding: str = "kmer",
    reference_name: str = "chr1",
    start_method: str | None = None,
    paired: bool = False,
    observe=None,
    **aligner_opts,
) -> bytes:
    """SAM output of one pipeline configuration, as comparable bytes.

    The byte-identity harness's one in-process runner: every
    configuration — the per-read reference or the wave scheduler, one
    process or supervised, short, paired or long reads — renders
    through the same writer so outputs are directly ``==``-comparable.

    ``engine`` is an engine instance for in-process runs, a picklable
    :class:`~repro.aligner.engines.EngineSpec` (mandatory when
    ``workers > 1``), or a
    :class:`~repro.aligner.longread.LongReadRecipe` for long reads.
    ``batch_size=None`` runs the reference drivers of
    :mod:`tests.reference_drivers` (per read, per pair); an integer
    routes reads through the deferred-extension wave scheduler in
    windows of that size.  ``workers > 1`` runs the supervised runner, its
    processes started by ``start_method``.  ``paired=True`` takes
    ``ReadPair`` objects through
    :class:`~repro.aligner.paired.PairedAligner`.  ``observe``, when
    given, is called with the in-process aligner after the run, so a
    test can read its counters.
    """
    from repro.aligner.longread import LongReadRecipe
    from repro.aligner.paired import PairedAligner
    from repro.aligner.engines import EngineSpec
    from repro.aligner.parallel import align_supervised
    from repro.aligner.pipeline import Aligner
    from repro.core.extender import SeedExtender
    from repro.genome.sam import write_sam
    from tests import reference_drivers

    if isinstance(engine, LongReadRecipe):
        options = {"recipe": engine}
    else:
        options = dict(
            spec=engine,
            seeding=seeding,
            reference_name=reference_name,
            **aligner_opts,
        )
    if workers > 1:
        if not isinstance(engine, (EngineSpec, LongReadRecipe)):
            raise TypeError("workers > 1 requires an EngineSpec")
        records = align_supervised(
            reference,
            reads,
            workers=workers,
            batch_size=batch_size if batch_size is not None else 4096,
            start_method=start_method,
            **options,
        ).records
    elif isinstance(engine, LongReadRecipe):
        records = engine.build(reference)(reads)
    else:
        built = engine.build() if isinstance(engine, EngineSpec) else engine
        if paired:
            aligner = PairedAligner(
                reference,
                built,
                seeding=seeding,
                reference_name=reference_name,
                **aligner_opts,
            )
            mates = (
                reference_drivers.align_pairs(
                    aligner, reads, SeedExtender(scoring=built.scoring)
                )
                if batch_size is None
                else aligner.align_pairs_batched(reads, batch_size)
            )
            records = [rec for pair in mates for rec in pair]
        else:
            aligner = Aligner(
                reference,
                built,
                seeding=seeding,
                reference_name=reference_name,
                **aligner_opts,
            )
            records = (
                reference_drivers.align_reads(aligner, reads)
                if batch_size is None
                else aligner.align_batched(reads, batch_size=batch_size)
            )
        if observe is not None:
            observe(aligner)
    buf = io.StringIO()
    write_sam(buf, records, reference_name, len(reference))
    return buf.getvalue().encode()


def cli_output(argv: list[str]) -> str:
    """What one ``repro`` subcommand writes to its ``--out``.

    The CLI transport of the byte-identity harness: ``argv`` runs
    in-process through :func:`repro.cli.main`, which must exit 0.
    """
    from repro import cli

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        assert cli.main([*argv, "--out", str(out)]) == 0
        return out.read_text()


def serve_report(
    reference: np.ndarray,
    reads,
    engine,
    *,
    max_batch: int,
    seeding: str = "kmer",
    connections: int = 3,
    client: str = "leg",
    reference_name: str = "chr1",
):
    """One concurrent burst of ``reads`` against a resident server.

    The serve transport of the byte-identity harness: a server over
    ``engine`` answers ``connections`` pipelined clients; the
    :class:`~repro.serve.client.LoadReport` maps request
    ``{client}-{i}`` to the SAM line answering read ``i``.
    """
    from repro.aligner.pipeline import Aligner
    from repro.genome.sequence import decode
    from repro.serve.client import run_load
    from repro.serve.server import AlignmentServer, ServeConfig

    aligner = Aligner(
        reference, engine, seeding=seeding, reference_name=reference_name
    )
    server = AlignmentServer(
        aligner, ServeConfig(max_batch=max_batch, linger_ms=5)
    )
    port = server.start()
    try:
        return run_load(
            "127.0.0.1",
            port,
            [(name, decode(codes)) for name, codes in reads],
            connections=connections,
            client=client,
        )
    finally:
        server.shutdown()


class RecordingEngine:
    """A wave engine over the full-band kernel that records its jobs.

    Every job comes back as the full band's result; the ``h0`` of
    every job it is handed is recorded, in the order it was handed.
    """

    name = "recording"

    def __init__(self) -> None:
        from repro.aligner.engines import BatchedEngine

        self.inner = BatchedEngine()
        self.scoring = self.inner.scoring
        self.seen: list[int] = []

    def extend_wave(self, jobs):
        self.seen.extend(h0 for _, _, h0 in jobs)
        return self.inner.extend_wave(jobs)


class ReferenceKernel:
    """A kernel backend double over the per-job oracles.

    Every registered backend is the lockstep sweep, so the
    byte-identity references inject this instead: extensions run
    :func:`repro.align.banded.extend` one job at a time and overlaps
    :func:`repro.align.overlapdp.overlap_scalar`, keeping each
    reference independent of the code it judges.
    """

    name = "reference"

    def extend(self, query, target, scoring, h0, w=None):
        from repro.align import banded

        return banded.extend(query, target, scoring, h0, w=w)

    def extend_batch(self, queries, targets, h0s, scoring, w=None):
        return [
            self.extend(q, t, scoring, h0, w=w)
            for q, t, h0 in zip(queries, targets, h0s, strict=True)
        ]

    def overlap(self, query, target, scoring, w=None):
        from repro.align.overlapdp import overlap_scalar

        return overlap_scalar(query, target, scoring, w=w)

    def overlap_batch(self, queries, targets, scoring, w=None):
        return [
            self.overlap(q, t, scoring, w=w)
            for q, t in zip(queries, targets, strict=True)
        ]


class ReferenceEngine:
    """A wave engine that sends every job through :class:`ReferenceKernel`.

    The byte-identity references extend through this, not through
    :class:`~repro.aligner.engines.BatchedEngine`: the product engine
    settles the ungapped jobs in closed form
    (:mod:`repro.align.ungapped`) before any DP, and a reference built
    on it would judge that rule with itself.  ``band=None`` runs every
    job at the full band; a ``band`` runs each job through a checked
    :class:`~repro.core.extender.SeedExtender` at that band, one job at
    a time.  :attr:`jobs` counts the jobs handed over.
    """

    name = "reference"

    def __init__(self, band=None):
        from repro.align.scoring import BWA_MEM_SCORING
        from repro.core.extender import SeedExtender

        self.scoring = BWA_MEM_SCORING
        self.kernel = ReferenceKernel()
        self.extender = None if band is None else SeedExtender(
            band=band, scoring=self.scoring, kernel=self.kernel
        )
        self.jobs = 0

    def extend_wave(self, jobs):
        self.jobs += len(jobs)
        if self.extender is not None:
            return [self.extender.extend(q, t, h0).result for q, t, h0 in jobs]
        return [self.kernel.extend(q, t, self.scoring, h0) for q, t, h0 in jobs]


def fast_policy(**overrides):
    """A :class:`SupervisorPolicy` tuned for tests: quick heartbeats
    and polls, a restart budget bisection never exhausts."""
    from repro.durability.supervisor import SupervisorPolicy

    defaults = dict(
        max_restarts=30,
        crash_threshold=2,
        heartbeat_interval=0.05,
        hung_timeout=30.0,
        poll_interval=0.02,
    )
    defaults.update(overrides)
    return SupervisorPolicy(**defaults)


def mutate(
    seq: np.ndarray,
    rng: np.random.Generator,
    subs: int = 0,
    ins: int = 0,
    dels: int = 0,
) -> np.ndarray:
    """Apply random substitutions/insertions/deletions to a sequence."""
    out = list(int(b) for b in seq)
    for _ in range(subs):
        if not out:
            break
        pos = int(rng.integers(0, len(out)))
        out[pos] = int(rng.integers(0, 4))
    for _ in range(dels):
        if not out:
            break
        pos = int(rng.integers(0, len(out)))
        del out[pos]
    for _ in range(ins):
        pos = int(rng.integers(0, len(out) + 1))
        out.insert(pos, int(rng.integers(0, 4)))
    return np.array(out, dtype=np.uint8)


def related_pair(
    rng: np.random.Generator,
    qlen: int,
    extra_target: int = 0,
    subs: int = 1,
    ins: int = 0,
    dels: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """A (query, target) pair where target is a mutated copy of query."""
    from repro.genome.sequence import random_sequence

    query = random_sequence(qlen, rng)
    target = mutate(query, rng, subs=subs, ins=ins, dels=dels)
    if extra_target:
        target = np.concatenate(
            [target, random_sequence(extra_target, rng)]
        ).astype(np.uint8)
    if len(target) == 0:
        target = random_sequence(1, rng)
    return query, target


@dataclass
class PathRecord:
    """One monotone path prefix: endpoint, score, and band excursion."""

    i: int
    j: int
    score: int
    min_diag: int
    max_diag: int
    first_departure: tuple[str, int] | None
    """('up'|'down', column) of the first step outside band ``w`` —
    filled by the caller-supplied band; None when never outside."""


def enumerate_paths(
    query: np.ndarray,
    target: np.ndarray,
    scoring: AffineGap,
    h0: int,
    band: int,
    dead_at_zero: bool = True,
) -> list[PathRecord]:
    """Enumerate every alive monotone path prefix from the origin.

    Returns a record per (path, endpoint) visit.  ``min_diag``/
    ``max_diag`` track the excursion of ``i - j``; ``first_departure``
    reports how the path first left the band of half-width ``band``.
    Exponential — callers must keep ``len(query) * len(target)`` tiny.
    """
    qlen = len(query)
    tlen = len(target)
    out: list[PathRecord] = []

    def step(i, j, score, gap_state, min_d, max_d, first_dep):
        out.append(PathRecord(i, j, score, min_d, max_d, first_dep))
        # Diagonal.
        if i < tlen and j < qlen:
            s = score + scoring.substitution(int(target[i]), int(query[j]))
            if not dead_at_zero or s > 0:
                d = (i + 1) - (j + 1)
                dep = first_dep
                step(i + 1, j + 1, s, None, min(min_d, d), max(max_d, d), dep)
        # Vertical (deletion: consumes target).
        if i < tlen:
            cost = scoring.gap_extend_del
            if gap_state != "del":
                cost += scoring.gap_open
            s = score - cost
            if not dead_at_zero or s > 0:
                d = (i + 1) - j
                dep = first_dep
                if dep is None and d > band:
                    dep = ("down", j)
                step(i + 1, j, s, "del", min(min_d, d), max(max_d, d), dep)
        # Horizontal (insertion: consumes query).
        if j < qlen:
            cost = scoring.gap_extend_ins
            if gap_state != "ins":
                cost += scoring.gap_open
            s = score - cost
            if not dead_at_zero or s > 0:
                d = i - (j + 1)
                dep = first_dep
                if dep is None and d < -band:
                    dep = ("up", j + 1)
                step(i, j + 1, s, "ins", min(min_d, d), max(max_d, d), dep)

    step(0, 0, h0, None, 0, 0, None)
    return out


def brute_cell_scores(
    query: np.ndarray,
    target: np.ndarray,
    scoring: AffineGap,
    h0: int,
) -> np.ndarray:
    """Best alive-path score per cell, by exhaustive enumeration."""
    qlen = len(query)
    tlen = len(target)
    best = np.zeros((tlen + 1, qlen + 1), dtype=np.int64)
    for rec in enumerate_paths(
        query, target, scoring, h0, band=max(qlen, tlen)
    ):
        if rec.score > best[rec.i][rec.j]:
            best[rec.i][rec.j] = rec.score
    return best


def brute_band_demand(
    query: np.ndarray,
    target: np.ndarray,
    scoring: AffineGap,
    h0: int,
) -> tuple[int, int]:
    """(lscore, gscore) over all paths regardless of band; sanity aid."""
    records = enumerate_paths(
        query, target, scoring, h0, band=max(len(query), len(target))
    )
    lscore = max((r.score for r in records), default=0)
    gscore = max(
        (r.score for r in records if r.j == len(query)), default=0
    )
    return lscore, gscore


def loop_seed_read(
    index,
    query: np.ndarray,
    stride: int = 4,
    max_occurrences: int = 32,
) -> list:
    """``KmerIndex`` seeding one anchor and one hit at a time.

    The per-read loop the window-level ``KmerIndex.seed_reads``
    replaced in ``src/``; kept here as its independent oracle.
    """
    from repro.seeding.kmer_index import _pack_kmers

    query = np.asarray(query, dtype=np.uint8)
    ref = index.reference
    k = index.k
    found: set[tuple[int, int, int]] = set()
    out = []
    if len(query) < k:
        return out
    starts = list(range(0, len(query) - k + 1, stride))
    if starts[-1] != len(query) - k:
        starts.append(len(query) - k)
    q64 = query.astype(np.int64)
    keys = _pack_kmers(q64, k)
    bad = np.concatenate(([0], np.cumsum((q64 >= 4).astype(np.int64))))
    anchors = np.asarray(starts, dtype=np.int64)
    valid = (bad[anchors + k] - bad[anchors]) == 0
    sorted_keys = index.tables()["sorted_keys"]
    positions = index.tables()["positions"]
    los = np.searchsorted(sorted_keys, keys[anchors], side="left")
    his = np.searchsorted(sorted_keys, keys[anchors], side="right")
    for qb, ok, lo, hi in zip(starts, valid, los, his):
        if not ok or hi - lo > max_occurrences:
            continue
        for rb in np.sort(positions[lo:hi]):
            seed = _extend_maximal(query, ref, qb, int(rb), k)
            key = (seed.qbegin, seed.qend, seed.rbegin)
            if key not in found:
                found.add(key)
                out.append(seed)
    out.sort(key=lambda s: (s.qbegin, s.rbegin))
    return out


def _extend_maximal(query, ref, qb: int, rb: int, k: int):
    """Grow an exact k-mer hit to its maximal exact match by scanning
    for the nearest mismatch on each side."""
    from repro.seeding.mems import Seed

    qe, re_ = qb + k, rb + k
    lmax = min(qb, rb)
    if lmax:
        neq = np.flatnonzero(query[qb - lmax : qb] != ref[rb - lmax : rb])
        back = lmax if neq.size == 0 else lmax - 1 - int(neq[-1])
        qb -= back
        rb -= back
    rmax = min(len(query) - qe, len(ref) - re_)
    if rmax:
        neq = np.flatnonzero(
            query[qe : qe + rmax] != ref[re_ : re_ + rmax]
        )
        fwd = rmax if neq.size == 0 else int(neq[0])
        qe += fwd
        re_ += fwd
    return Seed(qb, qe, rb)


def dense_global_cigar(
    query: np.ndarray,
    target: np.ndarray,
    scoring: AffineGap,
    h0: int = 0,
):
    """Corner-to-corner global CIGAR from three dense matrices.

    The per-cell fill and predecessor-re-deriving walker the direction
    codes replaced in ``src/``; kept here as their independent oracle.
    """
    from repro.align.cigar import Cigar
    from repro.align.lockstep import NEG_INF

    qlen, tlen = len(query), len(target)
    go = scoring.gap_open
    ge_i = scoring.gap_extend_ins
    ge_d = scoring.gap_extend_del
    h = np.full((tlen + 1, qlen + 1), NEG_INF, dtype=np.int64)
    e = np.full((tlen + 1, qlen + 1), NEG_INF, dtype=np.int64)
    f = np.full((tlen + 1, qlen + 1), NEG_INF, dtype=np.int64)
    h[0][0] = h0
    for j in range(1, qlen + 1):
        f[0][j] = h[0][j] = h0 - go - j * ge_i
    for i in range(1, tlen + 1):
        e[i][0] = h[i][0] = h0 - go - i * ge_d
    for i in range(1, tlen + 1):
        for j in range(1, qlen + 1):
            diag = h[i - 1][j - 1] + scoring.substitution(
                int(target[i - 1]), int(query[j - 1])
            )
            e[i][j] = max(h[i - 1][j] - go, e[i - 1][j]) - ge_d
            f[i][j] = max(h[i][j - 1] - go, f[i][j - 1]) - ge_i
            h[i][j] = max(diag, e[i][j], f[i][j])

    ops: list[tuple[int, str]] = []
    i, j = tlen, qlen
    state = "H"
    while i > 0 or j > 0:
        if state == "H":
            cur = h[i][j]
            if i > 0 and j > 0:
                sub = scoring.substitution(
                    int(target[i - 1]), int(query[j - 1])
                )
                if cur == h[i - 1][j - 1] + sub:
                    ops.append((1, "M"))
                    i -= 1
                    j -= 1
                    continue
            if i > 0 and cur == e[i][j]:
                state = "E"
                continue
            if j > 0 and cur == f[i][j]:
                state = "F"
                continue
            raise AssertionError("broken global traceback")
        if state == "E":
            ops.append((1, "D"))
            if i == 1 or e[i][j] == h[i - 1][j] - go - ge_d:
                state = "H"
            i -= 1
            continue
        ops.append((1, "I"))
        if j == 1 or f[i][j] == h[i][j - 1] - go - ge_i:
            state = "H"
        j -= 1
    ops.reverse()
    return Cigar.from_ops(ops)
