"""Byte identity: every path through the product emits the reference bytes.

The paper's claim is that a narrow band plus the checks gives the full
band's output bit for bit (Figure 13's flat-zero SeedEx curve); the
product adds five "changes nothing but speed" promises on top: kernel
backend, wave window, workers and start method, index, and serve.

Each corpus is built once per session and has one reference per
seeding backend, computed once (:func:`_reference`): for short reads
the per-read loop of :mod:`tests.reference_drivers` at full band; for
long reads the per-read ``LongReadAligner.align``; for read pairs the
per-pair loop of :mod:`tests.reference_drivers` under ``seedex``
w=15; for the fixture corpora the golden files under
``tests/fixtures/``.  The product's one read driver is the wave
scheduler, and every kernel name runs the lockstep sweep, so the
references extend through :class:`~tests.helpers.ReferenceKernel`
instead — the per-job ``banded.extend`` — and never through the code
they judge.

Each row of :data:`LEGS` is one path through the product and asserts
``bytes == reference`` — or ``!=`` for the unchecked narrow bands, which
show that the checks are what keep the bytes equal.  To add a leg,
append a :class:`Leg` row.  Every kernel name runs one sweep, so only
the ``golden-*`` CLI legs run every name of :data:`KERNELS`, each
checking that ``@PG DS:kernel=`` records it.
"""

from __future__ import annotations

import functools
import io
import multiprocessing as mp
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.align import lockstep
from repro.aligner import waves
from repro.aligner.engines import (
    BatchedEngine,
    EngineSpec,
    make_engine,
    make_resilient,
)
from repro.aligner.longread import (
    LongReadAligner,
    LongReadRecipe,
    sam_record,
)
from repro.aligner.paired import PairedAligner, ReadPair, simulate_pairs
from repro.core.extender import SeedExtender
from repro.genome.sam import write_sam
from repro.genome.sequence import encode
from repro.genome.synth import (
    PLATINUM_LIKE,
    LongReadProfile,
    ReadProfile,
    ReadSimulator,
    simulate_long_reads,
    synthesize_reference,
)
from repro.index.build import build_index
from repro.index.store import load_index
from tests import reference_drivers
from tests.helpers import ReferenceKernel, cli_output, sam_bytes, serve_report

KERNELS = ("scalar", "numpy", "striped")
SEEDINGS = ("kmer", "smem")
START_METHODS = tuple(
    m for m in ("fork", "spawn") if m in mp.get_all_start_methods()
)
INDEX_MODES = ("none", "built", "mmap", "memory", "handle")
TRANSPORTS = ("wave", "supervised", "cli", "serve")

# -- corpora ---------------------------------------------------------------


def _simulated(seed, ref_len, reads, sim_seed, profile=PLATINUM_LIKE, **kw):
    rng = np.random.default_rng(seed)
    reference = synthesize_reference(ref_len, rng, **kw)
    sim = ReadSimulator(reference, profile, seed=sim_seed)
    return reference, [(r.name, r.codes) for r in sim.simulate(reads)]


def _platinum(seed, reads=24, ref_len=20_000):
    return _simulated(seed, ref_len, reads, seed + 1, repeat_fraction=0.05)


def _ragged():
    """Degenerate reads interleaved with mapped ones in every window."""
    rng = np.random.default_rng(99)
    reference = synthesize_reference(4_000, rng)
    normal = ReadSimulator(reference, PLATINUM_LIKE, seed=100).simulate(8)
    specials = [
        ("empty", np.zeros(0, dtype=np.uint8)),
        ("short", encode("ACGT")),  # below the seed length: no seeds
        ("all_n", encode("N" * 80)),
        ("junk", rng.integers(0, 4, size=120).astype(np.uint8)),
        ("megaread", np.concatenate(  # longer than the whole reference
            [reference, rng.integers(0, 4, size=500)]).astype(np.uint8)),
    ]
    reads = []
    for k, read in enumerate(normal):
        reads += [(read.name, read.codes), *specials[k:k + 1]]
    return reference, reads


def _long():
    rng = np.random.default_rng(20260809)
    reference = synthesize_reference(40_000, rng, repeat_fraction=0.02)
    profile = LongReadProfile(read_length=1200, length_sd=250)
    sims = simulate_long_reads(reference, 24, rng, profile)
    return reference, [(r.name, r.codes) for r in sims]


def _pairs():
    """60 pairs; four second mates carry a substitution every 16 bases,
    so no clean 19-mer seeds them but 12-mers anchor the rescue."""
    reference, _ = corpus("e2e500")
    pairs = [p for p, _, _ in simulate_pairs(
        reference, 60, np.random.default_rng(97))]
    for i in (3, 7, 19, 33):
        second = pairs[i].second.copy()
        second[::16] = (second[::16] + 1) % 4
        pairs[i] = ReadPair(pairs[i].name, pairs[i].first, second)
    return reference, pairs


SV15 = ReadProfile(large_indel_rate=1.0, large_indel_min=15)
SV20 = ReadProfile(large_indel_rate=1.0, large_indel_min=20)
FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = {  # name -> (argv before the leg's flags, expected output)
    "golden-short": (["align", "--reference", FIXTURES / "golden_ref.fa",
                      "--reads", FIXTURES / "golden_reads.fq"],
                     FIXTURES / "golden.sam"),
    "golden-long": (["longread", "--reference", FIXTURES / "longread_ref.fa",
                     "--reads", FIXTURES / "longread_reads.fq"],
                    FIXTURES / "golden_longread.sam"),
    "golden-overlap": (["overlap", "--reads", FIXTURES / "overlap_reads.fq"],
                       FIXTURES / "golden_overlap.tsv"),
}

CORPORA = {  # name -> builder of (reference, reads)
    "platinum11": lambda: _platinum(11),
    "platinum23": lambda: _platinum(23),
    "platinum47": lambda: _platinum(47),
    "platinum23-small": lambda: _platinum(23, reads=10, ref_len=6_000),
    "platinum11-1k": lambda: _platinum(11, reads=1_000, ref_len=50_000),
    "ragged": _ragged,
    "sv": lambda: _simulated(  # every read carries one 15-40 bp indel
        7, 20_000, 24, 8, SV15, repeat_fraction=0.05),
    "corpus500": lambda: _simulated(
        20260806, 20_000, 500, 503, repeat_fraction=0.02),
    "e2e500": lambda: _simulated(
        20260808, 20_000, 500, 811, repeat_fraction=0.02),
    "index16": lambda: _simulated(41, 15_000, 16, 42, repeat_fraction=0.05),
    "serve24": lambda: _simulated(7, 12_000, 24, 8),
    "pipeline40": lambda: _simulated(1234, 30_000, 40, 7, repeat_fraction=0),
    "pipeline-sv25": lambda: _simulated(
        1234, 30_000, 25, 11, SV20, repeat_fraction=0),
    "long24": _long,
    "pairs60": _pairs,
}
SLOW = {"platinum11-1k"}
MIN_MAPPED = {"corpus500": 401, "e2e500": 401, "long24": 20}  # no vacuous leg


@functools.cache
def corpus(name):
    return CORPORA[name]()


def _body(text):
    return [line for line in text.splitlines() if not line.startswith("@")]


def _reference_extender(extender):
    """``extender``'s twin on the per-job reference kernel."""
    return SeedExtender(band=extender.band, scoring=extender.scoring,
                        kernel=ReferenceKernel())


def _sam(reference, records):
    buf = io.StringIO()
    write_sam(buf, records, "chr1", len(reference))
    return buf.getvalue().encode()


def _long_reference(reference, reads):
    """The per-read long-read aligner, ends on the reference kernel."""
    aligner = LongReadAligner(reference)
    aligner.end_extender = _reference_extender(aligner.end_extender)
    return _sam(reference, [
        sam_record(name, codes, aligner.align(codes, name),
                   reference_name="chr1", match=aligner.scoring.match)
        for name, codes in reads
    ]), None


def _pairs_reference(reference, pairs, seeding):
    """Per-pair alignment under ``seedex`` w=15, its mates and their
    rescue on the reference kernel."""
    engine = make_engine("seedex", 15, kernel=ReferenceKernel())
    aligner = PairedAligner(reference, engine, seeding=seeding)
    aligner.rescuer = _reference_extender(aligner.rescuer)
    aligner.aligner.reference_name = "chr1"
    mates = reference_drivers.align_pairs(aligner, pairs)
    return _sam(reference, [rec for pair in mates for rec in pair]), aligner


@functools.cache
def _reference(name, seeding):
    """``(bytes, aligner, sweeps)`` of the one reference run of a
    corpus; ``sweeps`` counts its ``lockstep.extend_batch`` calls."""
    if name in GOLDEN:
        return GOLDEN[name][1].read_bytes(), None, 0
    reference, reads = corpus(name)
    sweeps = []
    extend_batch = lockstep.extend_batch

    def counting(*args, **kwargs):
        sweeps.append(1)
        return extend_batch(*args, **kwargs)

    lockstep.extend_batch = counting
    try:
        if name == "long24":
            out, aligner = _long_reference(reference, reads)
        elif name == "pairs60":
            out, aligner = _pairs_reference(reference, reads, seeding)
        else:
            engine = make_engine("full", kernel=ReferenceKernel())
            out, aligner = sam_bytes(
                reference, reads, engine, seeding=seeding
            ), None
    finally:
        lockstep.extend_batch = extend_batch
    mapped = [r for r in _body(out.decode()) if not int(r.split("\t")[1]) & 4]
    assert len(mapped) >= MIN_MAPPED.get(name, 1)
    return out, aligner, len(sweeps)


# -- legs ------------------------------------------------------------------


@dataclass(frozen=True)
class Leg:
    """One path through the product over one corpus.

    ``policy`` names an ``ENGINE_POLICIES`` entry (``longread
    --engine`` for long reads; ``None`` = the command's default);
    ``window`` is the wave size, which every leg but a ``cli`` one
    names (``sam_bytes`` without one runs the reference);
    ``transport`` is ``cli`` or ``serve``, else follows from
    ``workers``.
    ``differs`` legs must *not* match the reference; ``chaos`` injects
    1% faults; ``reruns`` demands full-band reruns; ``columns`` compares
    only the first N TSV columns.  ``index`` picks how the ``artifact``
    is opened: ``built`` is what ``build_index`` re-opened, ``mmap`` and
    ``memory`` are fresh ``load_index`` calls, ``handle`` ships to workers.
    """

    corpus: str
    policy: str | None = "full"
    band: int | None = None
    kernel: str | None = None
    seeding: str = "kmer"
    window: int | None = None
    workers: int = 1
    start: str | None = None
    index: str = "none"
    transport: str = ""
    differs: bool = False
    chaos: bool = False
    reruns: bool = False
    columns: int | None = None

    def __post_init__(self):
        if self.window is None and self.transport != "cli":
            raise ValueError(f"leg {self.id} names no window")

    @property
    def path(self):
        if self.transport:
            return self.transport
        return "supervised" if self.workers > 1 else "wave"

    @property
    def id(self):
        parts = [self.corpus, self.policy, self.band and f"w{self.band}",
                 self.kernel, self.seeding if self.seeding != "kmer" else None,
                 f"{self.path}{self.window or ''}",
                 f"x{self.workers}" if self.workers > 1 else None,
                 self.start, self.index if self.index != "none" else None,
                 "chaos" if self.chaos else None,
                 f"cols{self.columns}" if self.columns else None]
        return "-".join(p for p in parts if p)


POLICIES = (("full", None), ("seedex", 41), ("seedex", 5))
LEGS = [
    # Sound policies at every window; the unchecked band 5 diverges.
    *[Leg(c, p, b, window=w) for c in ("platinum11", "ragged", "sv")
      for p, b in POLICIES for w in (1, 7, 4096)],
    *[Leg("sv", "banded", 5, window=w, differs=True) for w in (1, 7, 4096)],
    *[Leg(f"platinum{s}", "batched", window=7) for s in (11, 23, 47)],
    Leg("platinum11", "batched", window=16),
    *[Leg("ragged", "batched", window=w) for w in (1, 5, 64)],
    *[Leg(f"platinum{s}", p, window=16, workers=4)
      for s in (11, 23, 47) for p in ("full", "batched")],
    Leg("ragged", "batched", window=5, workers=4),
    Leg("platinum23-small", seeding="smem", window=4),
    Leg("platinum11-1k", window=4096),
    Leg("platinum11-1k", "batched", window=4096, workers=4),
    # The checked band one read at a time (a window of one).
    Leg("corpus500", "seedex", 15, kernel="scalar", window=1),
    *[Leg("pipeline40", "seedex", w, seeding="smem", window=1)
      for w in (5, 11, 41)],
    Leg("pipeline-sv25", "banded", 3, seeding="smem", window=1,
        differs=True),
    Leg("pipeline-sv25", "seedex", 8, seeding="smem", window=1,
        reruns=True),
    Leg("e2e500", "seedex", 15, kernel="striped", window=1, chaos=True),
    *[Leg("e2e500", "batched", kernel=k, window=128, workers=2)
      for k in ("scalar", "striped")],
    # Long reads and read pairs.
    *[Leg("long24", "batched", kernel=k, window=8, workers=n)
      for k in ("scalar", "striped") for n in (1, 2)],
    *[Leg("pairs60", p, 15, kernel=k, window=16)
      for k in ("scalar", "striped") for p in ("seedex", "full")],
    # Index artifact: a window of one, wider waves and supervised,
    # every load mode.
    *[Leg("index16", seeding=s, window=w, index="built")
      for s in SEEDINGS for w in (1, 5)],
    *[Leg("index16", window=1, index=m) for m in ("mmap", "memory")],
    *[Leg("index16", "batched", seeding=s, window=5, workers=2, start=m,
          index="handle") for s in SEEDINGS for m in START_METHODS],
    Leg("serve24", kernel="striped", window=8, transport="serve"),
    # cli.main against the checked-in golden files, under every name.
    *[Leg("golden-short", "seedex", 15, kernel=k, transport="cli")
      for k in KERNELS],
    *[Leg("golden-short", "batched", kernel=k, workers=2, transport="cli")
      for k in KERNELS],
    *[Leg("golden-long", "batched", kernel=k, transport="cli")
      for k in KERNELS],
    Leg("golden-long", "scalar", transport="cli"),
    Leg("golden-long", "batched", kernel="striped", workers=2,
        transport="cli"),
    *[Leg("golden-overlap", None, kernel=k, transport="cli")
      for k in KERNELS],
    # A narrower verification band reruns more jobs but reports the same
    # overlaps: only the band and verdict columns (11, 12) may move.
    Leg("golden-overlap", None, 8, kernel="striped", transport="cli",
        columns=10),
]


def _spec(leg):
    return EngineSpec(kind=leg.policy, band=leg.band, kernel=leg.kernel)


def _cli(leg):
    argv, _ = GOLDEN[leg.corpus]
    flags = {"--engine": leg.policy, "--band": leg.band,
             "--kernel": leg.kernel, "--start-method": leg.start,
             "--workers": leg.workers if leg.workers > 1 else None}
    text = cli_output([str(a) for a in argv] + [
        str(a) for flag, value in flags.items() if value is not None
        for a in (flag, value)])
    if leg.kernel and leg.corpus != "golden-overlap":
        [pg] = [line for line in text.splitlines() if line.startswith("@PG")]
        assert f"DS:kernel={leg.kernel}" in pg
    out = "".join(line for line in text.splitlines(keepends=True)
                  if not line.startswith("@PG"))
    return out.encode()


def _serve(leg):
    """Request ``i`` must be answered with read ``i``'s reference line."""
    reference, reads = corpus(leg.corpus)
    report = serve_report(reference, reads, _spec(leg).build(),
                          max_batch=leg.window, client="leg")
    assert report.unanswered == [] and report.shed_total == 0
    want = _body(_reference(leg.corpus, leg.seeding)[0].decode())
    return [report.ok[f"leg-{i}"] for i in range(len(reads))], want


def _in_process(leg, request):
    reference, reads = corpus(leg.corpus)
    opts = {}
    if leg.index != "none":
        path, loaded = request.getfixturevalue("artifact")
        opts["index"] = {
            "built": lambda: loaded,
            "mmap": lambda: load_index(path, mmap=True),
            "memory": lambda: load_index(path, mmap=False),
            "handle": loaded.handle,
        }[leg.index]()
    if leg.corpus == "long24":
        engine = LongReadRecipe(mode="batched", spec=_spec(leg),
                                batch_size=leg.window)
    elif leg.workers > 1:
        engine = _spec(leg)
    else:
        engine = _spec(leg).build()
        if leg.chaos:
            engine = make_resilient(engine, fault_rate=0.01, fault_seed=4,
                                    sleep=lambda s: None)
    seen = []
    out = sam_bytes(reference, reads, engine, workers=leg.workers,
                    batch_size=leg.window, seeding=leg.seeding,
                    start_method=leg.start, paired=leg.corpus == "pairs60",
                    observe=seen.append, **opts)
    if leg.chaos:
        assert engine.stats.injected_total > 0 and engine.stats.accounted()
    if leg.reruns:
        assert engine.stats.reruns > 0
    if leg.corpus == "pairs60":  # rescue happened, and was counted alike
        want = _reference(leg.corpus, leg.seeding)[1].stats
        assert want.rescued >= 1 and seen[0].stats == want
    return out


@pytest.fixture(scope="session")
def artifact(tmp_path_factory):
    """One index artifact over the ``index16`` reference."""
    path = tmp_path_factory.mktemp("index") / "ref.rpidx"
    return path, build_index(corpus("index16")[0], path)


@pytest.mark.parametrize("leg", [
    pytest.param(leg, id=leg.id, marks=[pytest.mark.chaos] * leg.chaos
                 + [pytest.mark.slow] * (leg.corpus in SLOW))
    for leg in LEGS
])
def test_leg_matches_reference(leg, request):
    if leg.path == "serve":
        got, want = _serve(leg)
    else:
        got = _cli(leg) if leg.path == "cli" else _in_process(leg, request)
        want = _reference(leg.corpus, leg.seeding)[0]
    if leg.columns:
        got, want = ([line.split("\t")[:leg.columns]
                      for line in side.decode().splitlines()]
                     for side in (got, want))
    assert (got != want) if leg.differs else (got == want)


@pytest.mark.parametrize("name,seeding", [
    pytest.param(name, seeding, id=f"{name}-{seeding}",
                 marks=[pytest.mark.slow] * (name in SLOW))
    for name, seeding in sorted({
        (leg.corpus, leg.seeding) for leg in LEGS if leg.corpus in CORPORA
    })
])
def test_reference_runs_no_lockstep_extension(name, seeding):
    """Every reference extends through the per-job oracle: a reference
    run never reaches the lockstep sweep the legs it judges run."""
    assert _reference(name, seeding)[2] == 0


@pytest.mark.parametrize("chunk_cells", [1, 5_000])
def test_traceback_chunking_is_invisible(monkeypatch, chunk_cells):
    """Any bucket bound gives the records of an unbounded wave.

    A bound of one cell puts every traceback job alone in a bucket it
    exceeds; 5,000 cells mixes many-job buckets with jobs larger than
    the bound.  Either way winners with a left and a right job see
    them filled in different buckets, in shape order, not winner order.
    """
    reference, reads = corpus("sv")
    plans, sides_seen = [], []
    plan, sides = waves.plan_buckets, waves.trace_sides

    def recording_plan(queries, targets, *args):
        buckets = plan(queries, targets, *args)
        shapes = [(len(t) + 1, len(q) + 1) for q, t in zip(queries, targets)]
        plans.append((shapes, buckets))
        return buckets

    def recording_sides(scoring, pairs):
        sides_seen.append(pairs)
        return sides(scoring, pairs)

    # Extension waves plan their own buckets too: record only the
    # traceback wave's, where traceback_wave calls the planner.
    monkeypatch.setattr(waves, "plan_buckets", recording_plan)
    monkeypatch.setattr(waves, "trace_sides", recording_sides)

    def run(bound):
        plans.clear()
        sides_seen.clear()
        monkeypatch.setattr(lockstep, "TRACEBACK_CHUNK_CELLS", bound)
        out = sam_bytes(reference, reads, BatchedEngine(), batch_size=4096)
        assert out == _reference("sv", "kmer")[0]
        [(shapes, buckets)] = plans  # one traceback wave per window
        [pairs] = sides_seen
        return shapes, buckets, pairs

    shapes, unbounded, _ = run(10**9)
    bounded_shapes, buckets, pairs = run(chunk_cells)
    assert bounded_shapes == shapes
    assert len(buckets) > len(unbounded)
    assert sorted(k for b in buckets for k in b) == list(range(len(shapes)))
    for bucket in buckets:
        rows, cols = zip(*(shapes[k] for k in bucket))
        assert len(bucket) == 1 or len(bucket) * max(rows) * max(cols) <= (
            chunk_cells
        )
    assert any(
        shapes[b[0]][0] * shapes[b[0]][1] > chunk_cells for b in buckets
    )
    sizes = {len(bucket) for bucket in buckets}
    assert (sizes == {1}) if chunk_cells == 1 else (max(sizes) > 1)

    # A winner's two sides are neighbours in the flat job list.
    bucket_of = {k: b for b, bucket in enumerate(buckets) for k in bucket}
    flat = split = 0
    for left, right in pairs:
        if left is not None and right is not None:
            split += bucket_of[flat] != bucket_of[flat + 1]
        flat += (left is not None) + (right is not None)
    assert split


def test_golden_overlap_content_sane():
    """The fixture itself: adjacent tiling fragments all overlap by
    ~80 bp, and at least one job exercised the full-band rerun."""
    rows = [line.split("\t") for line in _body(
        GOLDEN["golden-overlap"][1].read_text())]
    assert len(rows) >= 50
    adjacent = {
        (r[0], r[5]) for r in rows if int(r[5][4:]) == int(r[0][4:]) + 1
    }
    assert len(adjacent) >= 50
    assert any(r[11] == "rerun" for r in rows)
    assert all(r[4] == "+" for r in rows)
