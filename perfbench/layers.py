"""The layer table and the per-layer metrics derived from one trace.

Each row of :data:`ENTRIES` names one entry point of one ``src/repro``
module and the span it records.  :data:`SPAN_METRIC` sends each span's
*self time* to exactly one ``*_s`` metric, so the time metrics plus
``cli.other_s`` (the root's own self time) sum to ``trace.wall_s``.

Exact counts (``core.*``, overlap pairs, gap-fill escalations) come
from the program's public ``--metrics-out`` snapshot, read by key
string; ``*_cells`` are computed at the call boundary as the sum of
``len(query) * len(target)`` over the jobs passed, not counted inside
the kernels.
"""

from __future__ import annotations

from perfbench.trace import Entry, Span

ROOT = "cli"


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _one(first: int):
    """(jobs, cells) of a ``(query, target, ...)`` call."""

    def count(args, kwargs):
        query = _arg(args, kwargs, first, "query")
        target = _arg(args, kwargs, first + 1, "target")
        return 1, len(query) * len(target)

    return count


def _many(first: int):
    """(jobs, cells) of a ``(queries, targets, ...)`` call."""

    def count(args, kwargs):
        queries = _arg(args, kwargs, first, "queries")
        targets = _arg(args, kwargs, first + 1, "targets")
        return len(queries), sum(
            len(q) * len(t) for q, t in zip(queries, targets)
        )

    return count


def _triples(args, kwargs):
    """(jobs, cells) of a ``(self, [(query, target, h0), ...])`` call."""
    jobs = _arg(args, kwargs, 1, "jobs")
    return len(jobs), sum(len(q) * len(t) for q, t, _ in jobs)


def _kernel_rows() -> list[Entry]:
    rows = []
    for module, cls in (
        ("repro.kernels.scalar", "ScalarKernel"),
        ("repro.kernels.wavefront", "WavefrontKernel"),
        ("repro.kernels.striped", "StripedKernel"),
    ):
        rows += [
            Entry(module, f"{cls}.extend", "kernels.extend", _one(1)),
            Entry(module, f"{cls}.extend_batch", "kernels.extend",
                  _many(1)),
            Entry(module, f"{cls}.overlap", "kernels.overlap", _one(1)),
            Entry(module, f"{cls}.overlap_batch", "kernels.overlap",
                  _many(1)),
        ]
    return rows


ENTRIES: list[Entry] = [
    # genome: parse and emit
    Entry("repro.genome.io_fasta", "read_fasta", "genome.parse"),
    Entry("repro.genome.io_fasta", "read_fastq", "genome.parse"),
    Entry("repro.genome.sam", "write_sam", "genome.emit"),
    Entry("repro.apps.overlap", "write_overlaps", "genome.emit"),
    # index: build in process, or load the artifact
    Entry("repro.seeding.kmer_index", "KmerIndex.__init__", "index.build"),
    Entry("repro.seeding.fmindex", "FMIndex.__init__", "index.build"),
    Entry("repro.index.store", "load_index", "index.load"),
    Entry("repro.index.store", "LoadedIndex.kmer_index", "index.load"),
    Entry("repro.index.store", "LoadedIndex.fm_index", "index.load"),
    # seeding
    Entry("repro.seeding.kmer_index", "KmerIndex.seed_read",
          "seeding.seed", measure=len),
    Entry("repro.seeding.mems", "seed_read", "seeding.seed", measure=len),
    Entry("repro.seeding.chaining", "chain_seeds", "seeding.chain"),
    Entry("repro.seeding.chaining", "filter_chains", "seeding.filter",
          measure=len),
    # kernels
    *_kernel_rows(),
    # core: self time is the checks and the rerun control
    Entry("repro.core.extender", "SeedExtender.extend", "core.check"),
    Entry("repro.core.extender", "SeedExtender.extend_batch", "core.check"),
    Entry("repro.core.extender", "SeedExtender.extend_many", "core.check"),
    Entry("repro.core.globalcheck", "GlobalSeedEx.align", "core.check"),
    # align: traceback fill, traceback walk, global gap fills
    Entry("repro.align.fullmatrix", "fill_extension", "align.tbfill",
          _one(0)),
    Entry("repro.align.fullmatrix", "fill_extension_batch", "align.tbfill",
          _many(0)),
    Entry("repro.align.fullmatrix", "traceback_path", "align.tbwalk"),
    Entry("repro.align.fullmatrix", "traceback_extension", "align.tbwalk"),
    Entry("repro.align.fullmatrix", "traceback_global", "align.tbwalk"),
    Entry("repro.align.globalbatch", "fill_gaps_guaranteed", "align.gapfill",
          _many(0)),
    # apps: self time is the read index and the diagonal vote
    Entry("repro.apps.overlap", "find_overlaps", "apps.overlap"),
    # aligner: self time is scheduling, cache, selection, records
    Entry("repro.aligner.waves", "align_window", "aligner.window"),
    Entry("repro.aligner.pipeline", "Aligner.align_read", "aligner.read"),
    Entry("repro.aligner.engines", "BatchedEngine.extend_wave",
          "aligner.wave", _triples),
    Entry("repro.aligner.longread", "LongReadAligner.align_batch",
          "aligner.longwindow"),
    Entry("repro.aligner.longread", "LongReadAligner.align",
          "aligner.longread"),
]

SPAN_METRIC = {
    ROOT: "cli.other_s",
    "genome.parse": "genome.parse_s",
    "genome.emit": "genome.emit_s",
    "index.build": "index.build_s",
    "index.load": "index.load_s",
    "seeding.seed": "seeding.seed_s",
    "seeding.chain": "seeding.chain_s",
    "seeding.filter": "seeding.chain_s",
    "kernels.extend": "kernels.extend_s",
    "kernels.overlap": "kernels.overlap_s",
    "core.check": "core.check_s",
    "align.tbfill": "align.tbfill_s",
    "align.tbwalk": "align.tbwalk_s",
    "align.gapfill": "align.gapfill_s",
    "apps.overlap": "apps.overlap_candidates_s",
    "aligner.window": "aligner.glue_s",
    "aligner.read": "aligner.glue_s",
    "aligner.wave": "aligner.glue_s",
    "aligner.longwindow": "aligner.glue_s",
    "aligner.longread": "aligner.glue_s",
}
"""Span name -> the time metric its self time is added to."""

TIME_METRICS = tuple(dict.fromkeys(SPAN_METRIC.values()))
"""The rows of the stage table; they sum to ``trace.wall_s``."""

PER_LAYER: tuple[tuple[str, str, str], ...] = (
    # (name, unit, better)
    ("genome.parse_s", "s", "lower"),
    ("genome.emit_s", "s", "lower"),
    ("index.build_s", "s", "lower"),
    ("index.load_s", "s", "lower"),
    ("seeding.seed_s", "s", "lower"),
    ("seeding.seed_calls", "count", "lower"),
    ("seeding.seeds_per_read", "count", "lower"),
    ("seeding.chain_s", "s", "lower"),
    ("seeding.chains_per_read", "count", "lower"),
    ("kernels.extend_s", "s", "lower"),
    ("kernels.extend_calls", "count", "lower"),
    ("kernels.extend_jobs", "count", "lower"),
    ("kernels.jobs_per_call", "count", "higher"),
    ("kernels.extend_cells", "count", "lower"),
    ("kernels.overlap_s", "s", "lower"),
    ("kernels.overlap_jobs", "count", "lower"),
    ("core.check_s", "s", "lower"),
    ("core.extensions", "count", "lower"),
    ("core.pass_frac", "fraction", "higher"),
    ("core.rerun_frac", "fraction", "lower"),
    ("core.cells_narrow", "count", "lower"),
    ("core.cells_rerun", "count", "lower"),
    ("align.tbfill_s", "s", "lower"),
    ("align.tbfill_jobs", "count", "lower"),
    ("align.tbfill_cells", "count", "lower"),
    ("align.tbwalk_s", "s", "lower"),
    ("align.tbwalk_calls", "count", "lower"),
    ("align.gapfill_s", "s", "lower"),
    ("align.gapfill_jobs", "count", "lower"),
    ("align.gapfill_rerun_frac", "fraction", "lower"),
    ("apps.overlap_candidates_s", "s", "lower"),
    ("apps.overlap_pairs", "count", "lower"),
    ("apps.overlap_rerun_frac", "fraction", "lower"),
    ("aligner.glue_s", "s", "lower"),
    ("aligner.waves", "count", "lower"),
    ("aligner.shard_speedup_w2", "x", "higher"),
    ("serve.compute_s", "s", "lower"),
    ("serve.waves", "count", "lower"),
    ("serve.reads_per_wave", "count", "higher"),
    ("serve.wait_p50_ms", "ms", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.late", "count", "lower"),
    ("cli.other_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.unresolved", "count", "lower"),
)
"""Every per-layer metric, as BENCHMARK.json lists them."""

COUNT_METRICS = tuple(
    name for name, unit, _ in PER_LAYER if unit == "count"
)
"""Metrics that must repeat exactly between two batch runs."""


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _counter(snapshot: dict, name: str) -> float:
    """Sum of a counter over its label sets (``name`` or ``name{...}``)."""
    return sum(
        value
        for key, value in snapshot.get("counters", {}).items()
        if key == name or key.startswith(name + "{")
    )


def layer_metrics(
    spans: list[Span],
    snapshot: dict,
    records: int,
    since: float = float("-inf"),
    wall: float | None = None,
) -> dict[str, float]:
    """The per-layer metrics one traced run supports.

    ``spans`` carry self times (:func:`trace.self_times`); ``snapshot``
    is the run's ``--metrics-out`` JSON and ``records`` its input
    records (reads, fragments, requests).  ``trace.wall_s`` is the sum
    of the root spans' durations, which the ``*_s`` rows add up to.
    A served run has no single root: it passes the window's ``wall``
    and the instant the window began (``since``, spans before it are
    warm-up), and the time outside every span goes to ``cli.other_s``.
    Metrics that need something outside the trace (shard speed-up,
    overhead, the serve client's view) are filled in by the caller.
    """
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    by_name: dict[str, list[Span]] = {}
    in_spans = 0.0
    for span in spans:
        if span.start < since:
            continue
        values[SPAN_METRIC[span.name]] += span.self_time
        by_name.setdefault(span.name, []).append(span)
        if span.parent < 0:
            in_spans += span.duration
    if wall is None:
        wall = in_spans
    values["cli.other_s"] += wall - in_spans
    values["trace.wall_s"] = wall

    def total(name: str, field: str) -> float:
        return sum(getattr(s, field) for s in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    values["seeding.seed_calls"] = calls("seeding.seed")
    values["seeding.seeds_per_read"] = total("seeding.seed", "out") / records
    values["seeding.chains_per_read"] = (
        total("seeding.filter", "out") / records
    )
    # A striped call that falls back to the wavefront kernel nests a
    # second kernel span; only the outermost one is a dispatched call.
    dispatched = [
        s for s in by_name.get("kernels.extend", ())
        if not _inside_kernel(s, spans)
    ]
    values["kernels.extend_calls"] = len(dispatched)
    values["kernels.extend_jobs"] = sum(s.jobs for s in dispatched)
    values["kernels.extend_cells"] = sum(s.cells for s in dispatched)
    values["kernels.jobs_per_call"] = _ratio(
        values["kernels.extend_jobs"], len(dispatched)
    )
    values["kernels.overlap_jobs"] = sum(
        s.jobs for s in by_name.get("kernels.overlap", ())
        if not _inside_kernel(s, spans)
    )
    extensions = _counter(snapshot, "seedex.extensions.total")
    passed = sum(
        value
        for key, value in snapshot.get("counters", {}).items()
        if key.startswith("seedex.check.outcome{outcome=pass")
    )
    values["core.extensions"] = extensions
    values["core.pass_frac"] = _ratio(passed, extensions)
    values["core.rerun_frac"] = _ratio(extensions - passed, extensions)
    values["core.cells_narrow"] = _counter(snapshot, "seedex.cells.narrow")
    values["core.cells_rerun"] = _counter(snapshot, "seedex.cells.rerun")
    values["align.tbfill_jobs"] = total("align.tbfill", "jobs")
    values["align.tbfill_cells"] = total("align.tbfill", "cells")
    values["align.tbwalk_calls"] = calls("align.tbwalk")
    values["align.gapfill_jobs"] = total("align.gapfill", "jobs")
    values["align.gapfill_rerun_frac"] = _ratio(
        _counter(snapshot, "pipeline.longread.fill.escalations"),
        _counter(snapshot, "pipeline.longread.fill.jobs"),
    )
    pairs = _counter(snapshot, "overlap.accepted.total")
    values["apps.overlap_pairs"] = pairs
    values["apps.overlap_rerun_frac"] = _ratio(
        _counter(snapshot, "overlap.reruns.total"), pairs
    )
    values["aligner.waves"] = calls("aligner.wave")
    return values


def _inside_kernel(span: Span, spans: list[Span]) -> bool:
    """Whether an ancestor of ``span`` is a kernel span too."""
    parent = span.parent
    while parent >= 0:
        if spans[parent].name.startswith("kernels."):
            return True
        parent = spans[parent].parent
    return False
