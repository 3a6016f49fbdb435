"""Command-line interface: simulate workloads and align reads.

Usage::

    python -m repro.cli simulate --length 50000 --reads 200 \
        --out-reference ref.fasta --out-reads reads.fastq

    python -m repro.cli align --reference ref.fasta --reads reads.fastq \
        --out out.sam --engine seedex --band 41 \
        --metrics-out metrics.json --trace-out trace.json

    python -m repro.cli align --reference ref.fasta --reads reads.fastq \
        --out out.sam --engine full --batch-size 4096 --workers 4

    python -m repro.cli analyze --reference ref.fasta --reads reads.fastq

    python -m repro.cli stats metrics.json

The ``align`` command is the end-to-end pipeline.  Every run — one
process or sharded, single-end or ``--paired``, ``serve`` and
``analyze`` too — drives one wave scheduler; ``--engine`` only names a
``(band, checks)`` policy on it.  The default, ``seedex``, is the
narrow band plus the SeedEx checks and a full-band rerun wave: its
output is bit-identical to ``--engine full`` at any ``--band``.
``analyze`` reports the check passing rates the chosen band would
achieve on the given workload.  Every subcommand
accepts ``--metrics-out FILE`` (registry snapshot as JSON) and
``--trace-out FILE`` (Chrome-trace JSON, loadable in Perfetto);
``stats`` pretty-prints a saved metrics snapshot.
Every failure is one ``error:`` line and an exit code (README.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

# Only what building the parser needs is imported here: each cmd_*
# imports the subsystem it runs, so a command loads what it uses.
from repro import obs
from repro.aligner.engines import ENGINE_POLICIES, EngineSpec
from repro.constants import MIN_SEED_LENGTH, ReproError
from repro.kernels import available_kernels, get_kernel


def _int_at_least(low: int, at_most: int | None = None):
    """An argparse ``type`` for ints of at least ``low`` (and at most
    ``at_most``): an out-of-range flag fails with argparse's usage
    error (exit 2), not a traceback."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}"
            )
        if at_most is not None and value > at_most:
            raise argparse.ArgumentTypeError(
                f"must be at most {at_most}, got {value}"
            )
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _fraction(text: str) -> float:
    """An argparse ``type`` for a float in ``[0, 1]`` (``nan`` is not)."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be a fraction in [0, 1], got {text}"
        )
    return value


_fraction.__name__ = "float"  # argparse names the type in its messages


def _float_above(low: float, inclusive: bool = False):
    """An argparse ``type`` for finite floats above ``low`` (or at
    least ``low`` when ``inclusive``); ``nan`` and ``inf`` are not."""
    word = "at least" if inclusive else "greater than"

    def parse(text: str) -> float:
        value = float(text)
        if not (
            math.isfinite(value)
            and (value >= low if inclusive else value > low)
        ):
            raise argparse.ArgumentTypeError(
                f"must be a finite number {word} {low:g}, got {text}"
            )
        return value

    parse.__name__ = "float"  # argparse names the type in its messages
    return parse


def _truth_opts(tolerance: int) -> argparse.ArgumentParser:
    """The scoring flags of ``align`` and ``longread``.

    A new parent per command, unlike the shared groups: argparse hands
    a parent's action objects to every child, so one command's
    ``set_defaults(truth_tolerance=...)`` would move the other's.
    """
    opts = argparse.ArgumentParser(add_help=False)
    opts.add_argument(
        "--truth",
        metavar="FILE",
        help="score the finished SAM against this .truth.tsv sidecar "
        "(scoring is read-only: the SAM is byte-identical either way)",
    )
    opts.add_argument(
        "--scorecard-out",
        metavar="FILE",
        help="write the scorecard as JSON; implies --truth, defaulting "
        "to the <reads>.truth.tsv sidecar when --truth is omitted",
    )
    opts.add_argument(
        "--truth-tolerance",
        type=_int_at_least(0),
        default=tolerance,
        metavar="BASES",
        help="correct-locus window around the true position, widened "
        "per read by its true indel span (default %(default)s)",
    )
    return opts


def build_parser() -> argparse.ArgumentParser:
    """Build the repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    obs_opts = argparse.ArgumentParser(add_help=False)
    obs_opts.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write a metrics registry snapshot (JSON) on exit",
    )
    obs_opts.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write a Chrome-trace/Perfetto span timeline (JSON)",
    )

    chaos_opts = argparse.ArgumentParser(add_help=False)
    chaos_opts.add_argument(
        "--chaos",
        action="store_true",
        help="run the engine behind the fault-injecting resilient "
        "dispatcher (see docs/resilience.md)",
    )
    chaos_opts.add_argument(
        "--fault-rate",
        type=_fraction,
        default=0.01,
        metavar="P",
        help="per-site, per-attempt fault probability (default 0.01)",
    )
    chaos_opts.add_argument(
        "--fault-seed",
        type=_int_at_least(0),
        default=0,
        metavar="N",
        help="RNG seed of the fault injector (default 0)",
    )
    chaos_opts.add_argument(
        "--max-retries",
        type=_int_at_least(0),
        default=3,
        metavar="N",
        help="accelerator retries before the host rerun (default 3)",
    )
    chaos_opts.add_argument(
        "--timeout",
        type=_float_above(0),
        default=0.25,
        metavar="SECONDS",
        help="per-attempt stall/timeout budget (default 0.25)",
    )
    chaos_opts.add_argument(
        "--breaker-threshold",
        type=_int_at_least(1),
        default=None,
        metavar="N",
        help="arm the accelerator circuit breaker: N consecutive host "
        "fallbacks trip it open (default: off; see docs/durability.md)",
    )
    chaos_opts.add_argument(
        "--breaker-probe-interval",
        type=_int_at_least(1),
        default=32,
        metavar="N",
        help="jobs between half-open probes while the breaker is open "
        "(default 32, backed off while probes keep failing)",
    )

    kernel_opts = argparse.ArgumentParser(add_help=False)
    kernel_opts.add_argument(
        "--kernel",
        choices=available_kernels(),
        default=None,
        help="DP kernel backend name (default scalar).  Every name runs "
        "the one lockstep sweep, so output and speed are the same "
        "either way; the @PG header line records the name (see "
        "docs/kernels.md)",
    )

    index_opts = argparse.ArgumentParser(add_help=False)
    index_opts.add_argument(
        "--index",
        metavar="FILE",
        help="persistent index artifact built by `repro index build`; "
        "loaded zero-copy via mmap after CRC verification — output is "
        "byte-identical to an index-less run (see docs/index.md)",
    )
    index_opts.add_argument(
        "--rebuild-index",
        action="store_true",
        help="when the --index artifact fails its load ladder "
        "(corrupt, stale schema, drifted reference), rebuild it in "
        "place once and retry instead of aborting",
    )

    worker_opts = argparse.ArgumentParser(add_help=False)
    worker_opts.add_argument(
        "--workers",
        type=_int_at_least(1),
        default=1,
        metavar="N",
        help="worker processes; >1 shards the reads across supervised "
        "workers and merges per-shard metrics (default 1)",
    )
    worker_opts.add_argument(
        "--start-method",
        choices=("fork", "spawn"),
        default=None,
        help="multiprocessing start method for worker processes "
        "(default: fork where available, else spawn)",
    )

    sim = sub.add_parser(
        "simulate",
        help="generate a synthetic workload",
        parents=[obs_opts],
    )
    sim.add_argument("--length", type=_int_at_least(1), default=50_000)
    sim.add_argument("--reads", type=_int_at_least(1), default=100)
    sim.add_argument(
        "--profile", choices=("clean", "platinum"), default="platinum"
    )
    sim.add_argument("--seed", type=_int_at_least(0), default=0)
    sim.add_argument("--out-reference", required=True)
    sim.add_argument("--out-reads", required=True)
    sim.add_argument(
        "--paired",
        action="store_true",
        help="write an interleaved paired-end FASTQ (FR, insert ~400)",
    )
    sim.add_argument(
        "--no-truth",
        action="store_true",
        help="skip the <reads>.truth.tsv sidecar (written by default; "
        "see docs/observability.md)",
    )
    sim.add_argument(
        "--long",
        action="store_true",
        help="simulate long reads (indel-dominated errors, occasional "
        "structural variants) instead of short reads",
    )
    sim.add_argument(
        "--long-length",
        type=_int_at_least(1),
        default=1500,
        metavar="BP",
        help="mean long-read length (with --long, default 1500)",
    )
    sim.add_argument(
        "--length-sd",
        type=_float_above(0, inclusive=True),
        default=0.0,
        metavar="BP",
        help="PBSIM-style length spread: sample per-read lengths from "
        "a normal around --long-length (0 = fixed length, default)",
    )

    aln = sub.add_parser(
        "align",
        help="align reads to a reference",
        parents=[
            obs_opts, chaos_opts, kernel_opts, index_opts, worker_opts,
            _truth_opts(20),
        ],
    )
    aln.add_argument("--reference", required=True)
    aln.add_argument("--reads", required=True)
    aln.add_argument("--out", required=True)
    aln.add_argument(
        "--engine",
        choices=tuple(ENGINE_POLICIES),
        default="seedex",
        help="(band, checks) policy on the one wave scheduler: "
        "'seedex' = --band plus the optimality checks and a full-band "
        "rerun wave (byte-identical to 'full' at any band), 'full' = "
        "'batched' = the full band, 'banded' = --band with no checks "
        "(unsound; Figure 13's baseline)",
    )
    aln.add_argument("--band", type=_int_at_least(1), default=41)
    aln.add_argument("--seeding", choices=("smem", "kmer"), default="kmer")
    aln.add_argument(
        "--batch-size",
        type=_int_at_least(1),
        default=4096,
        metavar="N",
        help="reads per scheduling window, for every engine and "
        "worker count (default 4096)",
    )
    aln.add_argument(
        "--paired",
        action="store_true",
        help="treat the FASTQ as interleaved pairs (mate rescue on; "
        "one process, no --run-dir)",
    )
    aln.add_argument(
        "--on-bad-record",
        choices=("fail", "quarantine"),
        default="fail",
        help="malformed FASTQ records: 'fail' aborts (default), "
        "'quarantine' skips them, counting pipeline.input.bad_records",
    )
    aln.add_argument(
        "--run-dir",
        metavar="DIR",
        help="journal completed read windows into DIR (durable run: "
        "killable, resumable with --resume; see docs/durability.md)",
    )
    aln.add_argument(
        "--resume",
        action="store_true",
        help="resume the interrupted run journaled in --run-dir, "
        "recomputing only the missing windows",
    )
    aln.add_argument(
        "--max-restarts",
        type=_int_at_least(0),
        default=8,
        metavar="N",
        help="worker respawn budget of a multi-process run's "
        "supervisor (default 8)",
    )
    aln.add_argument(
        "--hung-timeout",
        type=_float_above(0),
        default=30.0,
        metavar="SECONDS",
        help="heartbeat silence after which a supervised worker is "
        "declared hung and restarted (default 30)",
    )
    aln.add_argument(
        "--log-json",
        action="store_true",
        help="emit one JSON progress line per scheduling window to "
        "stderr (reads done, reads/s, ETA); single-end, one-process runs "
        "only: refused with --paired, --workers > 1 or --run-dir",
    )

    lr = sub.add_parser(
        "longread",
        help="seed-chain-fill alignment of long reads",
        # Long-read ends clip more than short reads: a wider window.
        parents=[obs_opts, kernel_opts, worker_opts, _truth_opts(50)],
    )
    lr.add_argument("--reference", required=True)
    lr.add_argument("--reads", required=True)
    lr.add_argument("--out", required=True)
    lr.add_argument(
        "--engine",
        choices=("scalar", "batched"),
        default="batched",
        help="fill/extension schedule: 'scalar' aligns one read and "
        "one gap at a time, 'batched' runs three cross-read waves "
        "(left ends, lockstep gap fills, right ends); output is "
        "byte-identical either way",
    )
    lr.add_argument(
        "--fill-band",
        type=_int_at_least(0),
        default=16,
        metavar="W",
        help="speculation band of the inter-seed gap fills (default 16)",
    )
    lr.add_argument(
        "--batch-size",
        type=_int_at_least(1),
        default=512,
        metavar="N",
        help="long reads per batched scheduling window (default 512)",
    )

    ovl = sub.add_parser(
        "overlap",
        help="all-vs-all suffix-prefix overlap detection",
        parents=[obs_opts, kernel_opts],
    )
    ovl.add_argument("--reads", required=True)
    ovl.add_argument("--out", required=True)
    ovl.add_argument(
        "--k",
        type=_int_at_least(1, at_most=32),  # 4**32 wraps the int64 key
        default=15,
        metavar="K",
        help="k-mer size of the shared-seed candidate filter, 1-32 "
        "(default 15)",
    )
    ovl.add_argument(
        "--min-shared",
        type=_int_at_least(1),
        default=3,
        metavar="N",
        help="shared k-mers (same diagonal) a pair needs to be "
        "verified (default 3)",
    )
    ovl.add_argument(
        "--min-overlap",
        type=_int_at_least(0),
        default=50,
        metavar="BP",
        help="shortest overlap worth reporting (default 50)",
    )
    ovl.add_argument(
        "--accept",
        type=_fraction,
        default=0.5,
        metavar="FRAC",
        help="score floor as a fraction of a perfect overlap "
        "(default 0.5)",
    )
    ovl.add_argument(
        "--band",
        type=_int_at_least(0),
        default=31,
        metavar="W",
        help="verification band; failures rerun at full band, so any "
        "width yields oracle-equal overlaps (default 31)",
    )
    ovl.add_argument(
        "--batch-size",
        type=_int_at_least(1),
        default=512,
        metavar="N",
        help="overlap jobs per verification wave (default 512)",
    )

    sc = sub.add_parser(
        "score",
        help="grade an existing SAM against a truth sidecar",
        parents=[obs_opts],
    )
    sc.add_argument("--sam", required=True, metavar="FILE")
    sc.add_argument(
        "--truth", required=True, metavar="FILE",
        help=".truth.tsv sidecar written by `repro simulate`",
    )
    sc.add_argument(
        "--tolerance",
        type=_int_at_least(0),
        default=20,
        metavar="BASES",
        help="correct-locus window (default 20)",
    )
    sc.add_argument(
        "--out",
        metavar="FILE",
        help="write the scorecard as JSON (schema-versioned)",
    )

    ana = sub.add_parser(
        "analyze",
        help="check passing rates for a band",
        parents=[obs_opts, chaos_opts, kernel_opts],
    )
    ana.add_argument("--reference", required=True)
    ana.add_argument("--reads", required=True)
    ana.add_argument("--band", type=_int_at_least(1), default=41)
    ana.add_argument("--seeding", choices=("smem", "kmer"), default="kmer")

    st = sub.add_parser(
        "stats",
        help="pretty-print a --metrics-out snapshot",
        parents=[obs_opts],
    )
    st.add_argument(
        "metrics_file", help="metrics JSON written by --metrics-out"
    )

    srv = sub.add_parser(
        "serve",
        help="run the resident alignment server (see docs/serve.md)",
        parents=[obs_opts, kernel_opts, index_opts],
    )
    srv.add_argument("--reference", required=True)
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port",
        type=_int_at_least(0, at_most=65535),
        default=0,
        help="TCP port (default 0: bind an ephemeral port and "
        "announce it via --port-file)",
    )
    srv.add_argument(
        "--port-file",
        metavar="FILE",
        help="write the bound port here once listening (how scripts "
        "find an ephemeral port)",
    )
    srv.add_argument(
        "--seeding", choices=("smem", "kmer"), default="smem"
    )
    srv.add_argument(
        "--queue-capacity",
        type=_int_at_least(1),
        default=256,
        metavar="N",
        help="admission queue bound; a request arriving at a full "
        "queue is shed with `overloaded` (default 256)",
    )
    srv.add_argument(
        "--max-batch",
        type=_int_at_least(1),
        default=64,
        metavar="N",
        help="reads per micro-batch wave (default 64)",
    )
    srv.add_argument(
        "--linger-ms",
        type=_float_above(0, inclusive=True),
        default=20.0,
        metavar="MS",
        help="how long a wave waits to fill (default 20)",
    )
    srv.add_argument(
        "--default-deadline-ms",
        type=_int_at_least(1),
        default=None,
        metavar="MS",
        help="deadline for requests that carry none (default: none)",
    )
    srv.add_argument(
        "--quota-rate",
        type=_float_above(0),
        default=None,
        metavar="PER_S",
        help="per-client token-bucket refill rate "
        "(default: quotas off)",
    )
    srv.add_argument(
        "--quota-burst",
        type=_float_above(1, inclusive=True),
        default=None,
        metavar="N",
        help="token-bucket burst size (default: the rate)",
    )
    srv.add_argument(
        "--wal-dir",
        metavar="DIR",
        help="write-ahead request log directory; on restart the "
        "server reports requests a crashed run admitted but never "
        "answered",
    )
    srv.add_argument(
        "--breaker-threshold",
        type=_int_at_least(1),
        default=5,
        metavar="N",
        help="consecutive failed waves that open the engine circuit "
        "breaker (default 5)",
    )
    srv.add_argument(
        "--breaker-probe-interval",
        type=_int_at_least(1),
        default=32,
        metavar="N",
        help="denied waves between half-open probes (default 32)",
    )
    srv.add_argument(
        "--net-disconnect-rate",
        type=_fraction,
        default=0.0,
        metavar="P",
        help="chaos seam: probability a response send finds the "
        "client disconnected (default 0)",
    )
    srv.add_argument(
        "--net-stall-rate",
        type=_fraction,
        default=0.0,
        metavar="P",
        help="chaos seam: probability a response send stalls "
        "(default 0)",
    )
    srv.add_argument(
        "--net-fault-seed",
        type=int,
        default=0,
        metavar="N",
        help="RNG seed of the network fault plan (default 0)",
    )

    idx = sub.add_parser(
        "index",
        help="build, verify, or inspect a persistent index artifact "
        "(see docs/index.md)",
        parents=[obs_opts],
    )
    idx_sub = idx.add_subparsers(dest="index_command", required=True)
    idx_build = idx_sub.add_parser(
        "build",
        help="serialize the reference's seeding structures (suffix "
        "array, FM-index, k-mer tables) into one CRC'd artifact",
    )
    idx_build.add_argument("--reference", required=True)
    idx_build.add_argument("--out", required=True, metavar="FILE")
    idx_build.add_argument(
        "--min-seed-length",
        type=_int_at_least(1),
        default=MIN_SEED_LENGTH,
        metavar="K",
        help="k-mer size of the hash tables; must match the aligner's "
        "min seed length for k-mer seeding (default %(default)s)",
    )
    idx_build.add_argument(
        "--sa-sample-rate",
        type=_int_at_least(1),
        default=8,
        metavar="N",
        help="FM-index sampled-SA rate (default 8)",
    )
    idx_verify = idx_sub.add_parser(
        "verify",
        help="climb the full load ladder (envelope + every section "
        "CRC) without aligning anything; exit 0 iff intact",
    )
    idx_verify.add_argument("--index", required=True, metavar="FILE")
    idx_info = idx_sub.add_parser(
        "info",
        help="print an artifact's identity: fingerprint, schema, "
        "reference CRC, build params, section table",
    )
    idx_info.add_argument("--index", required=True, metavar="FILE")
    idx_info.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (one JSON object)",
    )

    cl = sub.add_parser(
        "client",
        help="drive a running server: burst a FASTQ at it, or probe "
        "STATUS (see docs/serve.md)",
    )
    cl.add_argument("--host", default="127.0.0.1")
    cl.add_argument(
        "--port",
        type=_int_at_least(1, at_most=65535),
        default=None,
        help="server port (or use --port-file)",
    )
    cl.add_argument(
        "--port-file",
        metavar="FILE",
        help="read the port from a file `repro serve --port-file` wrote",
    )
    cl.add_argument(
        "--reads", metavar="FILE", help="FASTQ of reads to align"
    )
    cl.add_argument(
        "--connections",
        type=_int_at_least(1),
        default=1,
        metavar="N",
        help="concurrent pipelined connections (default 1)",
    )
    cl.add_argument(
        "--client-id",
        default="",
        metavar="ID",
        help="client id presented for quota accounting",
    )
    cl.add_argument(
        "--deadline-ms",
        type=_int_at_least(1),
        default=None,
        metavar="MS",
        help="per-request deadline to attach (default: none)",
    )
    cl.add_argument(
        "--repeat",
        type=_int_at_least(1),
        default=1,
        metavar="N",
        help="send the FASTQ burst N times over (default 1)",
    )
    cl.add_argument(
        "--out",
        metavar="FILE",
        help="write served SAM body lines, in input order",
    )
    cl.add_argument(
        "--json",
        action="store_true",
        help="print the load report as JSON instead of a summary line",
    )
    cl.add_argument(
        "--status",
        action="store_true",
        help="just print the server's STATUS payload and exit",
    )
    return parser


def _load_reference(path: str) -> tuple[str, np.ndarray]:
    from repro.genome.io_fasta import read_fasta
    from repro.genome.sequence import encode

    records = read_fasta(path)
    if not records:
        raise ReproError(f"{path} contains no FASTA records")
    if len(records) > 1:
        print(
            f"warning: using first of {len(records)} reference records",
            file=sys.stderr,
        )
    rec = records[0]
    return rec.name, encode(rec.sequence)


def _open_index(args: argparse.Namespace, reference: np.ndarray):
    """The CLI rung of the load ladder; ``None`` without ``--index``.

    Loads and fully verifies the artifact, then pins it to this run's
    reference (and k-mer size, when k-mer seeding is selected).  On a
    typed refusal: with ``--rebuild-index`` the artifact is rebuilt in
    place — exactly once — and reloaded; otherwise the run aborts with
    the typed error.  There is no path from a refused artifact to
    seeds.
    """
    path = getattr(args, "index", None)
    if not path:
        return None
    from repro.index.build import build_index
    from repro.index.errors import IndexArtifactError
    from repro.index.store import load_index
    from repro.obs import names as mn

    def _load_and_pin():
        loaded = load_index(path)
        loaded.check_reference(reference)
        if getattr(args, "seeding", None) == "kmer":
            loaded.check_kmer_size(MIN_SEED_LENGTH)
        return loaded

    try:
        return _load_and_pin()
    except IndexArtifactError as exc:
        if not args.rebuild_index:
            raise ReproError(
                f"{type(exc).__name__}: {exc} (rerun with "
                "--rebuild-index to rebuild the artifact in place, "
                f"or `repro index build --reference {args.reference} "
                f"--out {path}`)"
            ) from exc
        print(
            f"warning: rebuilding {path}: {exc}", file=sys.stderr
        )
        if obs.enabled():
            obs.get_registry().counter(
                mn.INDEX_REBUILDS, "artifacts rebuilt after refusal"
            ).inc()
        build_index(reference, path)
        return _load_and_pin()


@dataclass(frozen=True)
class _Run:
    """One aligning run, resolved once from its flags (:func:`_run_config`).

    It holds everything that shapes the output bytes, so it is the one
    source of the engine, the aligner, the worker recipe, the ``@PG
    DS:`` field and the journal fingerprint.  ``index`` is the loaded,
    pinned artifact or ``None``; workers get its picklable ``handle()``.
    ``truth`` is the parsed ``--truth`` sidecar the finished SAM is
    graded against, or ``None`` when no scoring was asked for.
    """

    spec: EngineSpec
    seeding: str | None
    batch_size: int | None
    reference_name: str
    reference: np.ndarray
    index: object
    on_bad_record: str
    truth: dict | None = None

    @property
    def program_tags(self) -> tuple[str, ...]:
        """``@PG`` fields naming the DP backend and the index artifact;
        records are byte-identical either way, only this line differs."""
        tag = f"DS:kernel={self.spec.kernel}"
        if self.index is not None:
            meta = self.index.meta()
            tag += (
                f",index={meta['fingerprint']}"
                f",schema={meta['schema_version']}"
            )
        return (tag,)

    def engines(self):
        """``(base, engine, dispatcher)``: the bare wave engine, the one
        to run and its resilient dispatcher (``None`` without one)."""
        base = self.spec.engine()
        engine = self.spec.wrap(base)
        return base, engine, None if engine is base else engine

    def aligner(self, engine):
        """The in-process short-read aligner over ``engine``."""
        from repro.aligner.pipeline import Aligner

        return Aligner(
            self.reference, engine, seeding=self.seeding,
            reference_name=self.reference_name, index=self.index,
        )


def _run_config(args: argparse.Namespace, kind: str) -> _Run:
    """Load the reference, the truth sidecar and the index and resolve
    the flags into the run record; ``kind`` is the engine policy
    (``--engine`` on ``align``, fixed on the commands that run one).

    The sidecar — ``--truth``, or the ``<reads>.truth.tsv`` that
    ``--scorecard-out`` implies — is read here, before any work, so a
    missing or malformed one costs no run and leaves no SAM.
    """
    name, reference = _load_reference(args.reference)
    truth = None
    if getattr(args, "truth", None) or getattr(args, "scorecard_out", None):
        from repro.scorecard.truth import read_truth, truth_path_for

        truth = read_truth(args.truth or truth_path_for(args.reads))
    chaos = {}
    if hasattr(args, "chaos"):  # the commands with the chaos flags
        chaos = dict(
            chaos=args.chaos, fault_rate=args.fault_rate,
            fault_seed=args.fault_seed, max_retries=args.max_retries,
            timeout_s=args.timeout, breaker_threshold=args.breaker_threshold,
            breaker_probe_interval=args.breaker_probe_interval,
        )
    # The spec is part of the journal fingerprint: --band is recorded
    # only where the policy uses it, so a full-band run resumes under
    # any --band.
    narrow, _ = ENGINE_POLICIES[kind]
    spec = EngineSpec(
        kind=kind,
        band=args.band if narrow else None,
        kernel=get_kernel(args.kernel).name,
        **chaos,
    )
    return _Run(
        spec=spec,
        seeding=getattr(args, "seeding", None),
        batch_size=getattr(args, "batch_size", None),
        reference_name=name,
        reference=reference,
        index=_open_index(args, reference),
        on_bad_record=getattr(args, "on_bad_record", "fail"),
        truth=truth,
    )


def _print_chaos_summary(dispatcher) -> None:
    """One-line resilience accounting after a chaos run."""
    stats = dispatcher.stats
    print(
        f"chaos: {stats.injected_total} faults injected "
        f"({stats.detected_total} detected, "
        f"{stats.tolerated_total} tolerated), "
        f"{stats.retries} retries, {stats.timeouts} timeouts, "
        f"{stats.fallbacks} host fallbacks"
    )
    if not stats.accounted():
        print(
            "warning: fault accounting mismatch "
            "(injected != detected + tolerated)",
            file=sys.stderr,
        )
    breaker = getattr(dispatcher, "breaker", None)
    if breaker is not None:
        print(
            f"breaker: state {breaker.state}, {breaker.trips} trips, "
            f"{breaker.short_circuits} short circuits, "
            f"{breaker.probes} probes"
        )


class _JsonProgress:
    """Per-window JSON progress lines on stderr (``--log-json``).

    When obs is enabled, the reads-done figure is read back from the
    live registry snapshot (the same ``aligner.reads.total`` counter a
    ``--metrics-out`` export reports), so the progress stream and the
    final metrics cannot disagree; otherwise the scheduler's own tally
    is used.
    """

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def __call__(self, window: int, done: int, total: int) -> None:
        from repro.obs import names as mn

        if obs.enabled():
            snap = obs.get_registry().snapshot()
            done = int(snap["counters"].get(mn.ALIGNER_READS_TOTAL, done))
        elapsed = time.perf_counter() - self._start
        rate = done / elapsed if elapsed > 0 else 0.0
        eta = (total - done) / rate if rate > 0 else None
        print(
            json.dumps(
                {
                    "event": "wave",
                    "wave": window,
                    "reads_done": done,
                    "reads_total": total,
                    "reads_per_s": round(rate, 1),
                    "eta_s": None if eta is None else round(eta, 1),
                    "elapsed_s": round(elapsed, 3),
                }
            ),
            file=sys.stderr,
            flush=True,
        )


def _finish_run(
    args: argparse.Namespace, run: _Run, records, summary,
    lines: tuple[str, ...] = (), dispatcher=None,
) -> int:
    """The tail every aligning run shares.

    Writes ``records`` as the SAM with the run's ``@PG`` tags
    (``None``: the journal stitched it), prints ``summary(mapped)``
    (``mapped`` is ``None`` without records), ``lines`` and the chaos
    accounting, then grades the SAM against the run's truth when
    ``--truth``/``--scorecard-out`` ask: strictly after it is on disk
    and read-only, so its bytes are the same with scoring on or off.
    """
    mapped = None
    if records is not None:
        from repro.genome.sam import write_sam

        with open(args.out, "w") as handle:
            write_sam(
                handle, records, run.reference_name, len(run.reference),
                program_tags=run.program_tags,
            )
        mapped = sum(1 for r in records if not r.is_unmapped)
    print(summary(mapped))
    for line in lines:
        print(line)
    if dispatcher is not None:
        _print_chaos_summary(dispatcher)
    if run.truth is None:
        return 0
    from repro.scorecard.score import score_sam

    card = score_sam(args.out, run.truth, tolerance=args.truth_tolerance)
    if obs.enabled():
        card.publish(obs.get_registry())
    print(card.summary())
    if args.scorecard_out:
        card.write_json(args.scorecard_out)
        print(f"wrote scorecard to {args.scorecard_out}")
    return 0


def cmd_longread(args: argparse.Namespace) -> int:
    """Align long reads (seed-chain-fill), write SAM."""
    from repro.aligner.longread import LongReadRecipe

    # Full band through the end-extension waves: byte-identical to the
    # scalar SeedExtender, whose checked results equal the full-band
    # oracle by the paper's guarantee.
    run = _run_config(args, "batched")
    encoded = _load_reads(args)
    recipe = LongReadRecipe(
        mode=args.engine,
        spec=run.spec,
        batch_size=run.batch_size,
        fill_band=args.fill_band,
        reference_name=run.reference_name,
    )
    notes: list[str] = []
    start = time.perf_counter()
    if args.workers > 1:
        from repro.aligner.parallel import align_supervised

        outcome = align_supervised(
            run.reference,
            encoded,
            recipe=recipe,
            workers=args.workers,
            batch_size=run.batch_size,
            start_method=args.start_method,
        )
        records = outcome.records
        notes = _supervision_notes(outcome)
    else:
        records = recipe.build(run.reference)(encoded)
    elapsed = time.perf_counter() - start
    return _finish_run(args, run, records, lambda mapped: "; ".join([
        f"aligned {len(records)} long reads ({mapped} mapped) in "
        f"{elapsed:.1f}s with engine {args.engine} across "
        f"{args.workers} worker(s)",
        *notes,
    ]))


def cmd_overlap(args: argparse.Namespace) -> int:
    """Detect all-vs-all overlaps in a FASTQ, write a PAF-like TSV."""
    from repro.apps.overlap import (
        OverlapParams,
        find_overlaps,
        write_overlaps,
    )

    encoded = _load_reads(args)
    params = OverlapParams(
        k=args.k,
        min_shared=args.min_shared,
        min_overlap=args.min_overlap,
        accept=args.accept,
        band=args.band,
        batch_size=args.batch_size,
    )
    start = time.perf_counter()
    overlaps = find_overlaps(encoded, params, kernel=args.kernel)
    elapsed = time.perf_counter() - start
    with open(args.out, "w") as handle:
        write_overlaps(handle, overlaps)
    proved = sum(1 for o in overlaps if o.proved)
    print(
        f"found {len(overlaps)} overlaps among {len(encoded)} reads "
        f"({proved} proved on band {params.band}, "
        f"{len(overlaps) - proved} full-band reruns) in {elapsed:.1f}s"
    )
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    """Grade an existing SAM run against its truth sidecar."""
    from repro.scorecard.score import score_sam

    card = score_sam(args.sam, args.truth, tolerance=args.tolerance)
    if obs.enabled():
        card.publish(obs.get_registry())
    print(card.summary())
    if card.missing_truth or card.truth_unseen:
        print(
            f"warning: {card.missing_truth} record(s) without truth, "
            f"{card.truth_unseen} truth row(s) never aligned",
            file=sys.stderr,
        )
    if args.out:
        card.write_json(args.out)
        print(f"wrote scorecard to {args.out}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Generate a synthetic reference + FASTQ workload.

    Unless ``--no-truth`` is given, the ground truth of every read
    (origin, strand, edit counts) is written to the canonical
    ``<reads>.truth.tsv`` sidecar so the run can later be scored with
    ``repro score`` or ``repro align --truth``.
    """
    from repro.genome.io_fasta import (
        FastaRecord,
        FastqRecord,
        write_fasta,
        write_fastq,
    )
    from repro.genome.sequence import decode
    from repro.genome.synth import (
        CLEAN,
        PLATINUM_LIKE,
        LongReadProfile,
        ReadSimulator,
        simulate_long_reads,
        synthesize_reference,
    )
    from repro.scorecard.truth import TruthRecord

    if args.long and args.paired:
        raise ReproError("--long and --paired are exclusive")
    profile = {"platinum": PLATINUM_LIKE, "clean": CLEAN}[args.profile]
    rng = np.random.default_rng(args.seed)
    reference = synthesize_reference(args.length, rng)
    records: list[FastqRecord] = []
    truth_rows: list[TruthRecord] = []
    if args.long:
        for r in simulate_long_reads(
            reference,
            args.reads,
            rng,
            profile=LongReadProfile(
                read_length=args.long_length, length_sd=args.length_sd
            ),
        ):
            records.append(
                FastqRecord(r.name, r.sequence, "I" * len(r.codes))
            )
            truth_rows.append(TruthRecord.from_read(r))
    elif args.paired:
        from repro.aligner.paired import simulate_pairs

        for pair, pos1, pos2 in simulate_pairs(
            reference, args.reads, rng, profile=profile
        ):
            for suffix, codes in (("/1", pair.first), ("/2", pair.second)):
                records.append(
                    FastqRecord(
                        pair.name + suffix,
                        decode(codes),
                        "I" * len(codes),
                    )
                )
            # Mate 1 maps forward at the fragment's left end, mate 2
            # reverse at its right end; per-mate edit counts are not
            # tracked by the pair simulator, hence unknown.
            truth_rows.append(
                TruthRecord(pair.name + "/1", pos1, reverse=False)
            )
            truth_rows.append(
                TruthRecord(pair.name + "/2", pos2, reverse=True)
            )
    else:
        sim = ReadSimulator(reference, profile, seed=args.seed)
        for r in sim.simulate(args.reads):
            records.append(
                FastqRecord(r.name, r.sequence, "I" * len(r.codes))
            )
            truth_rows.append(TruthRecord.from_read(r))
    with open(args.out_reference, "w") as handle:
        write_fasta(handle, [FastaRecord("chr1", decode(reference))])
    with open(args.out_reads, "w") as handle:
        write_fastq(handle, records)
    message = (
        f"wrote {args.length} bp reference to {args.out_reference} and "
        f"{len(records)} reads to {args.out_reads}"
    )
    if not args.no_truth:
        from repro.scorecard.truth import truth_path_for, write_truth

        truth_path = truth_path_for(args.out_reads)
        with open(truth_path, "w") as handle:
            write_truth(handle, truth_rows)
        message += f" (truth sidecar: {truth_path})"
    print(message)
    return 0


def _load_reads(args: argparse.Namespace) -> list[tuple[str, np.ndarray]]:
    """The FASTQ at ``--reads`` as encoded ``(name, codes)`` pairs; a
    malformed record is a ``MalformedRecordError``, unless ``align
    --on-bad-record quarantine`` skips it: counted as
    ``pipeline.input.bad_records``, warned to stderr, and listed in
    ``<run-dir>/bad_records.tsv`` when a run directory exists."""
    from repro.genome.io_fasta import MalformedRecordError, read_fastq
    from repro.genome.sequence import encode
    from repro.obs import names as mn

    policy = getattr(args, "on_bad_record", None)  # align's flag only
    bad: list[MalformedRecordError] = []

    def on_bad(exc: MalformedRecordError) -> None:
        if policy == "quarantine":
            bad.append(exc)
            return
        hint = "" if policy is None else (
            " (rerun with --on-bad-record quarantine to skip malformed "
            "records)"
        )
        raise MalformedRecordError(
            exc.reason + hint, path=exc.path, line=exc.line
        )

    reads = read_fastq(args.reads, on_bad=on_bad)
    if bad:
        if obs.enabled():
            obs.get_registry().counter(
                mn.PIPELINE_INPUT_BAD_RECORDS,
                "malformed input records skipped",
            ).inc(len(bad))
        for exc in bad:
            print(f"warning: skipped bad record: {exc}", file=sys.stderr)
        if args.run_dir:
            os.makedirs(args.run_dir, exist_ok=True)
            tsv = os.path.join(args.run_dir, "bad_records.tsv")
            with open(tsv, "a") as handle:
                for exc in bad:
                    handle.write(
                        f"{exc.path or args.reads}\t{exc.line}\t"
                        f"{exc.reason}\n"
                    )
    return [(r.name, encode(r.sequence)) for r in reads]


def cmd_align(args: argparse.Namespace) -> int:
    """Align a FASTQ against a FASTA reference, write SAM."""
    if args.resume and not args.run_dir:
        raise ReproError("--resume needs --run-dir")
    if args.index and args.paired:
        raise ReproError("--index supports single-end reads only")
    supervised = args.run_dir or args.workers > 1
    if supervised and args.paired:
        raise ReproError(
            "--run-dir and --workers > 1 support single-end reads only"
        )
    if args.log_json and (supervised or args.paired):
        raise ReproError(
            "--log-json supports single-end, one-process runs only "
            "(not --paired, --workers > 1 or --run-dir)"
        )
    run = _run_config(args, args.engine)
    reads = _load_reads(args)
    if supervised:
        return _align_workers_cmd(args, run, reads)
    if args.paired and len(reads) % 2:
        raise ReproError(
            "--paired needs an even number of reads (interleaved mates)"
        )
    base_engine, engine, dispatcher = run.engines()
    start = time.perf_counter()
    if args.paired:
        from repro.aligner.paired import PairedAligner, ReadPair

        paired = PairedAligner(
            run.reference,
            engine,
            seeding=run.seeding,
            reference_name=run.reference_name,
        )
        pairs = [
            ReadPair(name.removesuffix("/1"), first, second)
            for (name, first), (_, second) in zip(reads[0::2], reads[1::2])
        ]
        # Mates and rescue candidates go through cross-pair waves.
        records = [
            record
            for mates in paired.align_pairs_batched(
                pairs, batch_size=run.batch_size
            )
            for record in mates
        ]
        elapsed = time.perf_counter() - start
        return _finish_run(
            args, run, records,
            lambda mapped: (
                f"aligned {len(records) // 2} pairs ({mapped} mates "
                f"mapped, {paired.stats.proper} proper, "
                f"{paired.stats.rescued} rescued) in {elapsed:.1f}s "
                f"with engine {engine.name}"
            ),
            dispatcher=dispatcher,
        )
    records = run.aligner(engine).align_batched(
        reads,
        batch_size=run.batch_size,
        progress=_JsonProgress() if args.log_json else None,
    )
    elapsed = time.perf_counter() - start
    stats = base_engine.stats
    return _finish_run(
        args, run, records,
        lambda mapped: (
            f"aligned {len(records)} reads ({mapped} mapped) in "
            f"{elapsed:.1f}s with engine {engine.name}"
        ),
        lines=() if stats is None else (
            f"check passing rate {_rate(stats.passing_rate, stats.total)} "
            f"({stats.reruns} full-band reruns of {stats.total} "
            f"extensions; {base_engine.settled} settled with no DP)",
        ),
        dispatcher=dispatcher,
    )


def _rate(fraction: float, checked: int) -> str:
    """A check rate as a percentage; ``n/a`` when no job was checked
    (every job settled with no DP)."""
    return f"{fraction:.1%}" if checked else "n/a"


def _supervision_notes(outcome, quarantine_file=None) -> list[str]:
    """Summary-line clauses for what the supervisor had to do."""
    notes = []
    if outcome.restarts:
        notes.append(f"worker restarts: {outcome.restarts}")
    if outcome.quarantined:
        where = quarantine_file or ", ".join(outcome.quarantined)
        notes.append(
            f"quarantined {len(outcome.quarantined)} poison read(s): "
            f"{where}"
        )
    return notes


def _align_workers_cmd(args: argparse.Namespace, run: _Run, reads) -> int:
    """The multi-process ``align`` path: supervised, optionally journaled.

    A dead or hung worker is respawned and a poison read quarantined;
    worker metric snapshots (chaos accounting included) merge into the
    parent registry.  ``--run-dir`` adds only the journal: SIGINT or
    SIGTERM drain the in-flight wave and exit 3 with a resume hint,
    and ``--resume`` recomputes only the missing windows, to the bytes
    of an uninterrupted run (see docs/durability.md).
    """
    from repro.aligner.parallel import AlignRecipe, align_supervised
    from repro.durability.runner import (
        GracefulShutdown,
        RunInterrupted,
        run_fingerprint,
        run_journaled,
    )
    from repro.durability.supervisor import SupervisorPolicy

    supervise = dict(
        # Workers get the picklable capability (path + pinned
        # fingerprint), not the loaded artifact: each opens the same
        # file and shares its pages through the OS cache.
        recipe=AlignRecipe(
            spec=run.spec,
            seeding=run.seeding,
            reference_name=run.reference_name,
            index=None if run.index is None else run.index.handle(),
        ),
        workers=args.workers,
        batch_size=run.batch_size,
        policy=SupervisorPolicy(
            max_restarts=args.max_restarts,
            hung_timeout=args.hung_timeout,
        ),
        start_method=args.start_method,
    )
    start = time.perf_counter()
    try:
        if args.run_dir:
            # The index fingerprint joins the journal manifest's
            # configuration fingerprint, so `--resume` refuses a
            # drifted artifact — while a byte-identical rebuild (same
            # content fingerprint) still resumes.
            fingerprint = run_fingerprint(
                args.reference,
                args.reads,
                run.spec,
                batch_size=run.batch_size,
                seeding=run.seeding,
                on_bad_record=run.on_bad_record,
                index_fingerprint=(
                    None if run.index is None else run.index.fingerprint
                ),
            )
            with GracefulShutdown() as shutdown:
                outcome = run_journaled(
                    args.run_dir,
                    run.reference,
                    reads,
                    fingerprint,
                    out_path=args.out,
                    reference_name=run.reference_name,
                    resume=args.resume,
                    should_stop=shutdown,
                    program_tags=run.program_tags,
                    **supervise,
                )
            # The journal stitched the SAM and keeps the quarantine.
            records = None
            quarantine_file = f"{outcome.run_dir}/quarantine.fastq"
        else:
            outcome = align_supervised(run.reference, reads, **supervise)
            records, quarantine_file = outcome.records, None
    except RunInterrupted as exc:
        print(
            f"interrupted: {exc.done}/{exc.total} windows journaled in "
            f"{exc.run_dir}"
        )
        print(
            f"resume with: python -m repro.cli align --reference "
            f"{args.reference} --reads {args.reads} --out {args.out} "
            f"--run-dir {args.run_dir} --resume"
        )
        return 3
    elapsed = time.perf_counter() - start
    parts = []
    if args.resume:
        parts.append(
            f"resumed: {outcome.skipped_windows}/{outcome.total_windows} "
            "windows reused from the journal"
        )
        if outcome.dropped_windows:
            parts.append(
                f"recomputed {len(outcome.dropped_windows)} corrupt "
                "journal segment(s)"
            )
    parts += _supervision_notes(outcome, quarantine_file)
    return _finish_run(
        args, run, records,
        lambda mapped: "; ".join([
            f"aligned {len(reads)} reads"
            f"{'' if mapped is None else f' ({mapped} mapped)'} in "
            f"{elapsed:.1f}s with engine {run.spec.engine_name} across "
            f"{args.workers} worker(s)",
            *parts,
        ]),
        lines=(
            "chaos: per-worker fault accounting merged into the "
            "metrics registry (see --metrics-out)",
        ) if args.chaos else (),
    )


def cmd_analyze(args: argparse.Namespace) -> int:
    """Report check passing rates for a workload at one band.

    The table is sourced from the metrics-registry snapshot — the same
    numbers ``--metrics-out`` exports — so Figure-14 accounting and
    production metrics cannot drift apart.  The jobs the ungapped rule
    settles reach no DP and no check: the rates are over the
    ``extensions`` row, and the ``settled (no DP)`` row counts the rest.
    """
    from repro.obs import names as mn
    from repro.obs.table import format_table

    run = _run_config(args, "seedex")
    reads = _load_reads(args)
    base_engine, engine, dispatcher = run.engines()
    base_engine.stats.reset()  # this invocation's workload only
    run.aligner(engine).align_batched(reads)
    stats = base_engine.stats
    snap = stats.registry.snapshot()
    counters = snap["counters"]
    total = counters.get(mn.EXTENSIONS_TOTAL, 0)
    rows: list[tuple[str, object]] = [
        ("band", args.band),
        ("kernel", run.spec.kernel),
        ("settled (no DP)", base_engine.settled),
        ("extensions", total),
        (
            "threshold-only passing rate",
            _rate(stats.threshold_only_rate, total),
        ),
        ("overall passing rate", _rate(stats.passing_rate, total)),
        ("rerun fraction", _rate(stats.rerun_rate, total)),
    ]
    prefix = mn.CHECK_OUTCOME + "{outcome="
    outcome_rows = sorted(
        (
            (key[len(prefix):-1], count)
            for key, count in counters.items()
            if key.startswith(prefix) and count
        ),
        key=lambda kv: -kv[1],
    )
    rows.extend(
        (f"outcome {outcome}", count) for outcome, count in outcome_rows
    )
    print(f"band: {args.band}")
    print(format_table(("metric", "value"), rows))
    if dispatcher is not None:
        _print_chaos_summary(dispatcher)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Pretty-print a metrics snapshot written by ``--metrics-out``."""
    from repro.obs.metrics import read_snapshot
    from repro.obs.table import format_table

    def dash(value):
        return "-" if value is None else value

    tables = (
        ("counters", ("counter", "value"), lambda value: (value,)),
        ("gauges", ("gauge", "value"), lambda value: (value,)),
        (
            "histograms",
            ("histogram", "count", "mean", "p50", "p90", "p99", "max"),
            lambda h: (
                h.get("count", 0),
                h.get("mean", 0.0),
                *(dash((h.get("quantiles") or {}).get(q))
                  for q in ("p50", "p90", "p99")),
                dash(h.get("max")),
            ),
        ),
    )
    snap = read_snapshot(args.metrics_file)
    for section, headers, cells in tables:
        entries = snap.get(section) or {}
        if entries:
            rows = [(key, *cells(v)) for key, v in sorted(entries.items())]
            print(f"\n== {section} ==")
            print(format_table(headers, rows))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the resident alignment server until signalled, then drain.

    The reference is loaded and indexed once; requests stream through
    the wave scheduler continuously.  SIGINT/SIGTERM stop admission,
    flush the in-flight waves, answer every straggler, and exit 0 —
    a second signal kills immediately.  See ``docs/serve.md``.
    """
    from repro.serve.server import AlignmentServer, ServeConfig

    run = _run_config(args, "full")
    aligner = run.aligner(run.spec.build())
    config = ServeConfig(
        host=args.host,
        port=args.port,
        port_file=args.port_file,
        queue_capacity=args.queue_capacity,
        max_batch=args.max_batch,
        linger_ms=args.linger_ms,
        default_deadline_ms=args.default_deadline_ms,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        wal_dir=args.wal_dir,
        breaker_threshold=args.breaker_threshold,
        breaker_probe_interval=args.breaker_probe_interval,
    )
    server = AlignmentServer(aligner, config)
    if args.net_disconnect_rate or args.net_stall_rate:
        from repro.faults.netfaults import NetFaultPlan, NetFaultPolicy

        server.fault_plan = NetFaultPlan(
            NetFaultPolicy(
                seed=args.net_fault_seed,
                disconnect_rate=args.net_disconnect_rate,
                stall_rate=args.net_stall_rate,
            )
        )
    port = server.start()
    if server.lost_on_restart:
        lost_ids = [rec.get("id") for rec in server.lost_on_restart]
        print(
            f"wal: previous run admitted {len(lost_ids)} requests it "
            f"never answered: {', '.join(map(str, lost_ids))}",
            file=sys.stderr,
        )
    banner = (
        f"serving {run.reference_name} ({len(run.reference)} bases) on "
        f"{args.host}:{port} (queue {config.queue_capacity}, "
        f"batch {config.max_batch})"
    )
    if aligner.index_meta is not None:
        banner += (
            f" [index {aligner.index_meta['fingerprint']} "
            f"schema {aligner.index_meta['schema_version']}]"
        )
    print(banner, flush=True)
    code = server.serve_forever()
    snap = server.stats.snapshot()
    shed_total = sum(snap["shed"].values())
    print(
        f"drained: served {snap['served']}, shed {shed_total}, "
        f"timeouts {snap['timeouts']}, "
        f"waves {snap['waves']}"
    )
    return code


def cmd_index(args: argparse.Namespace) -> int:
    """Build, verify, or inspect a persistent index artifact.

    ``build`` is deterministic and atomic (tmp + fsync + rename) and
    re-verifies its own bytes before reporting success; ``verify``
    climbs the full load ladder and exits non-zero with the typed
    error on any refusal; ``info`` prints the artifact's identity.
    """
    from repro.index.build import build_index
    from repro.index.format import read_header
    from repro.index.store import verify_artifact

    if args.index_command == "build":
        _, reference = _load_reference(args.reference)
        start = time.perf_counter()
        loaded = build_index(
            reference,
            args.out,
            k=args.min_seed_length,
            sa_sample_rate=args.sa_sample_rate,
        )
        elapsed = time.perf_counter() - start
        size = os.path.getsize(args.out)
        print(
            f"built {args.out} ({size} bytes) in {elapsed:.1f}s: "
            f"fingerprint {loaded.fingerprint}, schema "
            f"{loaded.header.schema_version}, {len(reference)} bases, "
            f"k={loaded.header.k}"
        )
        return 0
    if args.index_command == "verify":
        header = verify_artifact(args.index)
        print(
            f"{args.index}: intact (fingerprint {header.fingerprint}, "
            f"schema {header.schema_version}, "
            f"{len(header.sections)} sections verified)"
        )
        return 0
    # info: envelope only — prints identity even when a section is
    # damaged (verify is the integrity tool).
    header = read_header(args.index)
    payload = {
        "path": args.index,
        "fingerprint": header.fingerprint,
        "schema_version": header.schema_version,
        "reference_length": header.reference_length,
        "reference_crc": f"{header.reference_crc:08x}",
        "params": header.params,
        "sections": {
            name: {
                "dtype": meta.dtype,
                "shape": list(meta.shape),
                "nbytes": meta.nbytes,
            }
            for name, meta in sorted(header.sections.items())
        },
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            f"{args.index}: fingerprint {header.fingerprint}, schema "
            f"{header.schema_version}, reference "
            f"{header.reference_length} bases "
            f"(crc {header.reference_crc:08x}), k={header.k}, "
            f"sa_sample_rate={header.sa_sample_rate}"
        )
        for name, meta in sorted(header.sections.items()):
            print(
                f"  {name}: {meta.dtype}{list(meta.shape)} "
                f"({meta.nbytes} bytes)"
            )
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    """Drive a running server with a pipelined FASTQ burst.

    Exit code 0 when every request was answered (served or typed
    rejection); 1 when any request went unanswered (the connection
    died first).  ``--status`` instead prints the server's health
    payload and exits.
    """
    from repro.genome.sequence import decode
    from repro.serve.client import request_status, run_load

    port = args.port
    if port is None:
        if not args.port_file:
            raise ReproError("need --port or --port-file")
        with open(args.port_file) as handle:
            text = handle.read().strip()
        if not text.isdigit():
            raise ReproError(
                f"cannot read port from {args.port_file}: {text!r} is "
                "not a port number"
            )
        port = int(text)
    if args.status:
        print(
            json.dumps(
                request_status(args.host, port), indent=2, sort_keys=True
            )
        )
        return 0
    if not args.reads:
        raise ReproError("need --reads (or --status)")
    pairs = [
        (name, decode(codes)) for name, codes in _load_reads(args)
    ] * args.repeat
    report = run_load(
        args.host,
        port,
        pairs,
        connections=args.connections,
        client=args.client_id,
        deadline_ms=args.deadline_ms,
    )
    if args.out:
        prefix = args.client_id or "load"
        with open(args.out, "w") as handle:
            for index in range(len(pairs)):
                sam = report.ok.get(f"{prefix}-{index}")
                if sam is not None:
                    handle.write(sam + "\n")
    shed_by_code: dict[str, int] = {}
    for payload in report.errors.values():
        code = payload.get("error", "?")
        shed_by_code[code] = shed_by_code.get(code, 0) + 1
    summary = {
        "sent": report.sent,
        "served": len(report.ok),
        "shed": shed_by_code,
        "unanswered": len(report.unanswered),
        "elapsed_s": round(report.elapsed_s, 3),
        "p50_ms": round(report.percentile_ms(0.50), 3),
        "p99_ms": round(report.percentile_ms(0.99), 3),
    }
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(
            f"sent {summary['sent']}: {summary['served']} served, "
            f"{sum(shed_by_code.values())} shed {shed_by_code}, "
            f"{summary['unanswered']} unanswered in "
            f"{summary['elapsed_s']}s "
            f"(p50 {summary['p50_ms']}ms, p99 {summary['p99_ms']}ms)"
        )
    return 1 if report.unanswered else 0


def _check_outputs(args: argparse.Namespace) -> None:
    """Refuse an output path in a missing directory before any work, so
    a long run does not fail at its first write (``client --port-file``
    is read, and refused the same way)."""
    for dest in ("out", "out_reference", "out_reads", "metrics_out",
                 "trace_out", "scorecard_out", "port_file"):
        path = getattr(args, dest, None)
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ReproError(
                f"--{dest.replace('_', '-')} {path}: no such directory"
            )


def _observed(handler, args: argparse.Namespace) -> int:
    """Run ``handler`` with the metrics registry and the tracer on when
    ``--metrics-out``, ``--trace-out`` or ``--log-json`` asks, and
    export them once it returns: a command that fails writes no
    snapshot, and a failed export is exit 1."""
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    # --log-json reads progress counts back from the registry, so it
    # turns observability on even without an export file.
    if not (metrics_out or trace_out or getattr(args, "log_json", False)):
        return handler(args)
    obs.reset()
    obs.enable()
    try:
        code = handler(args)
        try:
            if metrics_out:
                obs.get_registry().write_json(metrics_out)
                print(f"wrote metrics snapshot to {metrics_out}")
            if trace_out:
                obs.get_tracer().export_chrome(trace_out)
                print(f"wrote Chrome trace to {trace_out}")
        except OSError as exc:
            error = ReproError(f"cannot write snapshot: {exc}")
            error.exit_code = 1  # the run failed, after its work
            raise error from exc
    finally:
        obs.disable()
    return code


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    The one error boundary: a :class:`~repro.constants.ReproError`, an
    ``OSError`` or a named file that is not text ends in one ``error:``
    line and its exit code (2 but for a ``ReproError``'s own).
    Anything else is a bug and keeps its traceback.
    """
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "align": cmd_align,
        "longread": cmd_longread,
        "overlap": cmd_overlap,
        "analyze": cmd_analyze,
        "score": cmd_score,
        "stats": cmd_stats,
        "serve": cmd_serve,
        "client": cmd_client,
        "index": cmd_index,
    }
    try:
        _check_outputs(args)
        return _observed(handlers[args.command], args)
    except (ReproError, OSError, UnicodeDecodeError) as exc:
        kind = "" if type(exc) is ReproError else f"{type(exc).__name__}: "
        print(f"error: {kind}{exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    raise SystemExit(main())
