"""The full SeedEx accelerator: clusters, clients, batching, rerun path.

Models the device level of Figure 7: the AWS shell exposes four DDR4
channels; each channel hosts one SeedEx *cluster* of four *clients*
(SeedEx cores).  Input batches are prefetched into BRAM so the AXI
read latency (40 cycles) hides under compute (~100 cycles per job),
results coalesce 5:1 into output lines, and the jobs that fail the
optimality checks come back on a rerun queue that the host drains with
the full-band software kernel.

The model is functional for decisions (every accepted score is the
proven-optimal narrow-band result; every rerun is recomputed full
band) and analytic for time: per-core initiation intervals from
:mod:`repro.hw.timing`, perfect prefetch overlap as the paper reports
("memory access time is completely hidden").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.align import banded
from repro.align.banded import ExtensionResult
from repro.align.scoring import BWA_MEM_SCORING, AffineGap
from repro.core.checker import CheckConfig
from repro.genome.synth import ExtensionJob
from repro.hw import timing
from repro.hw.seedex_core import CoreOutput, SeedExCore
from repro import constants as paper


@dataclass(frozen=True)
class AcceleratorConfig:
    """Device configuration (defaults = the paper's SeedEx-only image)."""

    clusters: int = 3
    clients_per_cluster: int = 4
    band: int = paper.DEFAULT_BAND
    batch_size: int = 512
    clock_hz: float = timing.FPGA_CLOCK_HZ
    axi_read_latency_cycles: int = paper.AXI_READ_LATENCY_CYCLES
    output_coalesce_ratio: int = 5

    @property
    def n_cores(self) -> int:
        """SeedEx cores on the device."""
        return self.clusters * self.clients_per_cluster

    @property
    def n_bsw_cores(self) -> int:
        """Narrow-band BSW engines on the device (3 per core)."""
        return self.n_cores * 3


@dataclass
class AcceleratorReport:
    """What one run of the accelerator produced."""

    outputs: list[CoreOutput]
    rerun_results: dict[int, ExtensionResult]
    total_cycles: float
    throughput_ext_per_s: float
    rerun_fraction: float
    prefetch_hidden: bool
    faults_detected: int = 0
    dead_letter_indices: tuple[int, ...] = ()

    def final_result(self, index: int) -> ExtensionResult:
        """The guaranteed-optimal result for job ``index``.

        Raises ``KeyError`` for a dead-lettered index — those jobs
        have no result by definition (the rerun queue refused them).
        """
        if index in self.rerun_results:
            return self.rerun_results[index]
        if index in self.dead_letter_indices:
            raise KeyError(
                f"job {index} was dead-lettered: rerun queue full"
            )
        return self.outputs[index].result


class SeedExAccelerator:
    """Device-level model: dispatch, compute, check, rerun."""

    def __init__(
        self,
        config: AcceleratorConfig | None = None,
        scoring: AffineGap = BWA_MEM_SCORING,
        check_config: CheckConfig | None = None,
    ) -> None:
        self.config = config or AcceleratorConfig()
        self.scoring = scoring
        self.cores = [
            SeedExCore(self.config.band, scoring, check_config)
            for _ in range(self.config.n_cores)
        ]

    def run(
        self,
        jobs: list[ExtensionJob],
        rerun_on_host: bool = True,
        model_io: bool = False,
        injector=None,
        rerun_queue_capacity: int | None = None,
    ) -> AcceleratorReport:
        """Process a job list and model device time.

        Jobs round-robin across SeedEx cores (the state manager
        bookkeeping multiple input streams).  Device time is the
        slowest core's busy time; prefetch hides memory latency as
        long as the AXI round-trip fits under one initiation interval.

        ``model_io=True`` routes every job through the memory-line
        packing path (:mod:`repro.faults.wire`): jobs are serialized to
        512-bit lines, fed through the arbiter, and unpacked at the
        core — exercising the full Figure-7 input path functionally.

        ``injector`` (a :class:`~repro.faults.injector.FaultInjector`;
        implies ``model_io``) corrupts the packed lines in flight.
        Jobs whose corruption the CRC framing catches skip the core
        and degrade straight to the host rerun queue — the host still
        holds its pristine copy of every in-flight job.
        ``rerun_queue_capacity`` bounds that queue; overflowing jobs
        are dead-lettered in the report rather than silently lost.
        """
        cfg = self.config
        corrupted: set[int] = set()
        if model_io or injector is not None:
            jobs_in = jobs
            jobs, corrupted = _through_io_path(
                jobs, len(self.cores), injector
            )
        outputs: list[CoreOutput | None] = []
        core_busy = [0.0] * len(self.cores)
        for k, job in enumerate(jobs):
            if k in corrupted:
                outputs.append(None)
                continue
            core_idx = k % len(self.cores)
            core = self.cores[core_idx]
            before = _core_cycles(core)
            outputs.append(core.process(job))
            core_busy[core_idx] += _core_cycles(core) - before

        rerun_results: dict[int, ExtensionResult] = {}
        dead_letters: list[int] = []
        if rerun_on_host:
            rerun_queue: list[tuple[int, ExtensionJob]] = []
            for idx, out in enumerate(outputs):
                if out is None:
                    # Detected corruption: the host reruns its own
                    # pristine copy of the job.
                    rerun_queue.append((idx, jobs_in[idx]))
                elif not out.accepted:
                    rerun_queue.append((idx, out.job))
            for n, (idx, job) in enumerate(rerun_queue):
                if (
                    rerun_queue_capacity is not None
                    and n >= rerun_queue_capacity
                ):
                    dead_letters.append(idx)
                    continue
                rerun_results[idx] = banded.extend(
                    job.query, job.target, self.scoring, job.h0
                )

        # Each SeedEx core's 3 BSW engines drain their share in
        # parallel; device time = slowest core.
        total_cycles = max(core_busy) / 3 if core_busy else 0.0
        compute_per_job = timing.initiation_interval_cycles(cfg.band)
        prefetch_hidden = cfg.axi_read_latency_cycles < compute_per_job
        seconds = total_cycles / cfg.clock_hz if total_cycles else 0.0
        throughput = len(jobs) / seconds if seconds else 0.0
        failed = len(corrupted) + sum(
            o is not None and not o.accepted for o in outputs
        )
        rerun_fraction = failed / max(1, len(jobs)) if jobs else 0.0
        return AcceleratorReport(
            outputs=outputs,
            rerun_results=rerun_results,
            total_cycles=total_cycles,
            throughput_ext_per_s=throughput,
            rerun_fraction=rerun_fraction,
            prefetch_hidden=prefetch_hidden,
            faults_detected=len(corrupted),
            dead_letter_indices=tuple(dead_letters),
        )

    def passing_rate(self) -> float:
        """Device-wide check passing rate so far."""
        jobs = sum(c.telemetry.jobs for c in self.cores)
        accepted = sum(c.telemetry.accepted for c in self.cores)
        return accepted / jobs if jobs else 0.0


def _core_cycles(core: SeedExCore) -> float:
    return core.telemetry.bsw_cycles + core.telemetry.edit_cycles


def _through_io_path(
    jobs: list[ExtensionJob], n_streams: int, injector=None
) -> tuple[list[ExtensionJob], set[int]]:
    """Serialize jobs through the memory-line input path and back.

    One arbiter stream per core; each job becomes 512-bit lines, the
    arbiter interleaves the streams, and the state manager's
    reassembled lines are unpacked into jobs again — asserting, in
    effect, that nothing in the I/O plumbing can corrupt an input
    *undetected*.

    With an ``injector``, each job's lines may be corrupted in flight
    (line faults); the CRC framing catches every corruption at unpack
    and the job's index lands in the returned ``corrupted`` set (the
    entry keeps the host's pristine copy for the rerun queue).  Drawn
    fault sites that have no seam on this batch path — stalls are
    absorbed by the state manager, and the per-record/batch seams
    belong to the dispatcher path — are counted as tolerated so the
    accounting invariant holds.
    """
    from repro.faults.injector import LINE_SITES
    from repro.faults.wire import CorruptLineError, pack_job, unpack_job
    from repro.hw.io_path import Arbiter

    per_stream: list[list[tuple[int, list[bytes], str]]] = [
        [] for _ in range(n_streams)
    ]
    site_of: dict[int, str] = {}
    for k, job in enumerate(jobs):
        lines = pack_job(job)
        if injector is not None:
            site = injector.draw()
            if site in LINE_SITES:
                lines = injector.corrupt_lines(site, lines)
                site_of[k] = site
            elif site is not None:
                injector.record_tolerated(site)
        per_stream[k % n_streams].append((k, lines, job.tag))

    arbiter = Arbiter()
    for sid in range(n_streams):
        lines = []
        for _, job_lines, _ in per_stream[sid]:
            lines.extend(job_lines)
        if lines:
            arbiter.add_stream(sid, lines)
    arbiter.run()

    out: list[ExtensionJob] = list(jobs)
    corrupted: set[int] = set()
    for sid in range(n_streams):
        if not per_stream[sid]:
            continue
        delivered = arbiter.streams[sid].delivered
        cursor = 0
        for k, job_lines, tag in per_stream[sid]:
            chunk = delivered[cursor : cursor + len(job_lines)]
            cursor += len(job_lines)
            try:
                out[k] = unpack_job(chunk, tag=tag)
            except CorruptLineError:
                corrupted.add(k)  # host copy stays in out[k]
                sink = getattr(injector, "sink", None)
                if sink is not None:
                    sink.record_detected(site_of.get(k, "line.bitflip"))
    return out, corrupted
