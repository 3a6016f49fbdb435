"""Discrete-event simulation of the FPGA driving protocol (Fig 12).

The steady-state model in :mod:`repro.system.batching` answers "who
is the bottleneck"; this simulator replays the actual protocol the
paper describes — seeding threads produce batches, FPGA threads
package and DMA them, take the FPGA lock, issue ``batch_start``, poll
for ``batch_done``, release the lock and read results back, with
multiple threads interleaving so transfers hide under the locked
compute — and reports the timeline quantities the paper argues about:
FPGA occupancy, lock wait, and end-to-end throughput.

The two models are cross-validated in ``tests/system/test_events.py``:
their steady-state throughputs agree.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from repro import constants as paper
from repro import obs
from repro.hw import timing
from repro.obs import names
from repro.system.fpga import BatchTransfer, F1Instance


@dataclass(frozen=True)
class TimelineEvent:
    """One protocol step, for inspection/plotting."""

    time: float
    kind: str
    thread: int
    batch: int


@dataclass
class TimelineReport:
    """What the event simulation measured."""

    events: list[TimelineEvent]
    finished_batches: int
    batch_size: int
    makespan: float
    fpga_busy: float
    total_lock_wait: float

    @property
    def throughput_ext_per_s(self) -> float:
        """Extensions per second over the whole timeline."""
        if self.makespan <= 0:
            return 0.0
        return self.finished_batches * self.batch_size / self.makespan

    @property
    def fpga_utilization(self) -> float:
        """Fraction of the makespan the device computed."""
        return self.fpga_busy / self.makespan if self.makespan else 0.0

    @property
    def mean_lock_wait(self) -> float:
        """Average FPGA-lock wait per batch (seconds)."""
        if not self.finished_batches:
            return 0.0
        return self.total_lock_wait / self.finished_batches


@dataclass(order=True)
class _Wake:
    time: float
    seq: int
    thread: int = field(compare=False)
    batch: int = field(compare=False)
    phase: str = field(compare=False)


def simulate_timeline(
    n_batches: int = 40,
    batch_size: int = 4096,
    fpga_threads: int = 2,
    producer_ext_per_s: float | None = None,
    fpga_ext_per_s: float | None = None,
    instance: F1Instance | None = None,
) -> TimelineReport:
    """Run the protocol for ``n_batches`` batches.

    ``producer_ext_per_s`` is the seeding-side job rate (None =
    effectively infinite, isolating the FPGA-side pipeline);
    ``fpga_ext_per_s`` the device compute rate (default: the
    calibrated model's 43.9 M ext/s).
    """
    if n_batches < 1 or fpga_threads < 1:
        raise ValueError("need at least one batch and one thread")
    inst = instance or F1Instance()
    fpga_rate = fpga_ext_per_s or timing.fpga_throughput()
    transfer = BatchTransfer(batch_size)
    t_in = transfer.transfer_seconds(inst)
    t_out = transfer.result_seconds(inst)
    t_compute = batch_size / fpga_rate

    def batch_ready(b: int) -> float:
        if producer_ext_per_s is None:
            return 0.0
        return (b + 1) * batch_size / producer_ext_per_s

    events: list[TimelineEvent] = []
    seq = itertools.count()
    heap: list[_Wake] = []
    next_batch = 0
    lock_free_at = 0.0
    fpga_busy = 0.0
    total_lock_wait = 0.0
    finished = 0
    makespan = 0.0

    # Each thread starts by claiming a batch.
    for th in range(min(fpga_threads, n_batches)):
        b = next_batch
        next_batch += 1
        heapq.heappush(
            heap, _Wake(batch_ready(b), next(seq), th, b, "package")
        )

    while heap:
        wake = heapq.heappop(heap)
        t, th, b, phase = wake.time, wake.thread, wake.batch, wake.phase
        if phase == "package":
            events.append(TimelineEvent(t, "dma_in_start", th, b))
            heapq.heappush(
                heap, _Wake(t + t_in, next(seq), th, b, "acquire")
            )
        elif phase == "acquire":
            start = max(t, lock_free_at)
            total_lock_wait += start - t
            events.append(TimelineEvent(start, "batch_start", th, b))
            lock_free_at = start + t_compute
            fpga_busy += t_compute
            heapq.heappush(
                heap, _Wake(lock_free_at, next(seq), th, b, "readback")
            )
        elif phase == "readback":
            events.append(TimelineEvent(t, "batch_done", th, b))
            done = t + t_out
            events.append(TimelineEvent(done, "results_read", th, b))
            finished += 1
            makespan = max(makespan, done)
            if next_batch < n_batches:
                nb = next_batch
                next_batch += 1
                heapq.heappush(
                    heap,
                    _Wake(
                        max(done, batch_ready(nb)),
                        next(seq),
                        th,
                        nb,
                        "package",
                    ),
                )
    report = TimelineReport(
        events=events,
        finished_batches=finished,
        batch_size=batch_size,
        makespan=makespan,
        fpga_busy=fpga_busy,
        total_lock_wait=total_lock_wait,
    )
    if obs.enabled():
        reg = obs.get_registry()
        reg.gauge(
            names.SYSTEM_FPGA_UTILIZATION, "device busy fraction"
        ).set(report.fpga_utilization)
        reg.gauge(
            names.SYSTEM_LOCK_WAIT_MEAN, "mean lock wait per batch"
        ).set(report.mean_lock_wait)
        reg.gauge(
            names.SYSTEM_THROUGHPUT, "timeline throughput"
        ).set(report.throughput_ext_per_s)
        reg.gauge(
            names.SYSTEM_BATCHES_FINISHED, "batches completed"
        ).set(report.finished_batches)
    return report


def threads_to_saturate(
    batch_size: int = 4096,
    max_threads: int = 8,
    instance: F1Instance | None = None,
) -> int:
    """Fewest FPGA threads keeping the device above 95% busy.

    The paper interleaves multiple FPGA threads "to conceal FPGA
    execution latency"; this sweep reproduces how few suffice.
    """
    for k in range(1, max_threads + 1):
        report = simulate_timeline(
            n_batches=60,
            batch_size=batch_size,
            fpga_threads=k,
            instance=instance,
        )
        if report.fpga_utilization >= 0.95:
            return k
    return max_threads


RERUN_OVERLAP_NOTE = paper.RERUN_RATE
