"""The accelerator's input/output path (Figure 7, Section V-A).

Two pieces of plumbing the paper describes around the compute cores,
carrying the jobs and result records of the wire format
(:mod:`repro.faults.wire`: 512-bit DDR lines of 3-bit packed
characters with a CRC'd header, CRC-16-terminated result records):

* **arbiter / state manager** — each SeedEx core's inputs are chunked
  and fed sequentially from the input RAM, with the state manager
  bookkeeping several in-flight streams so a stalled fetch never
  starves the PE array (prefetch hides the 40-cycle AXI latency);
* **output coalescer** — results pack five to one into an output line
  before write-back "in a bandwidth efficient manner".

All of it is functional: the arbiter reproduces its inputs
stream-for-stream and the coalescer's lines split back into the exact
records, so the I/O path can sit inside the accelerator model without
touching the bit-equivalence story.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.wire import (
    LINE_BYTES,
    RESULT_BYTES,
    CorruptRecordError,
    pack_job,
)
from repro.genome.synth import ExtensionJob

OUTPUT_COALESCE_RATIO = 5


def lines_per_job(job: ExtensionJob) -> int:
    """Memory lines one packed job occupies."""
    return len(pack_job(job))


@dataclass
class StreamState:
    """State-manager bookkeeping for one in-flight input stream."""

    stream_id: int
    lines: list[bytes]
    next_line: int = 0
    delivered: list[bytes] = field(default_factory=list)

    @property
    def exhausted(self) -> bool:
        """True once every line of the stream was delivered."""
        return self.next_line >= len(self.lines)


@dataclass
class ArbiterReport:
    cycles: int
    lines_delivered: int
    stalls: int
    per_stream_lines: dict[int, int]

    @property
    def efficiency(self) -> float:
        """Delivered lines per cycle (1.0 = never stalled)."""
        return (
            self.lines_delivered / self.cycles if self.cycles else 0.0
        )


class Arbiter:
    """Round-robin line feeder over several input streams.

    One line per cycle leaves the input RAM; a stream whose prefetch
    has not landed yet (modeled by per-line availability times) causes
    either a switch to another ready stream or — if none is ready — a
    stall cycle.  With prefetch latency below the compute interval the
    stall count is zero, the paper's "memory access time is completely
    hidden".
    """

    def __init__(self, prefetch_latency_lines: int = 0) -> None:
        self.prefetch_latency = prefetch_latency_lines
        self.streams: dict[int, StreamState] = {}

    def add_stream(self, stream_id: int, lines: list[bytes]) -> None:
        """Register one input stream's memory lines."""
        if stream_id in self.streams:
            raise ValueError(f"stream {stream_id} already registered")
        self.streams[stream_id] = StreamState(stream_id, list(lines))

    def run(self) -> ArbiterReport:
        """Drain all streams; returns delivery telemetry."""
        order = sorted(self.streams)
        cycles = 0
        delivered = 0
        stalls = 0
        rr = 0
        # A line is "ready" once its index is at least prefetch_latency
        # cycles old relative to stream registration; the prefetcher
        # runs ahead, so only the pipe-fill can ever stall.
        while any(not s.exhausted for s in self.streams.values()):
            cycles += 1
            progressed = False
            for k in range(len(order)):
                stream = self.streams[order[(rr + k) % len(order)]]
                if stream.exhausted:
                    continue
                ready_at = (
                    stream.next_line + self.prefetch_latency
                    if stream.next_line == 0
                    else 0
                )
                if cycles <= ready_at:
                    continue
                stream.delivered.append(stream.lines[stream.next_line])
                stream.next_line += 1
                delivered += 1
                rr = (rr + k + 1) % len(order)
                progressed = True
                break
            if not progressed:
                stalls += 1
        return ArbiterReport(
            cycles=cycles,
            lines_delivered=delivered,
            stalls=stalls,
            per_stream_lines={
                sid: len(s.delivered) for sid, s in self.streams.items()
            },
        )


@dataclass
class CoalescerReport:
    results: int
    lines_written: int

    @property
    def bytes_saved_fraction(self) -> float:
        """Write-back bandwidth saved vs one line per result."""
        naive = self.results * LINE_BYTES
        actual = self.lines_written * LINE_BYTES
        return 1.0 - actual / naive if naive else 0.0


def coalesce_results(n_results: int) -> CoalescerReport:
    """Model the 5:1 output coalescer (Section V-A)."""
    if n_results < 0:
        raise ValueError("result count must be non-negative")
    per_line = OUTPUT_COALESCE_RATIO
    lines = (n_results + per_line - 1) // per_line
    return CoalescerReport(results=n_results, lines_written=lines)


def coalesce_record_lines(records: list[bytes]) -> list[bytes]:
    """Pack result records five to a 512-bit output line (functional).

    The functional counterpart of :func:`coalesce_results`: records
    travel :data:`OUTPUT_COALESCE_RATIO` per line, zero-padded.
    """
    per_line = OUTPUT_COALESCE_RATIO
    lines = []
    for off in range(0, len(records), per_line):
        chunk = b"".join(records[off : off + per_line])
        lines.append(chunk.ljust(LINE_BYTES, b"\x00"))
    return lines


def split_record_lines(lines: list[bytes], n_records: int) -> list[bytes]:
    """Inverse of :func:`coalesce_record_lines` for ``n_records``.

    Raises :class:`CorruptRecordError` when the lines cannot hold the
    expected record count (a dropped or truncated output line).
    """
    blob = b"".join(lines)
    need = n_records * RESULT_BYTES
    capacity = len(lines) * OUTPUT_COALESCE_RATIO
    if n_records > capacity or len(blob) < need:
        raise CorruptRecordError(
            f"{len(lines)} output lines cannot hold "
            f"{n_records} records",
            field="length",
        )
    out = []
    for k in range(n_records):
        line_idx, slot = divmod(k, OUTPUT_COALESCE_RATIO)
        start = line_idx * LINE_BYTES + slot * RESULT_BYTES
        out.append(blob[start : start + RESULT_BYTES])
    return out
