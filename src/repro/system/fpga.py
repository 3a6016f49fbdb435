"""AWS F1 platform model (paper Table I, Section V-A).

Static description of the f1.2xlarge deployment target plus the
XDMA/OCL transfer model the batching simulation uses.  All constants
come from the paper or AWS's published instance specs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import constants as paper


@dataclass(frozen=True)
class F1Instance:
    """The baseline system configuration (Table I)."""

    name: str = "f1.2xlarge"
    vcpus: int = paper.F1_VCPUS
    host_dram_gib: int = paper.F1_DRAM_GIB
    fpga_dram_gib: int = paper.FPGA_DRAM_GIB
    fpga_logic_elements: int = paper.FPGA_LOGIC_ELEMENTS
    memory_channels: int = 4
    pcie_gen3_lanes: int = 16
    seedex_clock_hz: float = 1e9 / paper.FPGA_CLOCK_NS
    seeding_clock_hz: float = 1e9 / paper.SEEDING_CLOCK_NS

    @property
    def pcie_bandwidth_bytes_per_s(self) -> float:
        """PCIe gen3 x16: ~12 GB/s effective."""
        return 12e9


@dataclass(frozen=True)
class BatchTransfer:
    """Cost model of moving one extension batch over XDMA."""

    jobs: int
    bytes_per_job: int = 96  # 3-bit packed query+target+metadata

    @property
    def total_bytes(self) -> int:
        """Payload size of the batch."""
        return self.jobs * self.bytes_per_job

    def transfer_seconds(self, instance: F1Instance) -> float:
        """Host-to-FPGA DMA time for this batch."""
        latency = 20e-6  # DMA setup + doorbell round trip
        return latency + self.total_bytes / instance.pcie_bandwidth_bytes_per_s

    def result_seconds(self, instance: F1Instance) -> float:
        """Results coalesce 5:1 into memory lines before readback."""
        result_bytes = self.jobs * 64 // 5
        return 10e-6 + result_bytes / instance.pcie_bandwidth_bytes_per_s
