"""Paper-reported constants used to calibrate the analytic models.

Every number in this module is copied from the SeedEx paper (MICRO 2020)
text, tables, or figures.  The hardware area/timing/energy models in
:mod:`repro.hw` are parameterized by these constants so that the
benchmark harnesses can print paper-vs-model rows side by side.

Nothing in the *algorithmic* packages (:mod:`repro.align`,
:mod:`repro.core`) depends on this module; the optimality checks are
exact algorithms, not calibrated models.  It also holds
:class:`ReproError`, the base of every typed error a command reports
(every command loads this module, so the base costs no import).
"""

from __future__ import annotations


class ReproError(Exception):
    """A typed refusal the command line reports as one ``error:`` line.

    ``exit_code`` is 2 (the command line or a file it names is unusable)
    or 1 (the run itself failed).  Library errors derive from it beside
    their builtin base, so ``except ValueError`` callers still work."""

    exit_code = 2


class InputError(ReproError, ValueError):
    """An input value the program cannot use (e.g. a short reference)."""


# --- Workload (Section VI) -------------------------------------------------

READ_LENGTH_BP = 101
"""Read length of the ERR194147 Platinum Genomes dataset."""

TOTAL_READS = 787_265_109
"""Number of reads aligned for the validation study."""

EXTENSIONS_PER_READ = 10
"""Approximate seed extensions per read (Section II-A)."""

# --- Band analysis (Figures 2, 14) -----------------------------------------

FRACTION_NEEDING_SMALL_BAND = 0.98
"""Fraction of extensions that need band w <= 10 (Figure 2)."""

FRACTION_ESTIMATED_LARGE_BAND = 0.38
"""Fraction of extensions whose *estimated* band exceeds 40 (Figure 2)."""

DEFAULT_BAND = 41
"""The band size chosen for the SeedEx configuration (Section VII-A)."""

MIN_SEED_LENGTH = 19
"""BWA-MEM's minimum seed length (``-k 19``): the aligner's seeds and
the k of a persistent index's k-mer tables, which must agree."""

FULL_BAND = 101
"""The full band used by the baseline accelerator (w = read length)."""

PASS_RATE_THRESHOLD_ONLY_AT_41 = 0.7176
"""Passing rate with thresholding only at w=41 (Section VII-A)."""

PASS_RATE_ALL_CHECKS_AT_41 = 0.9819
"""Overall passing rate with all checks at w=41 (Section VII-A)."""

EDIT_CHECK_PASS_BOOST_AVG = 0.18
"""Average passing-rate boost from the edit-distance check (Figure 14)."""

BSW_TO_EDIT_CORE_RATIO = 3
"""BSW cores per edit machine in a SeedEx core (Section VII-A)."""

# --- FPGA area (Figures 4, 15, 16; Table II) --------------------------------

EDIT_MACHINE_AREA_OVERHEAD = 0.0553
"""Edit machines as a fraction of total SeedEx resources (Section I/VII)."""

SEEDEX_CORE_LUT_IMPROVEMENT = 2.3
"""LUT utilization improvement of a SeedEx core vs a full-band core."""

EDIT_REDUCED_SCORING_FACTOR = 1.82
"""LUT reduction from the reduced edit scoring datapath (Figure 16b)."""

EDIT_DELTA_ENCODING_FACTOR = 3.11
"""LUT reduction once delta encoding is added (Figure 16b)."""

EDIT_HALF_WIDTH_FACTOR = 6.06
"""LUT reduction once the half-width PE array is added (Figure 16b)."""

# Table II: resource utilization (%) of the combined seeding+SeedEx FPGA.
TABLE2_UTILIZATION = {
    "Seeding": {"LUT": 21.04, "BRAM": 10.10, "URAM": 11.81},
    "SeedEx: Controller": {"LUT": 0.03, "BRAM": 0.01, "URAM": 0.00},
    "SeedEx: I/O Buffers": {"LUT": 0.49, "BRAM": 0.64, "URAM": 0.36},
    "SeedEx: SeedEx Core": {"LUT": 12.47, "BRAM": 1.14, "URAM": 0.15},
    "SeedEx: Total": {"LUT": 12.99, "BRAM": 1.79, "URAM": 0.51},
    "AWS Interface": {"LUT": 19.74, "BRAM": 12.63, "URAM": 12.20},
    "Total": {"LUT": 53.77, "BRAM": 24.52, "URAM": 24.52},
}

# Figure 15: LUT breakdown of the SeedEx-only FPGA (fractions of total).
FIG15_LUT_BREAKDOWN = {
    "BSW cores": 0.55,
    "Edit cores": 0.0553,
    "Controller + arbiter": 0.03,
    "I/O buffers": 0.04,
    "AWS shell interface": 0.32,
}

# --- Throughput / latency (Figure 16c, Section VII-A) -----------------------

SEEDEX_THROUGHPUT_EXT_PER_S = 43.9e6
"""SeedEx FPGA throughput in seed extensions per second."""

ISO_AREA_THROUGHPUT_SPEEDUP = 6.0
"""Iso-area throughput speedup vs the full-band baseline."""

SEEDEX_LATENCY_IMPROVEMENT = 1.9
"""Seed-extension latency improvement of a SeedEx core vs full-band."""

NARROW_BSW_CORES_TOTAL = 36
"""Narrow-band BSW cores on the SeedEx-only FPGA (3 clusters x 4 x 3)."""

FULL_BAND_CORES_TOTAL = 9
"""Full-band BSW cores on the baseline FPGA (routability limit)."""

FPGA_CLOCK_NS = 8.0
"""SeedEx logic clock period on the FPGA (Section VI)."""

SEEDING_CLOCK_NS = 4.0
"""Seeding accelerator clock period (Section VI)."""

AXI_READ_LATENCY_CYCLES = 40
"""AWS AXI-4 input access latency hidden by prefetching (Section V-A)."""

COMPUTE_LATENCY_CYCLES = 100
"""Approximate compute latency per extension (Section V-A)."""

RERUN_RATE = 0.02
"""Fraction of extensions rerun on the host CPU (Section VII-A)."""

RERUN_CORE_AREA_OVERHEAD = 0.06
"""Area overhead of an optional on-FPGA full-band rerun core."""

# --- Application-level results (Figure 17, Section VII-B) -------------------

SPEEDUP_SEEDEX_ONLY_BWAMEM = 1.296
SPEEDUP_SEEDEX_ONLY_BWAMEM2 = 1.335
SPEEDUP_FULL_BWAMEM = 3.75
SPEEDUP_FULL_BWAMEM2 = 2.28
SOFTWARE_SEEDEX_KERNEL_SPEEDUP = 1.14
SOFTWARE_SEEDEX_APP_SPEEDUP_BWAMEM2 = 1.028
READS_PER_S_COMBINED_FPGA = 1.5e6
SEEDING_THREAD_FRACTION = 0.88
CPU_36V_VS_FPGA_SPEEDUP = 1.9

# --- ASIC implementation (Table III, Figure 18) -----------------------------

ASIC_CLOCK_NS = 0.49
ASIC_PROCESS_NM = 28

# Table III rows: configuration -> (area mm^2, power W).
TABLE3_ASIC = {
    "I/O buffer": {"config": "4KiB", "area_mm2": 0.08, "power_w": 0.1395},
    "RAM": {"config": "2.25KiB x 4", "area_mm2": 0.31, "power_w": 0.5482},
    "BSW cores": {"config": "12", "area_mm2": 0.43, "power_w": 0.288},
    "Edit cores": {"config": "4", "area_mm2": 0.04, "power_w": 0.0592},
    "Rerun core": {"config": "1", "area_mm2": 0.084, "power_w": 0.0355},
}
TABLE3_SEEDEX_TOTAL = {"area_mm2": 0.98, "power_w": 1.10}
TABLE3_ERT = {"config": "x8", "area_mm2": 27.78, "power_w": 8.71}
TABLE3_TOTAL = {"area_mm2": 28.76, "power_w": 9.81}

SEEDEX_VS_SILLAX_KERNEL_SPEEDUP = 20.0
SEEDEX_VS_SILLAX_AREA_REDUCTION = 16.0
SEEDEX_VS_SILLAX_POWER_REDUCTION = 10.0
ERT_SEEDEX_VS_ERT_SILLAX_PERF = 1.56
ERT_SEEDEX_VS_ERT_SILLAX_ENERGY = 2.45
ERT_SEEDEX_VS_GENAX_PERF = 14.6
ERT_SEEDEX_VS_GENAX_ENERGY = 2.11

SILLAX_K = 32
"""GenAx Silla parameter; Silla needs O(K^2) states for band w = 2K+1."""

# --- Baseline system (Table I) ----------------------------------------------

F1_VCPUS = 8
F1_DRAM_GIB = 122
FPGA_DRAM_GIB = 64
FPGA_LOGIC_ELEMENTS = 2_500_000
