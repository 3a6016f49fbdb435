"""Drive the SeedEx hardware models end to end.

Three levels of fidelity, mirroring paper Figures 7-11:

1. the cycle-level systolic BSW array on a single job (watch the
   speculative early termination and PE utilization);
2. the 3-bit delta-encoded edit machine decoding its scores exactly;
3. the full accelerator (3 clusters x 4 SeedEx cores) on a corpus,
   with the calibrated area/throughput models alongside.

Run:  python examples/accelerator_simulation.py
"""

import numpy as np

from repro import constants as paper
from repro.align import banded
from repro.align.editdp import BELOW
from repro.align.scoring import BWA_MEM_SCORING
from repro.core.editcheck import edge_seeds
from repro.genome.sequence import decode
from repro.genome.synth import extension_corpus
from repro.hw import area, timing
from repro.hw.accelerator import AcceleratorConfig, SeedExAccelerator
from repro.hw.edit_machine import EditMachine
from repro.hw.systolic import SystolicBSW

rng = np.random.default_rng(4)
jobs = extension_corpus(240, rng, query_length=80,
                        reference_length=120_000)

# --- 1. one job through the cycle-level systolic array ----------------------
job = jobs[0]
print("== cycle-level systolic BSW array (w=12) ==")
print("query :", decode(job.query)[:60], "...")
run = SystolicBSW(12, BWA_MEM_SCORING).run(job.query, job.target, job.h0)
print(f"cycles: {run.cycles}, PEs: {run.pe_count}, "
      f"utilization: {run.utilization:.0%}")
print(f"scores: lscore={run.result.lscore} gscore={run.result.gscore} "
      f"terminated_early={run.result.terminated_early} "
      f"exception={run.exception}")

# --- 2. the delta-encoded edit machine ---------------------------------------
print("\n== 3-bit delta-encoded edit machine (w=12) ==")
em = EditMachine(12)
narrow = banded.extend(job.query, job.target, BWA_MEM_SCORING, job.h0, w=12)
em_run = em.run(job.query, job.target,
                edge_seeds(narrow, BWA_MEM_SCORING, BELOW))
print(f"half-width PEs: {em_run.pe_count}, cells: {em_run.cells_computed}")
print(f"decoded score_ed bound: {em_run.best} "
      "(bit-exact vs the full-width software DP)")

# --- 3. the full accelerator --------------------------------------------------
print("\n== full accelerator: 3 clusters x 4 SeedEx cores ==")
acc = SeedExAccelerator(AcceleratorConfig())
report = acc.run(jobs)
print(f"jobs: {len(jobs)}, device passing rate: {acc.passing_rate():.1%}, "
      f"rerun fraction: {report.rerun_fraction:.1%} (paper ~2%)")
print(f"modeled device throughput at 101bp: "
      f"{timing.fpga_throughput() / 1e6:.1f} M ext/s (paper 43.9)")
print(f"iso-area speedup over full-band: "
      f"{timing.iso_area_speedup():.1f}x (paper 6.0x)")

# --- cost model summary --------------------------------------------------------
print("\n== calibrated cost models ==")
print(f"SeedEx core: {area.seedex_core_luts():,.0f} LUTs "
      f"(full-band core: {area.full_band_core_luts():,.0f}; "
      f"{area.full_band_core_luts() / area.seedex_core_luts():.1f}x)")
print(f"edit machine overhead: {area.edit_machine_overhead():.2%} "
      "(paper 5.53%)")
asic_area, asic_power = area.asic_seedex_totals()
print(f"ASIC SeedEx: {asic_area:.2f} mm^2, {asic_power:.2f} W "
      f"@ {1e3 / paper.ASIC_CLOCK_NS / 1e3:.2f} GHz")
