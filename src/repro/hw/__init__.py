"""Hardware models: functional PEs/arrays plus calibrated cost models.

* :mod:`repro.hw.pe`, :mod:`repro.hw.systolic` — cycle-level BSW array;
* :mod:`repro.hw.delta`, :mod:`repro.hw.edit_machine` — 3-bit residue
  arithmetic and the delta-encoded edit core;
* :mod:`repro.hw.bsw_core`, :mod:`repro.hw.seedex_core`,
  :mod:`repro.hw.accelerator` — the core/cluster/device hierarchy;
* :mod:`repro.hw.area`, :mod:`repro.hw.timing` — analytic FPGA/ASIC
  cost models calibrated to the paper's published numbers;
* :mod:`repro.hw.automaton` — Levenshtein automata, the state counts
  Figure 18 sets against SeedEx's PE count.
"""
