"""Alignment substrate: DP kernels shared by the whole reproduction.

Public surface:

* :mod:`repro.align.scoring` — scoring schemes;
* :mod:`repro.align.banded` — the production banded extension kernel;
* :mod:`repro.align.lockstep` — the one batched (lockstep) recurrence
  and its per-shape capture sets;
* :mod:`repro.align.ungapped` — the closed form of the extension jobs
  whose ungapped diagonal provably wins, settled before any DP;
* :mod:`repro.align.fullmatrix` — the dense oracle and traceback;
* :mod:`repro.align.editdp` — Levenshtein and the one relaxed-edit
  sweep (region below/above the band x extension/global floor) behind
  every optimality check that looks outside the band;
* :mod:`repro.align.cigar` — CIGAR utilities.
"""
