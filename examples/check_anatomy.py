"""Anatomy of one SeedEx decision, bound by bound.

Constructs the canonical case-c input — a deletion exactly as deep as
the band, placed right after the seed, with a clean suffix — and walks
through what each check computes and why the narrow-band result ends
up provably optimal.  Then perturbs the input until each check fails,
showing the rerun triggers.

Run:  python examples/check_anatomy.py
"""

import numpy as np

from repro.align import banded
from repro.align.editdp import BELOW
from repro.align.scoring import BWA_MEM_SCORING
from repro.core.checker import CheckOutcome, OptimalityChecker
from repro.core.editcheck import sweep_bound
from repro.core.escore import score_max_e
from repro.core.thresholds import semiglobal_thresholds
from repro.genome.sequence import random_sequence

rng = np.random.default_rng(99)
W = 12
H0 = 25

# The canonical rescue case: a deletion exactly W deep, right after
# the seed (column 5), clean everywhere else.  Its gap penalty
# go + W*ge = 18 lands the score exactly at S2 — case c.
ref = random_sequence(170, rng)
query = np.concatenate([ref[:5], ref[5 + W : 5 + W + 113]]).astype(
    np.uint8
)
target = ref[:130]

print(f"query {len(query)} bp vs target {len(target)} bp, band w={W}, "
      f"seed score h0={H0}")
print(f"planted: a {W}-deletion at column 5, clean suffix\n")

narrow = banded.extend(query, target, BWA_MEM_SCORING, H0, w=W)
full = banded.extend(query, target, BWA_MEM_SCORING, H0)
print("1. speculation — narrow-band run")
print(f"   gscore_nb = {narrow.gscore} (full band agrees: "
      f"{full.gscore})")

th = semiglobal_thresholds(
    BWA_MEM_SCORING, len(query), len(target), W, H0
)
verdict = th.classify(narrow.gscore)
print("\n2. thresholds (paper Eq. 4-5)")
print(f"   S1 = {th.s1}   S2 = {th.s2}   -> {verdict}")
assert verdict == "between", "scenario must land in case c"

e_bound = score_max_e(narrow, BWA_MEM_SCORING)
e_pass = e_bound < narrow.gscore
print("\n3. E-score check (paths crossing the band's lower edge)")
print(f"   scoreMax_E = {e_bound} "
      f"{'<' if e_pass else '>='} gscore_nb {narrow.gscore}: "
      f"{'PASS' if e_pass else 'FAIL'}")
print("   (the deletion sits at column 5, so every live boundary "
      "entry already paid it)")

score_ed = sweep_bound(
    query, target, narrow, BWA_MEM_SCORING, BELOW, channel_seeds=False
)
ed_pass = score_ed < narrow.gscore
print("\n4. edit-distance check (the column-0 dive, half-matrix sweep)")
print(f"   score_ed = {score_ed} "
      f"{'<' if ed_pass else '>='} gscore_nb {narrow.gscore}: "
      f"{'PASS' if ed_pass else 'FAIL'}")

decision = OptimalityChecker(BWA_MEM_SCORING).check(
    query, target, narrow
)
print(f"\n=> outcome: {decision.outcome.name}")
assert decision.outcome == CheckOutcome.PASS_CHECKS
assert narrow.scores() == full.scores()
print("   the narrow band is provably bit-equal to the full band — "
      "no rerun needed")

# Break it: deepen the deletion past the band.
print("\n--- perturbation: deepen the deletion to w+6 ---")
query2 = np.concatenate(
    [ref[:5], ref[5 + W + 6 : 5 + W + 6 + 113]]
).astype(np.uint8)
narrow2 = banded.extend(query2, target, BWA_MEM_SCORING, H0, w=W)
decision2 = OptimalityChecker(BWA_MEM_SCORING).check(
    query2, target, narrow2
)
full2 = banded.extend(query2, target, BWA_MEM_SCORING, H0)
print(f"gscore_nb = {narrow2.gscore}, full = {full2.gscore} "
      f"(the band genuinely missed {full2.gscore - narrow2.gscore} "
      "points)")
print(f"outcome: {decision2.outcome.name} -> rerun recovers the "
      "optimum")
assert decision2.needs_rerun

# Noisy suffix: the E-shadow tolerance is exhausted; the checks
# correctly refuse to certify even though the band was fine.
print("\n--- perturbation: four substitutions after the deletion ---")
query3 = query.copy()
for p in (60, 75, 88, 95):
    query3[p] = (query3[p] + 1) % 4
narrow3 = banded.extend(query3, target, BWA_MEM_SCORING, H0, w=W)
decision3 = OptimalityChecker(BWA_MEM_SCORING).check(
    query3, target, narrow3
)
full3 = banded.extend(query3, target, BWA_MEM_SCORING, H0)
print(f"gscore_nb = {narrow3.gscore}, full = {full3.gscore}")
print(f"outcome: {decision3.outcome.name} -> "
      + ("a false alarm the all-match bounds cannot avoid "
         "(docs/checks.md Sec 4) — rerun, same answer"
         if narrow3.scores() == full3.scores()
         else "and indeed the band missed the optimum"))
assert decision3.needs_rerun
