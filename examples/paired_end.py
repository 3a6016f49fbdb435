"""Paired-end alignment with SeedEx acceleration and mate rescue.

Simulates an FR paired library, aligns it with the SeedEx engine, and
then damages one mate of each pair badly enough that single-end
seeding fails — showing the mate-rescue path (a targeted SeedEx
extension inside the insert window of the mapped mate) recovering it.

Run:  python examples/paired_end.py
"""

import numpy as np

from repro.aligner.engines import make_engine
from repro.aligner.paired import (
    FLAG_PROPER,
    PairedAligner,
    ReadPair,
    simulate_pairs,
)
from repro.genome.synth import synthesize_reference

rng = np.random.default_rng(2024)
print("synthesizing a 80 kb reference ...")
reference = synthesize_reference(80_000, rng)
pairs = simulate_pairs(reference, 40, rng)
print(f"simulated {len(pairs)} FR pairs (insert ~ N(400, 50))\n")

aligner = PairedAligner(reference, make_engine("seedex", 41))
proper = exact = 0
for pair, p1, p2 in pairs:
    r1, r2 = aligner.align_pair(pair)
    proper += bool(r1.flag & FLAG_PROPER)
    exact += (r1.pos == p1) + (r2.pos == p2)
print(f"clean library: {proper}/{len(pairs)} proper pairs, "
      f"{exact}/{2 * len(pairs)} exact positions")

# Damage mate 2 of each pair with 10 scattered substitutions: enough
# to starve the 19-mer seeder, not enough to hide the alignment.
rescue_aligner = PairedAligner(reference, make_engine("seedex", 41))
solo_unmapped = recovered = 0
for pair, p1, p2 in pairs:
    bad = pair.second.copy()
    sites = rng.choice(len(bad), size=10, replace=False)
    bad[sites] = (bad[sites] + rng.integers(1, 4, size=10)) % 4
    if rescue_aligner.aligner.align_read(bad, "probe").is_unmapped:
        solo_unmapped += 1
    r1, r2 = rescue_aligner.align_pair(ReadPair(pair.name, pair.first, bad))
    if not r2.is_unmapped and abs(r2.pos - p2) <= 30:
        recovered += 1

print(f"\ndamaged library: {solo_unmapped}/{len(pairs)} mates unmapped "
      "single-end")
print(f"with pairing + rescue: {recovered}/{len(pairs)} mates placed "
      f"near truth ({rescue_aligner.stats.rescued} explicit rescues)")
print("\nmate rescue runs the same speculate-and-test extension kernel "
      "— even the rescue path is guaranteed full-band-equivalent.")
