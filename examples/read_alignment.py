"""End-to-end read alignment: SeedEx acceleration is bit-equivalent.

Synthesizes a reference genome, simulates Illumina-like reads
(including the ~2% carrying structural indels), aligns them twice
through the same wave scheduler — under the full-band policy and under
the SeedEx policy (narrow band + checks + rerun wave) — and verifies
the SAM output is identical, as the paper validated over 787M real
reads.  Writes both SAM files next to this script.

Run:  python examples/read_alignment.py [n_reads]
"""

import sys
import time
from pathlib import Path

import numpy as np

from repro.aligner.engines import make_engine
from repro.aligner.pipeline import Aligner
from repro.genome.sam import diff_records, write_sam
from repro.genome.synth import (
    PLATINUM_LIKE,
    ReadSimulator,
    synthesize_reference,
)

N_READS = int(sys.argv[1]) if len(sys.argv) > 1 else 80

rng = np.random.default_rng(2020)
print("synthesizing a 60 kb reference with repeat content ...")
reference = synthesize_reference(60_000, rng, repeat_fraction=0.03)
reads = ReadSimulator(reference, PLATINUM_LIKE, seed=613).simulate(N_READS)
print(f"simulated {len(reads)} reads "
      f"({sum(r.indel_span >= 8 for r in reads)} with structural indels)")

start = time.perf_counter()
baseline = Aligner(reference, make_engine("full"), seeding="kmer")
full_sam = baseline.align_batched(reads)
print(f"full-band alignment: {time.perf_counter() - start:.1f}s")

start = time.perf_counter()
engine = make_engine("seedex", 41)
seedex_sam = Aligner(reference, engine, seeding="kmer").align_batched(reads)
print(f"SeedEx (w=41) alignment: {time.perf_counter() - start:.1f}s")

diffs = diff_records(full_sam, seedex_sam)
stats = engine.stats
print(f"\ndiffering SAM records: {diffs} (paper: 0)")
print(f"extensions: {stats.total}, check passing rate: "
      f"{stats.passing_rate:.1%}, reruns: {stats.reruns}")

mapped = [r for r in full_sam if not r.is_unmapped]
correct = sum(
    1
    for read, rec in zip(reads, full_sam)
    if not rec.is_unmapped
    and abs(rec.pos - read.true_pos) <= 50
    and rec.is_reverse == read.reverse
)
print(f"mapped: {len(mapped)}/{len(reads)}, near truth: {correct}")

out_dir = Path(__file__).parent
for name, records in (("full_band.sam", full_sam),
                      ("seedex.sam", seedex_sam)):
    with open(out_dir / name, "w") as handle:
        write_sam(handle, records, "chr1", len(reference))
print(f"wrote {out_dir / 'full_band.sam'} and {out_dir / 'seedex.sam'}")

assert diffs == 0, "SeedEx output must be bit-equivalent!"
print("\nbit-equivalence verified.")
