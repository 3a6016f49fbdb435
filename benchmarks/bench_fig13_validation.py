"""Figure 13: SeedEx validation — SAM differences vs band size.

Paper: a plain banded kernel produces millions of differing SAM
entries at small bands, decaying to zero only at the full band; the
SeedEx algorithm produces *zero* differences at every band setting.
This harness runs the full aligner over the same reads under the
three ``(band, checks)`` policies of the one wave engine and counts
differing SAM records.
"""

from repro.aligner.engines import make_engine
from repro.aligner.pipeline import Aligner
from repro.analysis.report import print_table
from repro.genome.sam import diff_records

BANDS = (3, 5, 10, 20, 41)


def test_fig13_validation(benchmark, aligner_workload):
    reference, reads = aligner_workload

    def run():
        baseline = Aligner(
            reference, make_engine("full"), seeding="kmer"
        ).align_batched(reads)
        banded_diffs = {}
        seedex_diffs = {}
        for band in BANDS:
            banded_out = Aligner(
                reference, make_engine("banded", band), seeding="kmer"
            ).align_batched(reads)
            banded_diffs[band] = diff_records(baseline, banded_out)
            seedex_out = Aligner(
                reference, make_engine("seedex", band), seeding="kmer"
            ).align_batched(reads)
            seedex_diffs[band] = diff_records(baseline, seedex_out)
        return banded_diffs, seedex_diffs

    banded_diffs, seedex_diffs = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    n = len(reads)
    rows = [
        (w, f"{banded_diffs[w]}/{n}", f"{seedex_diffs[w]}/{n}")
        for w in BANDS
    ]
    print_table(
        "Figure 13 — differing SAM entries vs band",
        ("band", "plain banded (BSW)", "SeedEx"),
        rows,
    )
    print("\npaper: BSW diffs decay from >5e6 (of 787M reads) to 0 at "
          "full band; SeedEx is 0 at every band")

    # The headline result: SeedEx is exact at EVERY band.
    assert all(v == 0 for v in seedex_diffs.values())
    # The naive banded kernel must diverge at small bands and decay.
    assert banded_diffs[BANDS[0]] > 0
    assert banded_diffs[41] <= banded_diffs[3]
