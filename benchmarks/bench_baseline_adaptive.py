"""Baseline comparison: adaptive banding vs SeedEx.

The paper's related work (Section II/VIII) cites adaptive banding as
the established way to shrink the DP without a wide static band — at
the cost of any optimality guarantee.  This harness quantifies that
trade on the structural corpus: the adaptive band's silent-error rate
at each width, against SeedEx which is exact at *every* width by
construction (failures become reruns, not wrong answers).
"""

from repro.align import banded
from repro.analysis.adaptive import adaptive_extend
from repro.align.scoring import BWA_MEM_SCORING
from repro.analysis.report import print_table
from repro.core.extender import SeedExtender

BANDS = (5, 10, 20, 41)


def test_baseline_adaptive_banding(benchmark, structural_jobs):
    def run():
        rows = []
        for band in BANDS:
            adaptive_errors = 0
            adaptive_cells = 0
            seedex = SeedExtender(band=band)
            seedex_errors = 0
            for job in structural_jobs:
                full = banded.extend(
                    job.query, job.target, BWA_MEM_SCORING, job.h0
                )
                ada = adaptive_extend(
                    job.query, job.target, BWA_MEM_SCORING, job.h0, band
                )
                adaptive_cells += ada.cells_computed
                if ada.gscore != full.gscore:
                    adaptive_errors += 1
                out = seedex.extend(job.query, job.target, job.h0)
                if out.result.scores() != full.scores():
                    seedex_errors += 1
            rows.append(
                (
                    band,
                    adaptive_errors,
                    seedex_errors,
                    seedex.stats.reruns,
                    adaptive_cells / len(structural_jobs),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    n = None
    print_table(
        "Baseline — adaptive banding vs SeedEx (structural corpus)",
        (
            "band",
            "adaptive silent errors",
            "seedex errors",
            "seedex reruns",
            "adaptive cells/ext",
        ),
        [
            (b, ae, se, rr, f"{cells:,.0f}")
            for b, ae, se, rr, cells in rows
        ],
    )
    print(
        "\nadaptive banding trades correctness silently; SeedEx "
        "converts every uncertain case into an explicit rerun"
    )

    for band, ada_err, sx_err, reruns, _cells in rows:
        assert sx_err == 0  # the headline guarantee
    # Adaptive banding must show real silent errors at narrow widths.
    assert rows[0][1] > 0
    # And its error rate shrinks with width (or stays equal).
    errors = [r[1] for r in rows]
    assert errors[-1] <= errors[0]
