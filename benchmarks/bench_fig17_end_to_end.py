"""Figure 17: normalized end-to-end application time breakdown.

Paper: SeedEx alone speeds BWA-MEM up 1.296x and BWA-MEM2 1.335x
(software seeding becomes the bottleneck, best thread split puts ~88%
of threads on seeding); with the ERT seeding accelerator the system
reaches 3.75x over BWA-MEM and 2.28x over BWA-MEM2.  A software-only
SeedEx (w=5 + reruns) speeds the BSW kernel 14% and the app 2.8%.

This harness *measures* the software-SeedEx kernel speedup and the
rerun fraction on a real corpus, then feeds them into the calibrated
pipeline model.
"""

from repro.analysis.report import PaperComparison, comparison_table, print_table
from repro.core.extender import SeedExtender
from repro.system.batching import best_thread_split
from repro.system.host import time_software_kernel
from repro.system.scheduler import (
    bwa_mem2_breakdown,
    bwa_mem_breakdown,
    figure17_table,
    model_configuration,
)


def _measure_software_seedex(jobs):
    """Wall-clock the w=5 software SeedEx against the full-band kernel.

    Timing goes through the span tracer (perf_counter underneath) so
    the same numbers land in the per-run metrics JSON the benchmark
    session dumps.
    """
    from repro import obs
    from repro.obs import names

    full = time_software_kernel(jobs, band=None)
    ext = SeedExtender(band=5)
    obs.enable()
    with obs.span(names.SPAN_EXTEND_BATCH, jobs=len(jobs)) as sp:
        for job in jobs:
            ext.extend(job.query, job.target, job.h0)
    seedex_time = sp.duration / len(jobs)
    return (
        full.seconds_per_extension / seedex_time,
        ext.stats.rerun_rate,
    )


def test_fig17_end_to_end(benchmark, timing_corpus):
    def run():
        kernel_speedup, rerun_fraction = _measure_software_seedex(
            timing_corpus
        )
        rows = figure17_table(
            rerun_fraction=rerun_fraction,
            software_kernel_speedup=max(1.0, kernel_speedup),
        )
        return kernel_speedup, rerun_fraction, rows

    kernel_speedup, rerun_fraction, rows = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    baselines = {
        "BWA-MEM": model_configuration(bwa_mem_breakdown(), "baseline"),
        "BWA-MEM2": model_configuration(bwa_mem2_breakdown(), "baseline"),
    }
    table_rows = []
    comparisons = []
    for result, reported in rows:
        speedup = result.speedup_over(baselines[result.aligner])
        table_rows.append(
            (
                result.aligner,
                result.configuration,
                f"{result.seeding_time:.3f}",
                f"{result.extension_time:.3f}",
                f"{result.other_time:.3f}",
                f"{result.rerun_time:.3f}",
                f"{speedup:.2f}x",
                f"{reported:.2f}x" if reported else "-",
            )
        )
        if reported:
            comparisons.append(
                PaperComparison(
                    f"{result.aligner} {result.configuration}",
                    reported,
                    speedup,
                )
            )
    print_table(
        "Figure 17 — end-to-end breakdown (normalized)",
        ("aligner", "config", "seed", "ext", "other", "rerun",
         "speedup", "paper"),
        table_rows,
    )
    comparison_table("Figure 17 — speedups", comparisons)
    print(
        f"\nmeasured software-SeedEx kernel speedup: {kernel_speedup:.2f}x"
        f" (paper: 1.14x); measured rerun fraction: {rerun_fraction:.1%}"
    )
    cfg, report = best_thread_split()
    print(
        f"best thread split: {cfg.seeding_threads}/{cfg.total_threads} "
        f"threads on seeding (paper: ~88%), bottleneck: "
        f"{report.bottleneck}"
    )
    from repro.system.events import simulate_timeline, threads_to_saturate

    k = threads_to_saturate()
    timeline = simulate_timeline(n_batches=60, fpga_threads=k)
    print(
        f"event-level protocol sim: {k} FPGA thread(s) keep the device "
        f"{timeline.fpga_utilization:.0%} busy; mean lock wait "
        f"{1e6 * timeline.mean_lock_wait:.0f} us/batch"
    )

    for c in comparisons:
        assert c.relative_error < 0.15, c.metric
    assert cfg.seeding_threads / cfg.total_threads >= 0.75
    assert timeline.fpga_utilization >= 0.95
