"""Ablations of SeedEx design choices (DESIGN.md Section 5).

The paper fixes several design choices without isolating them; these
harnesses measure each one on the case-c-rich structural corpus:

* **E-score check attribution** — the paper never separates the
  E-score check from the edit-distance check; here each check's
  deciding role is counted.
* **Relaxed vs exact edit scoring** — the relaxed scheme's free
  insertions exist for the hardware (horizontal score propagation to
  a single augmentation unit); the ablation measures the pass-rate
  cost of that extra optimism against a sound exact-edit variant.
* **Left-seed variants** — exact per-row seeds (our sound default)
  vs the paper's constant-S1 corner seed.
* **BSW:edit core ratio** — the paper provisions 3:1 because roughly
  one extension in three visits the edit machine; the queueing model
  shows where other ratios saturate.
"""

import numpy as np

from repro import constants as paper
from repro.align import banded
from repro.align.editdp import BELOW, relaxed_sweep_reference
from repro.align.lockstep import LOCAL_EXTEND
from repro.align.scoring import BWA_MEM_SCORING, edit_scoring
from repro.analysis.passing import passing_point
from repro.analysis.report import print_table
from repro.core.checker import (
    CheckConfig,
    CheckOutcome,
    OptimalityChecker,
)
from repro.core.editcheck import edge_seeds
from repro.core.escore import score_max_e
from repro.core.thresholds import semiglobal_thresholds
from repro.hw import timing

BAND = paper.DEFAULT_BAND


def _exact_edit_bound(job, result):
    """A sound edit-check bound under *plain* edit scoring.

    Costly insertions break the rows-nondecreasing property, so the
    last column no longer bounds ends-anywhere paths; instead every
    cell pays the all-match continuation.  Sound, but it shows why the
    hardware (and our default) prefer the relaxed scheme's single
    readout column.
    """
    last_column = relaxed_sweep_reference(
        job.query,
        job.target,
        BAND,
        BELOW,
        LOCAL_EXTEND,
        edge_seeds(result, BWA_MEM_SCORING, BELOW),
        scoring=edit_scoring(),
    )
    return int(last_column.max(initial=0))


def test_ablation_check_attribution(benchmark, structural_jobs):
    def run():
        checker = OptimalityChecker(BWA_MEM_SCORING)
        counts: dict[CheckOutcome, int] = {}
        e_deciding = 0
        for job in structural_jobs:
            res = banded.extend(
                job.query, job.target, BWA_MEM_SCORING, job.h0, w=BAND
            )
            decision = checker.check(job.query, job.target, res)
            counts[decision.outcome] = counts.get(decision.outcome, 0) + 1
            if decision.outcome == CheckOutcome.PASS_CHECKS:
                # Would thresholding have needed the E-score check to
                # be decisive, or was the edit check the closer call?
                th = semiglobal_thresholds(
                    BWA_MEM_SCORING, res.qlen, res.tlen, BAND, res.h0
                )
                e_bound = score_max_e(res, BWA_MEM_SCORING)
                if e_bound >= decision.score_ed:
                    e_deciding += 1
        return counts, e_deciding

    counts, e_deciding = benchmark.pedantic(run, rounds=1, iterations=1)

    total = sum(counts.values())
    rows = [
        (outcome.name, n, f"{n / total:.1%}")
        for outcome, n in sorted(counts.items(), key=lambda kv: -kv[1])
    ]
    print_table(
        f"Ablation — outcome attribution at w={BAND}",
        ("outcome", "count", "share"),
        rows,
    )
    rescued = counts.get(CheckOutcome.PASS_CHECKS, 0)
    print(
        f"\nof {rescued} check-rescued extensions, the E-score bound "
        f"was the tighter (deciding) test for {e_deciding}"
    )
    assert rescued > 0


def test_ablation_edit_scoring_and_seeds(benchmark, structural_jobs):
    def run():
        base = passing_point(structural_jobs, BAND)
        paper_seed = passing_point(
            structural_jobs,
            BAND,
            config=CheckConfig(exact_left_seed=False),
        )
        no_edit = passing_point(
            structural_jobs,
            BAND,
            config=CheckConfig(use_edit_check=False),
        )

        # Exact-edit-scoring variant: rerun the edit check by hand on
        # the jobs the standard chain rescued or rejected at the edit
        # stage, and count how the stricter bound would have decided.
        checker = OptimalityChecker(BWA_MEM_SCORING)
        exact_pass = 0
        edit_stage = 0
        for job in structural_jobs:
            res = banded.extend(
                job.query, job.target, BWA_MEM_SCORING, job.h0, w=BAND
            )
            decision = checker.check(job.query, job.target, res)
            if decision.outcome in (
                CheckOutcome.PASS_CHECKS,
                CheckOutcome.FAIL_EDIT,
            ):
                edit_stage += 1
                if _exact_edit_bound(job, res) < res.gscore:
                    exact_pass += 1
        return base, paper_seed, no_edit, exact_pass, edit_stage

    base, paper_seed, no_edit, exact_pass, edit_stage = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )

    print_table(
        f"Ablation — check variants at w={BAND}",
        ("variant", "overall passing rate"),
        [
            ("full chain (relaxed, exact seeds)", f"{base.overall:.1%}"),
            ("paper corner-S1 seeds", f"{paper_seed.overall:.1%}"),
            ("edit check disabled", f"{no_edit.overall:.1%}"),
        ],
    )
    relaxed_pass = base.outcome_counts.get(CheckOutcome.PASS_CHECKS, 0)
    print(
        f"\nedit-stage jobs: {edit_stage}; admitted by relaxed scoring "
        f"{relaxed_pass}, by exact edit scoring {exact_pass}"
    )
    # The sound orderings: removing the edit check only loses; the
    # corner-S1 seed (in our sound half-matrix sweep) only loses.
    assert no_edit.overall <= base.overall + 1e-9
    assert paper_seed.overall <= base.overall + 1e-9
    # Exact edit scoring is tighter per-path but pays the generic
    # all-match exit bound; it must not admit more than relaxed.
    assert exact_pass <= relaxed_pass + edit_stage


def test_ablation_local_target(benchmark):
    """Beyond the paper: the local-score check target.

    Soft-clipped reads (adapter tails, chimeric ends) have a dead
    semi-global score, so the paper's workflow reruns all of them; the
    local target certifies the clip score itself.  This ablation
    quantifies the rescue on a clipped corpus, with the standard
    corpus shown for contrast (where the two targets should agree).
    """
    from repro.genome.sequence import random_sequence

    rng = np.random.default_rng(777)

    def make_clipped(n):
        jobs = []
        for _ in range(n):
            ref = random_sequence(220, rng)
            clip = int(rng.integers(20, 50))
            q = np.concatenate(
                [ref[:101 - clip], random_sequence(clip, rng)]
            ).astype(np.uint8)
            jobs.append((q, ref[:170], int(rng.integers(19, 31))))
        return jobs

    def run():
        clipped = make_clipped(150)
        results = {}
        for name, cfg in (
            ("semiglobal", CheckConfig()),
            ("local", CheckConfig(target="local")),
        ):
            checker = OptimalityChecker(BWA_MEM_SCORING, cfg)
            passed = 0
            for q, t, h0 in clipped:
                res = banded.extend(q, t, BWA_MEM_SCORING, h0, w=BAND)
                if checker.check(q, t, res).passed:
                    passed += 1
            results[name] = passed / len(clipped)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print_table(
        "Ablation — check target on a soft-clip corpus (w=41)",
        ("target", "passing rate"),
        [(k, f"{v:.1%}") for k, v in results.items()],
    )
    print("\nsemi-global (the paper's target) reruns nearly every "
          "clipped read; the local target certifies the clip score "
          "directly")
    assert results["semiglobal"] < 0.25
    assert results["local"] > 0.60
    assert results["local"] > results["semiglobal"] + 0.5


def test_ablation_core_ratio(benchmark, structural_jobs):
    def run():
        point = passing_point(structural_jobs, BAND)
        demand = point.edit_machine_demand
        rows = []
        for ratio in (1, 2, 3, 4, 6):
            util = timing.edit_machine_utilization(demand, ratio)
            rows.append((ratio, util))
        return demand, rows

    demand, rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print_table(
        "Ablation — BSW:edit core ratio (measured demand "
        f"{demand:.1%}; paper ~1/3)",
        ("BSW cores per edit machine", "edit-machine utilization"),
        [(r, f"{u:.0%}") for r, u in rows],
    )
    max_ratio = timing.max_bsw_per_edit(demand)
    print(f"\nlargest non-saturating ratio: {max_ratio}:1 "
          "(paper provisions 3:1)")

    util = dict(rows)
    assert util[1] < util[3] < util[6]
    # At the paper's measured ~1/3 demand, 3:1 sits at the knee; our
    # corpus's demand must keep 3:1 under saturation or just at it.
    assert util[3] <= 1.2
