"""Tests for the BSW core / SeedEx core / accelerator hierarchy."""

import numpy as np
import pytest

from repro.align import banded
from repro.align.scoring import BWA_MEM_SCORING
from repro.core.checker import CheckOutcome
from repro.genome.synth import ExtensionJob, extension_corpus
from repro.hw.accelerator import AcceleratorConfig, SeedExAccelerator
from repro.hw.bsw_core import BSWCore
from repro.hw.seedex_core import SeedExCore


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(77)
    return extension_corpus(
        120, rng, query_length=60, reference_length=60_000
    )


class TestBSWCore:
    def test_fast_and_cycle_modes_agree(self, corpus):
        fast = BSWCore(8, BWA_MEM_SCORING, mode="fast")
        cyc = BSWCore(8, BWA_MEM_SCORING, mode="cycle")
        for job in corpus[:10]:
            a = fast.run(job.query, job.target, job.h0)
            b = cyc.run(job.query, job.target, job.h0)
            if not b.exception:
                assert a.result.scores() == b.result.scores()

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            BSWCore(8, BWA_MEM_SCORING, mode="turbo")

    def test_busy_cycles_accumulate(self, corpus):
        core = BSWCore(8, BWA_MEM_SCORING)
        for job in corpus[:5]:
            core.run(job.query, job.target, job.h0)
        assert core.jobs == 5
        assert core.busy_cycles > 0


class TestSeedExCore:
    def test_round_robin_across_bsw_cores(self, corpus):
        core = SeedExCore(band=10)
        for job in corpus[:9]:
            core.process(job)
        assert [c.jobs for c in core.bsw_cores] == [3, 3, 3]

    def test_accepted_results_are_optimal(self, corpus):
        core = SeedExCore(band=10)
        for out in map(core.process, corpus):
            if out.accepted:
                full = banded.extend(
                    out.job.query,
                    out.job.target,
                    BWA_MEM_SCORING,
                    out.job.h0,
                )
                assert out.result.scores() == full.scores()

    def test_telemetry_consistency(self, corpus):
        core = SeedExCore(band=10)
        for job in corpus:
            core.process(job)
        t = core.telemetry
        assert t.jobs == len(corpus)
        assert t.accepted + t.rerun == t.jobs
        assert sum(t.outcome_counts.values()) == t.jobs
        edit_visits = t.outcome_counts.get(
            CheckOutcome.PASS_CHECKS, 0
        ) + t.outcome_counts.get(CheckOutcome.FAIL_EDIT, 0)
        assert t.edit_machine_jobs == edit_visits


class TestAccelerator:
    def test_final_results_always_optimal(self, corpus):
        acc = SeedExAccelerator(AcceleratorConfig(band=10))
        report = acc.run(corpus)
        for idx, job in enumerate(corpus):
            full = banded.extend(
                job.query, job.target, BWA_MEM_SCORING, job.h0
            )
            final = report.rerun_results.get(idx, report.outputs[idx].result)
            assert final.scores() == full.scores()

    def test_throughput_positive_and_prefetch_hidden(self, corpus):
        acc = SeedExAccelerator()
        report = acc.run(corpus, rerun_on_host=False)
        assert report.throughput_ext_per_s > 0
        assert report.prefetch_hidden  # 40-cycle AXI < ~100-cycle job

    def test_rerun_fraction_matches_outputs(self, corpus):
        acc = SeedExAccelerator(AcceleratorConfig(band=10))
        report = acc.run(corpus)
        failed = sum(1 for o in report.outputs if not o.accepted)
        assert report.rerun_fraction == failed / len(corpus)
        assert len(report.rerun_results) == failed

    def test_device_shape(self):
        cfg = AcceleratorConfig()
        assert cfg.n_cores == 12
        assert cfg.n_bsw_cores == 36
        acc = SeedExAccelerator(cfg)
        assert len(acc.cores) == 12

    def test_io_path_does_not_change_results(self, corpus):
        """Routing jobs through the memory-line pack/arbiter/unpack
        path must be invisible to the compute results."""
        plain = SeedExAccelerator(AcceleratorConfig(band=10)).run(
            corpus[:40], rerun_on_host=False
        )
        through_io = SeedExAccelerator(AcceleratorConfig(band=10)).run(
            corpus[:40], rerun_on_host=False, model_io=True
        )
        for a, b in zip(plain.outputs, through_io.outputs):
            assert a.result.scores() == b.result.scores()
            assert a.accepted == b.accepted
