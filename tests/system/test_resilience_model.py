"""Host-kernel guards and the fault-adjusted rerun-budget model."""

import numpy as np
import pytest

from repro.genome.synth import ExtensionJob
from repro.system.host import (
    RerunBudget,
    fault_adjusted_rerun_fraction,
    time_software_kernel,
)


def _jobs(n=3):
    rng = np.random.default_rng(0)
    out = []
    for _ in range(n):
        q = rng.integers(0, 4, size=40).astype(np.uint8)
        out.append(ExtensionJob(query=q, target=q.copy(), h0=10))
    return out


class TestKernelGuards:
    def test_empty_job_list_rejected(self):
        with pytest.raises(ValueError, match="at least one job"):
            time_software_kernel([], band=5)

    def test_zero_repeats_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            time_software_kernel(_jobs(), band=5, repeats=0)

    def test_negative_repeats_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            time_software_kernel(_jobs(), band=5, repeats=-2)

    def test_zero_band_rejected(self):
        with pytest.raises(ValueError, match="band"):
            time_software_kernel(_jobs(), band=0)

    def test_none_band_means_full_band(self):
        timing = time_software_kernel(_jobs(), band=None)
        assert timing.band == -1
        assert timing.seconds_per_extension > 0

    def test_valid_call_still_works(self):
        timing = time_software_kernel(_jobs(), band=5, repeats=2)
        assert timing.band == 5
        assert timing.seconds_per_extension > 0


class TestFaultAdjustedRerunFraction:
    def test_zero_fault_rate_is_identity(self):
        assert fault_adjusted_rerun_fraction(0.02, 0.0, 3) == 0.02

    def test_known_value(self):
        # base 2%, 10% faults, 1 retry: escalation = 0.1^2 = 1%.
        got = fault_adjusted_rerun_fraction(0.02, 0.1, 1)
        assert got == pytest.approx(0.02 + 0.98 * 0.01)

    def test_monotone_in_fault_rate(self):
        vals = [
            fault_adjusted_rerun_fraction(0.02, f, 2)
            for f in (0.0, 0.01, 0.1, 0.5)
        ]
        assert vals == sorted(vals)

    def test_more_retries_absorb_more_faults(self):
        worse = fault_adjusted_rerun_fraction(0.02, 0.2, 0)
        better = fault_adjusted_rerun_fraction(0.02, 0.2, 4)
        assert better < worse

    def test_never_exceeds_one(self):
        assert fault_adjusted_rerun_fraction(1.0, 0.9, 0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            fault_adjusted_rerun_fraction(-0.1, 0.1, 1)
        with pytest.raises(ValueError):
            fault_adjusted_rerun_fraction(0.02, 1.0, 1)
        with pytest.raises(ValueError):
            fault_adjusted_rerun_fraction(0.02, 0.1, -1)


class TestRerunBudgetWithFaults:
    def _budget(self, fraction=0.02):
        return RerunBudget(
            rerun_fraction=fraction,
            host_threads=8,
            full_band_seconds_per_extension=1e-4,
            fpga_throughput_ext_per_s=1e6,
        )

    def test_with_faults_grows_demand(self):
        base = self._budget()
        faulted = base.with_faults(fault_rate=0.3, max_retries=0)
        assert faulted.rerun_fraction > base.rerun_fraction
        assert (
            faulted.rerun_demand_ext_per_s > base.rerun_demand_ext_per_s
        )

    def test_faults_can_break_the_overlap(self):
        base = self._budget()
        assert base.host_keeps_up
        flaky = base.with_faults(fault_rate=0.5, max_retries=0)
        assert not flaky.host_keeps_up
        assert flaky.overhead_fraction > 0

    def test_zero_rate_is_noop(self):
        base = self._budget()
        assert base.with_faults(0.0, 3).rerun_fraction == (
            base.rerun_fraction
        )


class TestSchedulerFaultModel:
    def test_defaults_unchanged(self):
        from repro.system.scheduler import (
            bwa_mem_breakdown,
            model_configuration,
        )

        b = bwa_mem_breakdown()
        clean = model_configuration(b, "seedex-fpga")
        explicit = model_configuration(
            b, "seedex-fpga", fault_rate=0.0, max_retries=3
        )
        assert clean.total == explicit.total

    def test_faults_slow_the_accelerated_configs(self):
        from repro.system.scheduler import (
            bwa_mem_breakdown,
            model_configuration,
        )

        b = bwa_mem_breakdown()
        clean = model_configuration(b, "seedex-fpga")
        faulty = model_configuration(
            b, "seedex-fpga", fault_rate=0.2, max_retries=1
        )
        assert faulty.total > clean.total
        assert faulty.rerun_time > clean.rerun_time
        assert faulty.extension_time > clean.extension_time
