"""Workflow tests for the Figure 6 checker state machine."""

import numpy as np

from repro.align import banded
from repro.align.scoring import BWA_MEM_SCORING
from repro.core.checker import CheckConfig, CheckOutcome, OptimalityChecker
from repro.genome.sequence import encode, random_sequence
from tests.helpers import related_pair


def run_check(q, t, h0, w, config=None):
    checker = OptimalityChecker(BWA_MEM_SCORING, config)
    res = banded.extend(q, t, BWA_MEM_SCORING, h0, w=w)
    return checker.check(q, t, res), res


class TestOutcomes:
    def test_clean_match_passes_s2(self):
        q = encode("ACGTACGTACGTACGTACGT")
        t = encode("ACGTACGTACGTACGTACGTAC")
        decision, _ = run_check(q, t, 25, 5)
        assert decision.outcome == CheckOutcome.PASS_S2
        assert decision.passed

    def test_dead_extension_fails(self):
        q = encode("AAAAAAAAAA")
        t = encode("TTTTTTTTTTTT")
        decision, _ = run_check(q, t, 3, 3)
        assert decision.outcome in (
            CheckOutcome.FAIL_DEAD,
            CheckOutcome.FAIL_S1,
        )
        assert decision.needs_rerun

    def test_distant_alignment_fails_checks(self):
        q = encode("ACGTACGTAC")
        t = encode("GGGGGGGG" + "ACGTACGTAC")
        decision, _ = run_check(q, t, 30, 2)
        assert decision.needs_rerun

    def test_checks_rescue_case_c(self):
        rng = np.random.default_rng(21)
        rescued = 0
        for _ in range(200):
            q, t = related_pair(
                rng, 24, extra_target=6, subs=2, ins=1, dels=1
            )
            decision, _ = run_check(q, t, 20, 6)
            if decision.outcome == CheckOutcome.PASS_CHECKS:
                rescued += 1
        assert rescued > 0

    def test_deep_deletion_is_rescued(self):
        """The canonical case-c input — a band-deep deletion right after
        the seed with a clean suffix — must pass via the checks, not a
        rerun (this is the scenario the edit machine exists for)."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            q = random_sequence(40, rng)
            t = np.concatenate(
                [q[:3], random_sequence(10, rng), q[3:],
                 random_sequence(5, rng)]
            ).astype(np.uint8)
            decision, _ = run_check(q, t, 30, 10)
            assert decision.outcome == CheckOutcome.PASS_CHECKS


class TestConfigAblations:
    def test_disabling_escore_forces_rerun_in_case_c(self):
        rng = np.random.default_rng(22)
        cfg = CheckConfig(use_escore=False)
        saw_case_c = False
        for _ in range(200):
            q, t = related_pair(rng, 24, extra_target=6, subs=2, dels=1)
            decision, _ = run_check(q, t, 20, 6, cfg)
            if decision.outcome == CheckOutcome.FAIL_ESCORE:
                saw_case_c = True
                assert decision.score_max_e is None
        assert saw_case_c

    def test_disabling_edit_check_forces_rerun_after_escore(self):
        rng = np.random.default_rng(23)
        cfg = CheckConfig(use_edit_check=False)
        base = CheckConfig()
        downgraded = 0
        for _ in range(200):
            q, t = related_pair(rng, 24, extra_target=6, subs=2, dels=1)
            with_edit, _ = run_check(q, t, 20, 6, base)
            without, _ = run_check(q, t, 20, 6, cfg)
            if with_edit.outcome == CheckOutcome.PASS_CHECKS:
                assert without.outcome == CheckOutcome.FAIL_EDIT
                downgraded += 1
            if with_edit.outcome == CheckOutcome.PASS_S2:
                assert without.outcome == CheckOutcome.PASS_S2
        assert downgraded > 0

    def test_ablations_never_accept_more(self):
        """Disabling checks can only reduce the accept set."""
        rng = np.random.default_rng(24)
        weak = CheckConfig(use_escore=False, use_edit_check=False)
        for _ in range(150):
            q, t = related_pair(rng, 20, extra_target=5, subs=2, ins=1)
            full_cfg, _ = run_check(q, t, 18, 5)
            weak_cfg, _ = run_check(q, t, 18, 5, weak)
            if weak_cfg.passed:
                assert full_cfg.passed


class TestDecisionRecord:
    def test_records_intermediate_scores(self):
        rng = np.random.default_rng(25)
        seen_full_record = False
        for _ in range(300):
            q, t = related_pair(rng, 24, extra_target=6, subs=2, dels=1)
            decision, _ = run_check(q, t, 20, 6)
            if decision.outcome == CheckOutcome.PASS_CHECKS:
                assert decision.score_max_e is not None
                assert decision.score_ed is not None
                assert decision.score_max_e < decision.score_nb
                assert decision.score_ed < decision.score_nb
                seen_full_record = True
        assert seen_full_record

    def test_pass_s2_skips_downstream_checks(self):
        q = encode("ACGTACGTACGTACGTACGT")
        t = encode("ACGTACGTACGTACGTACGTAC")
        decision, _ = run_check(q, t, 25, 5)
        assert decision.score_max_e is None
        assert decision.score_ed is None


class TestBackendIndependence:
    def test_checker_ignores_kernel_environment(self, monkeypatch):
        """No backend is read from the environment: with a bogus
        ``REPRO_KERNEL`` set, ``get_kernel()`` still resolves the
        default, and the checker, which never extends, still checks."""
        from repro.kernels import get_kernel

        monkeypatch.setenv("REPRO_KERNEL", "bogus")
        assert get_kernel().name == "scalar"
        rng = np.random.default_rng(42)
        q = random_sequence(40, rng)
        t = np.concatenate(
            [q[:3], random_sequence(10, rng), q[3:], random_sequence(5, rng)]
        ).astype(np.uint8)
        res = banded.extend(q, t, BWA_MEM_SCORING, 30, w=10)
        decision = OptimalityChecker(BWA_MEM_SCORING).check(q, t, res)
        # Case c: thresholds, the E-score and the edit sweep all ran.
        assert decision.outcome == CheckOutcome.PASS_CHECKS
