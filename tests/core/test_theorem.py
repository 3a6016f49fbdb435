"""The central property of the reproduction (paper Theorem 1 + Lemma 2):

    If the SeedEx checks accept a narrow-band extension, its result is
    bit-identical to the full-band run: same lscore, lpos, gscore, gpos.

Hypothesis hunts for counterexamples across sequences, seeds, scoring
schemes, bands, and check configurations.  Soundness must survive every
configuration — ablations may only trade passing rate.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import banded
from repro.align.scoring import BWA_MEM_SCORING, AffineGap
from repro.core.checker import CheckConfig, OptimalityChecker
from repro.core.extender import SeedExtender
from tests.helpers import mutate

SEQ = st.lists(st.integers(0, 3), min_size=1, max_size=24).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)

EDITS = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
)


def _assert_theorem(q, t, h0, w, scoring, config=None):
    checker = OptimalityChecker(scoring, config)
    narrow = banded.extend(q, t, scoring, h0, w=w)
    decision = checker.check(q, t, narrow)
    if decision.passed:
        full = banded.extend(q, t, scoring, h0)
        assert narrow.scores() == full.scores(), (
            f"accepted narrow-band result differs from full band: "
            f"{narrow.scores()} != {full.scores()} "
            f"(w={w}, h0={h0}, outcome={decision.outcome})"
        )


class TestTheorem:
    @settings(max_examples=250, deadline=None)
    @given(
        q=SEQ,
        t=SEQ,
        h0=st.integers(1, 50),
        w=st.integers(1, 10),
    )
    def test_random_pairs(self, q, t, h0, w):
        _assert_theorem(q, t, h0, w, BWA_MEM_SCORING)

    @settings(max_examples=250, deadline=None)
    @given(
        q=SEQ,
        edits=EDITS,
        seed=st.integers(0, 2**31),
        h0=st.integers(1, 50),
        w=st.integers(1, 10),
        extra=st.integers(0, 10),
    )
    def test_related_pairs(self, q, edits, seed, h0, w, extra):
        """Mutated copies are where case c actually fires."""
        rng = np.random.default_rng(seed)
        subs, ins, dels = edits
        t = mutate(q, rng, subs=subs, ins=ins, dels=dels)
        if extra:
            t = np.concatenate(
                [t, rng.integers(0, 4, size=extra)]
            ).astype(np.uint8)
        if len(t) == 0:
            t = q.copy()
        _assert_theorem(q, t, h0, w, BWA_MEM_SCORING)

    @settings(max_examples=120, deadline=None)
    @given(
        q=SEQ,
        t=SEQ,
        h0=st.integers(1, 40),
        w=st.integers(1, 8),
        go=st.integers(0, 8),
        ge=st.integers(1, 3),
        x=st.integers(1, 6),
    )
    def test_other_scoring_schemes(self, q, t, h0, w, go, ge, x):
        scoring = AffineGap(match=1, mismatch=x, gap_open=go, gap_extend=ge)
        _assert_theorem(q, t, h0, w, scoring)

    @settings(max_examples=120, deadline=None)
    @given(
        q=SEQ,
        t=SEQ,
        h0=st.integers(1, 40),
        w=st.integers(1, 8),
        exact_seed=st.booleans(),
    )
    def test_config_variants(self, q, t, h0, w, exact_seed):
        config = CheckConfig(exact_left_seed=exact_seed)
        _assert_theorem(q, t, h0, w, BWA_MEM_SCORING, config)


class TestExtenderContract:
    @settings(max_examples=150, deadline=None)
    @given(
        q=SEQ,
        t=SEQ,
        h0=st.integers(1, 50),
        w=st.integers(1, 10),
    )
    def test_output_always_full_band_equivalent(self, q, t, h0, w):
        """The SeedExtender's final answer never depends on the band."""
        ext = SeedExtender(band=w)
        out = ext.extend(q, t, h0)
        full = banded.extend(q, t, BWA_MEM_SCORING, h0)
        assert out.result.scores() == full.scores()

    def test_stats_accounting(self):
        rng = np.random.default_rng(31)
        ext = SeedExtender(band=5)
        jobs = []
        for _ in range(100):
            q = rng.integers(0, 4, size=20).astype(np.uint8)
            t = mutate(q, rng, subs=2, ins=1)
            jobs.append((q, t, 20))
        outs = ext.extend_batch(jobs)
        assert ext.stats.total == 100
        assert ext.stats.passed + ext.stats.reruns == 100
        assert sum(1 for o in outs if o.rerun) == ext.stats.reruns
        assert 0.0 <= ext.stats.passing_rate <= 1.0
        assert ext.stats.threshold_only_rate <= ext.stats.passing_rate
