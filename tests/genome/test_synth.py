"""Tests for the synthetic genome and read simulator."""

import numpy as np
import pytest

from repro.genome.synth import (
    CLEAN,
    PLATINUM_LIKE,
    ReadProfile,
    ReadSimulator,
    extension_corpus,
    synthesize_reference,
)


class TestReference:
    def test_length_and_alphabet(self):
        rng = np.random.default_rng(0)
        ref = synthesize_reference(10_000, rng)
        assert len(ref) == 10_000
        assert ref.max() <= 3

    def test_rejects_empty(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            synthesize_reference(0, rng)

    def test_repeats_are_planted(self):
        rng = np.random.default_rng(1)
        ref = synthesize_reference(
            50_000, rng, repeat_fraction=0.2, repeat_length=500
        )
        # A 500-long window should appear twice somewhere; count exact
        # duplicate 100-mers as a proxy.
        view = ref[: 49_900]
        kmers = {}
        dup = 0
        step = 50
        for i in range(0, len(view) - 100, step):
            key = bytes(view[i : i + 100])
            dup += key in kmers
            kmers[key] = i
        assert dup > 0

    def test_deterministic_given_rng_seed(self):
        a = synthesize_reference(5_000, np.random.default_rng(7))
        b = synthesize_reference(5_000, np.random.default_rng(7))
        assert (a == b).all()


class TestReadSimulator:
    def _sim(self, profile, n=200, seed=0):
        rng = np.random.default_rng(123)
        ref = synthesize_reference(100_000, rng)
        return ref, ReadSimulator(ref, profile, seed=seed).simulate(n)

    def test_read_length(self):
        _, reads = self._sim(PLATINUM_LIKE)
        assert all(len(r.codes) == 101 for r in reads)

    def test_clean_reads_match_reference(self):
        ref, reads = self._sim(CLEAN, n=50)
        from repro.genome.sequence import reverse_complement

        for r in reads:
            codes = reverse_complement(r.codes) if r.reverse else r.codes
            window = ref[r.true_pos : r.true_pos + len(codes)]
            assert (codes == window).all()
            assert r.substitutions == r.insertions == r.deletions == 0

    def test_error_rates_in_expected_range(self):
        _, reads = self._sim(PLATINUM_LIKE, n=2000)
        subs = np.mean([r.substitutions for r in reads])
        assert 0.5 < subs < 2.0  # ~1% of 101bp
        large = sum(1 for r in reads if r.indel_span >= 8)
        assert 10 <= large <= 80  # ~2% of 2000

    def test_both_strands_sampled(self):
        _, reads = self._sim(PLATINUM_LIKE, n=200)
        rev = sum(r.reverse for r in reads)
        assert 50 < rev < 150

    def test_rejects_tiny_reference(self):
        rng = np.random.default_rng(0)
        ref = synthesize_reference(50, rng)
        with pytest.raises(ValueError):
            ReadSimulator(ref, PLATINUM_LIKE)

    def test_names_unique(self):
        _, reads = self._sim(PLATINUM_LIKE, n=100)
        assert len({r.name for r in reads}) == 100


class TestExtensionCorpus:
    def test_shape_and_h0(self):
        rng = np.random.default_rng(5)
        jobs = extension_corpus(50, rng, query_length=60)
        assert len(jobs) == 50
        for job in jobs:
            assert len(job.query) == 60
            assert len(job.target) >= 60
            assert 19 <= job.h0 < 40

    def test_queries_align_to_targets(self):
        """Most corpus jobs should extend cleanly against their target."""
        from repro.align import banded
        from repro.align.scoring import BWA_MEM_SCORING

        rng = np.random.default_rng(6)
        jobs = extension_corpus(40, rng, query_length=60)
        good = 0
        for job in jobs:
            res = banded.extend(job.query, job.target, BWA_MEM_SCORING, job.h0)
            if res.gscore > job.h0 + len(job.query) // 2:
                good += 1
        assert good > 25


class TestLongReadLengthSpread:
    def _reads(self, sd, seed=21):
        from repro.genome.synth import LongReadProfile, simulate_long_reads

        rng = np.random.default_rng(seed)
        ref = synthesize_reference(30_000, rng)
        profile = LongReadProfile(read_length=1000, length_sd=sd)
        return simulate_long_reads(ref, 12, rng, profile)

    def test_zero_sd_keeps_fixed_lengths(self):
        reads = self._reads(0.0)
        # Indel errors move individual lengths a little, but the
        # sampled fragment is always exactly read_length.
        assert all(abs(len(r.codes) - 1000) < 120 for r in reads)

    def test_zero_sd_preserves_legacy_rng_stream(self):
        """``length_sd=0`` must not draw from the rng at all — seeded
        corpora generated before the knob existed stay bit-identical."""
        from repro.genome.synth import LongReadProfile, simulate_long_reads

        rng1 = np.random.default_rng(33)
        ref1 = synthesize_reference(30_000, rng1)
        legacy = simulate_long_reads(ref1, 6, rng1)
        rng2 = np.random.default_rng(33)
        ref2 = synthesize_reference(30_000, rng2)
        explicit = simulate_long_reads(
            ref2, 6, rng2, LongReadProfile(length_sd=0.0)
        )
        assert len(legacy) == len(explicit)
        for a, b in zip(legacy, explicit):
            assert a.true_pos == b.true_pos
            np.testing.assert_array_equal(a.codes, b.codes)

    def test_positive_sd_spreads_lengths(self):
        reads = self._reads(300.0)
        lengths = [len(r.codes) for r in reads]
        assert max(lengths) - min(lengths) > 200
        assert all(n >= 250 for n in lengths)  # floor at 300 pre-indel

    def test_deterministic_given_seed(self):
        a = self._reads(250.0, seed=8)
        b = self._reads(250.0, seed=8)
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.codes, rb.codes)


class TestFragmentCorpus:
    def _frags(self, **kw):
        from repro.genome.synth import fragment_corpus

        rng = np.random.default_rng(13)
        ref = synthesize_reference(5_000, rng)
        return ref, fragment_corpus(ref, rng, **kw)

    def test_tiling_geometry(self):
        ref, frags = self._frags(length=300, step=220)
        assert len(frags) == (len(ref) - 300) // 220 + 1
        for k, frag in enumerate(frags):
            assert frag.true_pos == k * 220
            assert len(frag.codes) == 300
            assert frag.name == f"frag{k:05d}"

    def test_fragments_match_reference_closely(self):
        ref, frags = self._frags(
            length=300, step=220, substitution_rate=0.01
        )
        for frag in frags:
            window = ref[frag.true_pos : frag.true_pos + 300]
            mismatches = int((frag.codes != window).sum())
            assert mismatches <= 12

    def test_count_caps_fragments(self):
        _, frags = self._frags(length=300, step=220, count=3)
        assert len(frags) == 3

    def test_bad_step_rejected(self):
        import pytest as _pytest

        from repro.genome.synth import fragment_corpus

        rng = np.random.default_rng(0)
        ref = synthesize_reference(2_000, rng)
        with _pytest.raises(ValueError):
            fragment_corpus(ref, rng, length=200, step=0)
        with _pytest.raises(ValueError):
            fragment_corpus(ref, rng, length=200, step=250)
