"""Tests for paired-end alignment and mate rescue."""

import numpy as np
import pytest

from repro.align.cigar import Cigar
from repro.aligner.engines import make_engine
from repro.aligner.paired import (
    FLAG_FIRST,
    FLAG_MATE_REVERSE,
    FLAG_MATE_UNMAPPED,
    FLAG_PAIRED,
    FLAG_PROPER,
    FLAG_SECOND,
    InsertSizeModel,
    PairedAligner,
    ReadPair,
    _find_exact,
    simulate_pairs,
)
from repro.genome.synth import synthesize_reference


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(17)
    reference = synthesize_reference(60_000, rng)
    pairs = simulate_pairs(reference, 20, rng)
    return reference, pairs, rng


class TestInsertModel:
    def test_window(self):
        model = InsertSizeModel(mean=400, std=50, max_deviation=4)
        assert model.window == (200, 600)
        assert model.is_proper(400)
        assert model.is_proper(200)
        assert not model.is_proper(199)
        assert not model.is_proper(601)


class TestSimulation:
    def test_truth_positions(self, setup):
        reference, pairs, _ = setup
        from repro.genome.sequence import reverse_complement

        model = InsertSizeModel()
        for pair, p1, p2 in pairs:
            insert = p2 + len(pair.second) - p1
            assert model.is_proper(insert) or insert >= 2 * 101 + 10
            # Mate 2 is reverse-complemented in the pair record.
            fwd2 = reverse_complement(pair.second)
            window = reference[p2 : p2 + len(fwd2)]
            mismatches = int((fwd2 != window).sum())
            assert mismatches <= 10  # substitutions only

    def test_short_reference_rejected(self):
        rng = np.random.default_rng(0)
        ref = synthesize_reference(300, rng)
        with pytest.raises(ValueError):
            simulate_pairs(ref, 1, rng)


class TestPairing:
    def test_most_pairs_proper_with_exact_positions(self, setup):
        reference, pairs, _ = setup
        pa = PairedAligner(reference, make_engine("full"))
        proper = positions = 0
        for pair, p1, p2 in pairs:
            r1, r2 = pa.align_pair(pair)
            proper += bool(r1.flag & FLAG_PROPER)
            positions += (r1.pos == p1) + (r2.pos == p2)
        assert proper >= len(pairs) - 2
        assert positions >= 2 * len(pairs) - 4

    def test_flags_are_consistent(self, setup):
        reference, pairs, _ = setup
        pa = PairedAligner(reference, make_engine("full"))
        r1, r2 = pa.align_pair(pairs[0][0])
        assert r1.flag & FLAG_PAIRED and r2.flag & FLAG_PAIRED
        assert r1.flag & FLAG_FIRST
        assert r2.flag & FLAG_SECOND
        assert bool(r1.flag & FLAG_PROPER) == bool(r2.flag & FLAG_PROPER)
        if r2.is_reverse:
            assert r1.flag & FLAG_MATE_REVERSE
        # FR library: mates on opposite strands.
        assert r1.is_reverse != r2.is_reverse

    def test_tlen_symmetry(self, setup):
        reference, pairs, _ = setup
        pa = PairedAligner(reference, make_engine("full"))
        r1, r2 = pa.align_pair(pairs[1][0])
        tl1 = int(dict(t.split(":i:") for t in r1.tags if "TL" in t)["TL"])
        tl2 = int(dict(t.split(":i:") for t in r2.tags if "TL" in t)["TL"])
        assert tl1 == -tl2
        assert abs(tl1) > 0

    def test_seedex_engine_gives_same_pairs_as_full(self, setup):
        reference, pairs, _ = setup
        pa_full = PairedAligner(reference, make_engine("full"))
        pa_sx = PairedAligner(reference, make_engine("seedex", 11))
        for pair, _, _ in pairs[:8]:
            a1, a2 = pa_full.align_pair(pair)
            b1, b2 = pa_sx.align_pair(pair)
            assert a1.to_line() == b1.to_line()
            assert a2.to_line() == b2.to_line()


class TestMateRescue:
    def test_corrupted_mate_is_rescued(self, setup):
        reference, pairs, rng = setup
        pa = PairedAligner(reference, make_engine("seedex", 41))
        placed = 0
        for pair, p1, p2 in pairs:
            bad = pair.second.copy()
            sites = rng.choice(len(bad), size=9, replace=False)
            bad[sites] = (bad[sites] + rng.integers(1, 4, size=9)) % 4
            r1, r2 = pa.align_pair(ReadPair(pair.name, pair.first, bad))
            if not r2.is_unmapped and abs(r2.pos - p2) <= 30:
                placed += 1
        assert placed >= len(pairs) - 3
        assert pa.stats.rescued > 0

    def test_rescued_record_has_marker_tag(self, setup):
        reference, pairs, rng = setup
        pa = PairedAligner(reference, make_engine("full"))
        rescued_seen = False
        for pair, _, p2 in pairs:
            bad = pair.second.copy()
            sites = rng.choice(len(bad), size=10, replace=False)
            bad[sites] = (bad[sites] + rng.integers(1, 4, size=10)) % 4
            solo = pa.aligner.align_read(bad, "probe")
            if not solo.is_unmapped:
                continue
            _, r2 = pa.align_pair(ReadPair(pair.name, pair.first, bad))
            if not r2.is_unmapped:
                assert any(t == "XR:i:1" for t in r2.tags)
                assert Cigar.parse(r2.cigar).query_length == len(bad)
                rescued_seen = True
        assert rescued_seen

    def test_hopeless_mate_stays_unmapped(self, setup):
        reference, pairs, _ = setup
        rng = np.random.default_rng(123)
        pa = PairedAligner(reference, make_engine("full"))
        junk = rng.integers(0, 4, size=101).astype(np.uint8)
        pair, _, _ = pairs[0]
        r1, r2 = pa.align_pair(ReadPair(pair.name, pair.first, junk))
        assert r2.is_unmapped or r2.mapq == 0
        if r2.is_unmapped:
            assert r1.flag & FLAG_MATE_UNMAPPED


class TestFindExact:
    def test_finds_all_occurrences(self):
        window = np.array([0, 1, 2, 0, 1, 2, 0, 1], dtype=np.uint8)
        probe = np.array([0, 1], dtype=np.uint8)
        assert _find_exact(window, probe) == [0, 3, 6]

    def test_probe_longer_than_window(self):
        assert _find_exact(
            np.zeros(3, dtype=np.uint8), np.zeros(5, dtype=np.uint8)
        ) == []
