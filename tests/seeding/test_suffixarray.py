"""Tests for suffix array construction and search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genome.sequence import encode, random_sequence
from repro.seeding.suffixarray import (
    build_suffix_array,
    sa_interval,
)

SEQ = st.lists(st.integers(0, 3), min_size=1, max_size=40).map(
    lambda xs: np.array(xs, dtype=np.uint8)
)


def naive_suffix_array(text):
    # Sentinel-first convention: chr(1) sorts below 'A'..'D'.
    s = "".join(chr(65 + int(c)) for c in text) + chr(1)
    return sorted(range(len(text)), key=lambda i: s[i:])


class TestConstruction:
    def test_empty(self):
        assert build_suffix_array(np.zeros(0, dtype=np.uint8)).size == 0

    def test_single(self):
        assert list(build_suffix_array(np.array([2]))) == [0]

    def test_known(self):
        # "banana" pattern over DNA: ACGCGC
        text = encode("ACGCGC")
        assert list(build_suffix_array(text)) == naive_suffix_array(text)

    @settings(max_examples=200, deadline=None)
    @given(text=SEQ)
    def test_matches_naive(self, text):
        assert list(build_suffix_array(text)) == naive_suffix_array(text)

    def test_rejects_negative_codes(self):
        with pytest.raises(ValueError):
            build_suffix_array(np.array([-1, 2]))

    def test_large_random(self):
        rng = np.random.default_rng(0)
        text = random_sequence(5000, rng)
        sa = build_suffix_array(text)
        assert sorted(sa) == list(range(5000))
        # Spot-check sortedness at a few adjacent pairs.
        for k in range(0, 4999, 517):
            a, b = int(sa[k]), int(sa[k + 1])
            sa_str = bytes(text[a:]) + b"\x00"
            sb_str = bytes(text[b:]) + b"\x00"
            assert sa_str <= sb_str


class TestSearch:
    @settings(max_examples=100, deadline=None)
    @given(text=SEQ, data=st.data())
    def test_interval_finds_all_occurrences(self, text, data):
        sa = build_suffix_array(text)
        m = data.draw(st.integers(1, min(6, len(text))))
        start = data.draw(st.integers(0, len(text) - m))
        pat = text[start : start + m]
        lo, hi = sa_interval(text, sa, pat)
        expect = [
            i
            for i in range(len(text) - m + 1)
            if (text[i : i + m] == pat).all()
        ]
        assert sorted(int(sa[k]) for k in range(lo, hi)) == expect

    def test_absent_pattern_empty_interval(self):
        text = encode("AAAA")
        sa = build_suffix_array(text)
        lo, hi = sa_interval(text, sa, encode("T"))
        assert lo == hi
