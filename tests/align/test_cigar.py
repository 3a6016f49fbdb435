"""Unit tests for CIGAR handling."""

import pytest

from repro.align.cigar import Cigar


class TestConstruction:
    def test_from_ops_merges_adjacent(self):
        c = Cigar.from_ops([(3, "M"), (2, "M"), (1, "I"), (4, "M")])
        assert str(c) == "5M1I4M"

    def test_from_ops_drops_zero_runs(self):
        c = Cigar.from_ops([(3, "M"), (0, "I"), (2, "M")])
        assert str(c) == "5M"

    def test_rejects_invalid_op(self):
        with pytest.raises(ValueError):
            Cigar(((3, "Z"),))

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            Cigar(((0, "M"),))


class TestParsing:
    def test_roundtrip(self):
        for text in ("101M", "50M1I50M", "10S90M", "3M2D4M1I2M"):
            assert str(Cigar.parse(text)) == text

    def test_star_is_empty(self):
        assert Cigar.parse("*").ops == ()
        assert str(Cigar(())) == "*"

    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            Cigar.parse("M10")
        with pytest.raises(ValueError):
            Cigar.parse("10M5")


class TestLengths:
    def test_query_and_reference_lengths(self):
        c = Cigar.parse("5S10M2I3D7M")
        assert c.query_length == 5 + 10 + 2 + 7
        assert c.reference_length == 10 + 3 + 7


class TestReversed:
    def test_reversed_order(self):
        c = Cigar.parse("3M1I2M")
        assert str(c.reversed()) == "2M1I3M"

    def test_reversed_is_involution(self):
        c = Cigar.parse("10S5M2D1M")
        assert c.reversed().reversed() == c
