"""Unit and property tests for DNA sequence encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genome.sequence import (
    AMBIGUOUS_CODE,
    decode,
    encode,
    hamming,
    pack_2bit,
    pack_3bit,
    random_sequence,
    reverse_complement,
    unpack_2bit,
)

DNA = st.text(alphabet="ACGTN", min_size=0, max_size=50)
PURE_DNA = st.text(alphabet="ACGT", min_size=0, max_size=50)


class TestEncodeDecode:
    def test_known_codes(self):
        assert list(encode("ACGTN")) == [0, 1, 2, 3, AMBIGUOUS_CODE]

    def test_lowercase_accepted(self):
        assert list(encode("acgt")) == [0, 1, 2, 3]

    def test_invalid_character_rejected(self):
        with pytest.raises(ValueError, match="invalid DNA"):
            encode("ACGX")

    @settings(max_examples=100)
    @given(s=DNA)
    def test_roundtrip(self, s):
        assert decode(encode(s)) == s

    @pytest.mark.parametrize(
        "s", ["", "N", "NNNN", "ACGTN", "nacgt", "TTTTTTTTNA"]
    )
    def test_roundtrip_with_n_and_empty(self, s):
        assert decode(encode(s)) == s.upper()

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_decode_any_integer_array(self, dtype):
        assert decode(np.array([], dtype=dtype)) == ""
        assert decode(np.array([4, 0, 1, 2, 3, 4], dtype=dtype)) == "NACGTN"
        assert decode([3, 4]) == "TN"

    def test_decode_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            decode(np.array([9], dtype=np.uint8))


class TestReverseComplement:
    def test_known(self):
        def rc(s):
            return decode(reverse_complement(encode(s)))

        assert rc("ACGT") == "ACGT"
        assert rc("AACC") == "GGTT"
        assert rc("AN") == "NT"

    @settings(max_examples=100)
    @given(s=DNA)
    def test_involution(self, s):
        codes = encode(s)
        assert decode(reverse_complement(reverse_complement(codes))) == s


class TestPacking:
    @settings(max_examples=100)
    @given(s=PURE_DNA)
    def test_2bit_roundtrip(self, s):
        codes = encode(s)
        packed = pack_2bit(codes)
        assert packed.size == (len(s) + 3) // 4
        assert (unpack_2bit(packed, len(s)) == codes).all()

    def test_2bit_rejects_ambiguous(self):
        with pytest.raises(ValueError):
            pack_2bit(encode("ACGN"))

    def test_unpack_length_guard(self):
        packed = pack_2bit(encode("ACGT"))
        with pytest.raises(ValueError):
            unpack_2bit(packed, 5)

    def test_3bit_range_guard(self):
        pack_3bit(np.array([0, 7], dtype=np.uint8))
        with pytest.raises(ValueError):
            pack_3bit(np.array([8], dtype=np.uint8))


class TestUtilities:
    def test_random_sequence_is_pure(self):
        rng = np.random.default_rng(0)
        s = random_sequence(1000, rng)
        assert s.max() <= 3
        # All four bases should appear in 1000 draws.
        assert set(np.unique(s)) == {0, 1, 2, 3}

    def test_hamming(self):
        assert hamming(encode("ACGT"), encode("ACGT")) == 0
        assert hamming(encode("ACGT"), encode("TCGA")) == 2

    def test_hamming_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming(encode("ACG"), encode("ACGT"))
