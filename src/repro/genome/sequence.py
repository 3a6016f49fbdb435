"""DNA sequence encoding and manipulation.

SeedEx feeds the FPGA 3-bit encoded base pairs (paper Section IV-A) and
stores the reference 2-bit encoded in FPGA DRAM (Section VI).  This
module provides both encodings plus the usual sequence utilities.

Base codes: ``A=0, C=1, G=2, T=3`` and ``N=4`` (ambiguous).  The 2-bit
encoding cannot represent ``N``; callers must mask or reject ambiguous
bases before packing.
"""

from __future__ import annotations

import numpy as np

from repro.constants import InputError

BASES = "ACGT"
AMBIGUOUS_CODE = 4
"""Code for 'N'; never matches anything, including itself."""

_ENCODE = np.full(256, -1, dtype=np.int8)
for _i, _b in enumerate(BASES):
    _ENCODE[ord(_b)] = _i
    _ENCODE[ord(_b.lower())] = _i
_ENCODE[ord("N")] = AMBIGUOUS_CODE
_ENCODE[ord("n")] = AMBIGUOUS_CODE

_DECODE = np.frombuffer((BASES + "N").encode("ascii"), dtype=np.uint8)

_COMPLEMENT = np.array([3, 2, 1, 0, AMBIGUOUS_CODE], dtype=np.uint8)


def encode(seq: str) -> np.ndarray:
    """Encode a DNA string into base codes (uint8 array).

    Raises ``ValueError`` on characters outside ``ACGTNacgtn``.
    """
    raw = np.frombuffer(seq.encode("ascii"), dtype=np.uint8)
    codes = _ENCODE[raw]
    if (codes < 0).any():
        bad = seq[int(np.argmax(codes < 0))]
        raise InputError(f"invalid DNA character: {bad!r}")
    return codes.astype(np.uint8)


def decode(codes: np.ndarray) -> str:
    """Decode base codes back into a DNA string."""
    codes = np.asarray(codes)
    if codes.size and (codes.max(initial=0) > AMBIGUOUS_CODE):
        raise ValueError("base code out of range")
    return _DECODE[codes].tobytes().decode("ascii")


def reverse_complement(codes: np.ndarray) -> np.ndarray:
    """Reverse-complement an encoded sequence (N maps to N)."""
    return _COMPLEMENT[np.asarray(codes, dtype=np.uint8)][::-1]


def pack_2bit(codes: np.ndarray) -> np.ndarray:
    """Pack base codes into the 2-bit format stored in FPGA DRAM.

    Four bases per byte, first base in the low bits.  Ambiguous bases
    are rejected because 2 bits cannot represent them.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size and codes.max(initial=0) >= AMBIGUOUS_CODE:
        raise ValueError("cannot 2-bit pack ambiguous (N) bases")
    padded = np.zeros((codes.size + 3) // 4 * 4, dtype=np.uint8)
    padded[: codes.size] = codes
    quads = padded.reshape(-1, 4)
    return (
        quads[:, 0]
        | (quads[:, 1] << 2)
        | (quads[:, 2] << 4)
        | (quads[:, 3] << 6)
    ).astype(np.uint8)


def unpack_2bit(packed: np.ndarray, length: int) -> np.ndarray:
    """Unpack :func:`pack_2bit` output back into ``length`` base codes."""
    packed = np.asarray(packed, dtype=np.uint8)
    if length > packed.size * 4:
        raise ValueError("length exceeds packed capacity")
    out = np.empty(packed.size * 4, dtype=np.uint8)
    out[0::4] = packed & 3
    out[1::4] = (packed >> 2) & 3
    out[2::4] = (packed >> 4) & 3
    out[3::4] = (packed >> 6) & 3
    return out[:length]


def pack_3bit(codes: np.ndarray) -> np.ndarray:
    """Represent base codes in the accelerator's 3-bit input format.

    The hardware reserves one extra symbol beyond A/C/G/T/N as the
    progressive-initialization marker (paper Section IV-A); this model
    keeps codes in one byte each but validates the 3-bit range.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size and codes.max(initial=0) > 7:
        raise ValueError("3-bit code out of range")
    return codes.copy()


def random_sequence(length: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random A/C/G/T sequence of ``length`` base codes."""
    return rng.integers(0, 4, size=length, dtype=np.uint8).astype(np.uint8)


def hamming(a: np.ndarray, b: np.ndarray) -> int:
    """Hamming distance between equal-length encoded sequences."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("sequences must have equal length")
    return int(np.count_nonzero(a != b))
