"""DNA sequence encoding and manipulation.

SeedEx feeds the FPGA 3-bit encoded base pairs (paper Section IV-A) and
stores the reference 2-bit encoded in FPGA DRAM (Section VI).  This
module holds the one-byte base codes both pack, plus the usual sequence
utilities; the job wire format (:mod:`repro.faults.wire`) does the
3-bit packing.

Base codes: ``A=0, C=1, G=2, T=3`` and ``N=4`` (ambiguous).
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


def random_sequence(length: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random A/C/G/T sequence of ``length`` base codes."""
    return rng.integers(0, 4, size=length, dtype=np.uint8).astype(np.uint8)
