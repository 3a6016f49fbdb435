"""The CRC-framed wire format of one extension job and its result.

Jobs travel to the accelerator as 512-bit DDR memory lines: a header
(query length, target length, h0, CRC-16) followed by the 3-bit
packed characters of query-then-target.  Results come back as
:class:`ResultRecord` — the scores and endpoints the host consumes,
in :data:`RESULT_BYTES` bytes ending in a CRC-16.

Pack and unpack are exact inverses (property-tested), and the framing
is *untrusting* (see ``docs/resilience.md``): a bit flip, truncation,
drop or reorder anywhere in the datapath surfaces as a typed
:class:`CorruptLineError` / :class:`CorruptRecordError` instead of a
silently mis-aligned read.  The chaos engine
(:mod:`repro.faults.chaos`) routes every extension through this
format; the accelerator model's arbiter and output coalescer
(:mod:`repro.hw.io_path`) carry the same lines and records.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass

import numpy as np

from repro.genome.sequence import AMBIGUOUS_CODE
from repro.genome.synth import ExtensionJob

LINE_BITS = 512
LINE_BYTES = LINE_BITS // 8
CHAR_BITS = 3
HEADER_BYTES = 8
RESULT_BYTES = 12
"""Per-extension result record: scores, positions, check bits."""

CRC_INIT = 0xFFFF
"""Initial value for the CRC-16/CCITT line and record checksums."""


def _crc16(blob: bytes) -> int:
    """CRC-16/CCITT over ``blob`` (the datapath's integrity check)."""
    return binascii.crc_hqx(blob, CRC_INIT)


class CorruptLineError(ValueError):
    """A packed job failed validation at unpack time.

    Carries enough context to localize the corruption: ``field`` names
    the frame element that failed (``header``, ``payload``, ``crc``,
    ``code``) and ``offset`` is a byte offset (or character index for
    ``code``) into the reassembled job blob.
    """

    def __init__(
        self,
        message: str,
        *,
        field: str = "",
        offset: int = -1,
    ) -> None:
        context = []
        if field:
            context.append(f"field={field}")
        if offset >= 0:
            context.append(f"offset={offset}")
        suffix = f" [{', '.join(context)}]" if context else ""
        super().__init__(message + suffix)
        self.field = field
        self.offset = offset


class CorruptRecordError(ValueError):
    """A result record failed its CRC or framing check."""

    def __init__(self, message: str, *, field: str = "") -> None:
        super().__init__(
            message + (f" [field={field}]" if field else "")
        )
        self.field = field


def pack_job(job: ExtensionJob) -> list[bytes]:
    """Pack one job into 512-bit memory lines.

    Line 0 starts with a header (query length, target length, h0,
    CRC-16); the 3-bit characters of query-then-target follow,
    bit-packed little-endian across line boundaries.  The CRC covers
    the entire padded line image with the CRC field zeroed, so any
    bit flip, truncation, or reorder of the lines is detectable.
    """
    qlen = len(job.query)
    tlen = len(job.target)
    if qlen >= 2**16 or tlen >= 2**16 or not 0 <= job.h0 < 2**16:
        raise ValueError("job dimensions exceed the 16-bit header fields")
    header = (
        qlen.to_bytes(2, "little")
        + tlen.to_bytes(2, "little")
        + job.h0.to_bytes(2, "little")
        + b"\x00\x00"  # CRC placeholder, patched below
    )
    chars = np.concatenate(
        [np.asarray(job.query, dtype=np.uint8),
         np.asarray(job.target, dtype=np.uint8)]
    )
    if chars.size and chars.max(initial=0) >= 2**CHAR_BITS:
        raise ValueError("characters exceed the 3-bit input format")
    bits = np.zeros(chars.size * CHAR_BITS, dtype=np.uint8)
    for b in range(CHAR_BITS):
        bits[b::CHAR_BITS] = (chars >> b) & 1
    payload = np.packbits(bits, bitorder="little").tobytes()
    blob = header + payload
    padded_len = -(-len(blob) // LINE_BYTES) * LINE_BYTES
    blob = blob.ljust(padded_len, b"\x00")
    crc = _crc16(blob)
    blob = blob[:6] + crc.to_bytes(2, "little") + blob[8:]
    return [
        blob[off : off + LINE_BYTES]
        for off in range(0, len(blob), LINE_BYTES)
    ]


def unpack_job(lines: list[bytes], tag: str = "") -> ExtensionJob:
    """Exact inverse of :func:`pack_job` — with zero trust.

    Every frame element is validated before a job is produced: header
    presence, payload length against the header's claim, the CRC-16
    over the full padded line image, and the 3-bit character codes
    (valid sequence codes are ``0..4``).  Any violation raises
    :class:`CorruptLineError` with field/offset context instead of
    returning a garbage job.
    """
    blob = b"".join(lines)
    if len(blob) < HEADER_BYTES:
        raise CorruptLineError(
            "truncated job: missing header",
            field="header",
            offset=len(blob),
        )
    qlen = int.from_bytes(blob[0:2], "little")
    tlen = int.from_bytes(blob[2:4], "little")
    h0 = int.from_bytes(blob[4:6], "little")
    stored_crc = int.from_bytes(blob[6:8], "little")
    n_chars = qlen + tlen
    need = HEADER_BYTES + (n_chars * CHAR_BITS + 7) // 8
    if len(blob) < need:
        raise CorruptLineError(
            "truncated job: payload shorter than header says",
            field="payload",
            offset=len(blob),
        )
    if len(blob) % LINE_BYTES:
        raise CorruptLineError(
            "truncated job: partial memory line",
            field="payload",
            offset=len(blob),
        )
    actual_crc = _crc16(blob[:6] + b"\x00\x00" + blob[8:])
    if actual_crc != stored_crc:
        raise CorruptLineError(
            f"CRC mismatch: header says {stored_crc:#06x}, "
            f"lines hash to {actual_crc:#06x}",
            field="crc",
            offset=6,
        )
    payload = np.frombuffer(
        blob[HEADER_BYTES:need], dtype=np.uint8
    )
    bits = np.unpackbits(payload, bitorder="little")[: n_chars * CHAR_BITS]
    chars = np.zeros(n_chars, dtype=np.uint8)
    for b in range(CHAR_BITS):
        chars |= (bits[b::CHAR_BITS] << b).astype(np.uint8)
    bad = np.flatnonzero(chars > AMBIGUOUS_CODE)
    if bad.size:
        raise CorruptLineError(
            f"out-of-range 3-bit code {int(chars[bad[0]])}",
            field="code",
            offset=int(bad[0]),
        )
    return ExtensionJob(
        query=chars[:qlen].copy(),
        target=chars[qlen:].copy(),
        h0=h0,
        tag=tag,
    )


# -- result records (the write-back path) -------------------------------

_RECORD_LIMIT = 2**15
"""Signed-16-bit bound on the scores/positions a record can carry."""


@dataclass(frozen=True)
class ResultRecord:
    """The wire form of one extension result (write-back path).

    Carries exactly what the host consumes downstream — the local and
    to-end scores with their endpoints — in :data:`RESULT_BYTES` bytes
    including a trailing CRC-16.  The full
    :class:`~repro.align.banded.ExtensionResult` (boundary vectors,
    telemetry) never leaves the core; only this record crosses the
    faultable write-back seam.
    """

    lscore: int
    lpos: tuple[int, int]
    gscore: int
    gpos: int

    @classmethod
    def from_result(cls, result) -> "ResultRecord":
        """Distill an ``ExtensionResult`` into its wire record."""
        return cls(
            lscore=int(result.lscore),
            lpos=(int(result.lpos[0]), int(result.lpos[1])),
            gscore=int(result.gscore),
            gpos=int(result.gpos),
        )

    def pack(self) -> bytes:
        """Serialize to :data:`RESULT_BYTES` bytes with a CRC-16."""
        fields = (self.lscore, self.gscore, self.gpos)
        if any(not -_RECORD_LIMIT <= f < _RECORD_LIMIT for f in fields):
            raise ValueError(
                "scores/positions exceed the 16-bit record format"
            )
        if any(not 0 <= p < 2**16 for p in self.lpos):
            raise ValueError("lpos exceeds the 16-bit record format")
        body = (
            self.lscore.to_bytes(2, "little", signed=True)
            + self.lpos[0].to_bytes(2, "little")
            + self.lpos[1].to_bytes(2, "little")
            + self.gscore.to_bytes(2, "little", signed=True)
            + self.gpos.to_bytes(2, "little", signed=True)
        )
        return body + _crc16(body).to_bytes(2, "little")

    @classmethod
    def unpack(cls, blob: bytes) -> "ResultRecord":
        """Parse and CRC-verify one record; raise on any corruption."""
        if len(blob) != RESULT_BYTES:
            raise CorruptRecordError(
                f"result record is {len(blob)} bytes, "
                f"expected {RESULT_BYTES}",
                field="length",
            )
        stored = int.from_bytes(blob[10:12], "little")
        actual = _crc16(blob[:10])
        if stored != actual:
            raise CorruptRecordError(
                f"CRC mismatch: record says {stored:#06x}, "
                f"bytes hash to {actual:#06x}",
                field="crc",
            )
        return cls(
            lscore=int.from_bytes(blob[0:2], "little", signed=True),
            lpos=(
                int.from_bytes(blob[2:4], "little"),
                int.from_bytes(blob[4:6], "little"),
            ),
            gscore=int.from_bytes(blob[6:8], "little", signed=True),
            gpos=int.from_bytes(blob[8:10], "little", signed=True),
        )
