"""SAM records: the aligner's output format.

The validation experiment (paper Figure 13) counts SAM entries that
differ between a banded run and the full-band baseline, so records
need a canonical, comparable text form.  Only the subset of the SAM
spec the pipeline emits is implemented; positions are 1-based in text
per the spec and 0-based in the API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, TextIO

from repro.constants import InputError

FLAG_REVERSE = 0x10
FLAG_UNMAPPED = 0x4
FLAG_SECONDARY = 0x100


@dataclass(frozen=True)
class SamRecord:
    """One alignment line.  ``pos`` is 0-based; -1 when unmapped."""

    qname: str
    flag: int
    rname: str
    pos: int
    mapq: int
    cigar: str
    seq: str
    tags: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.pos < -1:
            raise ValueError("pos must be >= -1")
        if not 0 <= self.mapq <= 255:
            raise ValueError("mapq must be in [0, 255]")

    @property
    def is_unmapped(self) -> bool:
        """Whether the unmapped flag is set."""
        return bool(self.flag & FLAG_UNMAPPED)

    @property
    def is_reverse(self) -> bool:
        """Whether the reverse-strand flag is set."""
        return bool(self.flag & FLAG_REVERSE)

    def to_line(self) -> str:
        """Render the record as one SAM text line (1-based pos)."""
        fields = [
            self.qname,
            str(self.flag),
            self.rname if not self.is_unmapped else "*",
            str(self.pos + 1),
            str(self.mapq),
            self.cigar if not self.is_unmapped else "*",
            "*",
            "0",
            "0",
            self.seq,
            "*",
        ]
        fields.extend(self.tags)
        return "\t".join(fields)

    @classmethod
    def unmapped(
        cls, qname: str, seq: str, tags: tuple[str, ...] = ()
    ) -> "SamRecord":
        """An unmapped record; ``tags`` can carry a reason (XF:Z:…)."""
        return cls(
            qname=qname,
            flag=FLAG_UNMAPPED,
            rname="*",
            pos=-1,
            mapq=0,
            cigar="*",
            seq=seq,
            tags=tags,
        )

    @classmethod
    def from_line(cls, line: str) -> "SamRecord":
        parts = line.rstrip("\n").split("\t")
        if len(parts) < 11:
            raise InputError(f"SAM line has {len(parts)} fields, need 11")
        try:
            return cls(
                qname=parts[0],
                flag=int(parts[1]),
                rname=parts[2],
                pos=int(parts[3]) - 1,
                mapq=int(parts[4]),
                cigar=parts[5],
                seq=parts[9],
                tags=tuple(parts[11:]),
            )
        except ValueError as exc:  # a non-integer or out-of-range field
            raise InputError(f"bad SAM line for {parts[0]!r}: {exc}") from exc


def write_header(
    handle: TextIO,
    reference_name: str,
    reference_length: int,
    program_tags: tuple[str, ...] = (),
) -> None:
    """Write the minimal single-reference SAM header.

    Factored out of :func:`write_sam` so the durability layer can
    stitch journaled body segments under the byte-identical header.
    ``program_tags`` appends extra fields to the ``@PG`` line (the CLI
    records the active kernel backend there); alignment lines never
    depend on them, so stripping ``@PG`` recovers byte-comparable
    bodies across configurations.
    """
    handle.write("@HD\tVN:1.6\tSO:unknown\n")
    handle.write(f"@SQ\tSN:{reference_name}\tLN:{reference_length}\n")
    pg = "@PG\tID:repro-seedex\tPN:repro-seedex"
    for tag in program_tags:
        pg += f"\t{tag}"
    handle.write(pg + "\n")


def write_sam(
    handle: TextIO,
    records: Iterable[SamRecord],
    reference_name: str,
    reference_length: int,
    program_tags: tuple[str, ...] = (),
) -> None:
    """Write a single-reference SAM file with a minimal header."""
    write_header(
        handle, reference_name, reference_length,
        program_tags=program_tags,
    )
    for rec in records:
        handle.write(rec.to_line() + "\n")


def diff_records(
    a: Iterable[SamRecord], b: Iterable[SamRecord]
) -> int:
    """Number of positionally-paired records whose lines differ.

    This is Figure 13's metric: count SAM entries that change when the
    extension kernel changes.  Inputs must be same-length and in the
    same read order.
    """
    a = list(a)
    b = list(b)
    if len(a) != len(b):
        raise ValueError("record streams differ in length")
    return sum(
        1 for ra, rb in zip(a, b) if ra.to_line() != rb.to_line()
    )
