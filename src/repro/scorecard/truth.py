"""The truth sidecar: where each simulated read actually came from.

A ``.truth.tsv`` is written next to a simulated FASTQ and carries one
row per read — its true 0-based origin on the reference, its strand,
and the edit budget the simulator spent on it.  The format is a plain
TSV behind a versioned header so the scorecard can refuse a sidecar
it does not understand::

    #repro-truth	v1
    #read	true_pos	strand	subs	ins	dels
    read0000001	4711	+	1	0	0
    pair000001/2	9023	-	-	-	-

Edit columns may be ``-`` (unknown): the paired-end simulator tracks
positions but not per-mate edit counts, and reads with unknown edits
simply fall into the ``unknown`` band bucket and get no indel-span
allowance on their tolerance window.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, TextIO

from repro.constants import ReproError

TRUTH_VERSION = 1
"""Sidecar format version; bumped only on incompatible changes."""

_MAGIC = "#repro-truth"
_COLUMNS = "#read\ttrue_pos\tstrand\tsubs\tins\tdels"
_UNKNOWN = "-"


class TruthError(ReproError, ValueError):
    """A sidecar could not be parsed (bad magic, version, or row)."""


@dataclass(frozen=True)
class TruthRecord:
    """Ground truth for one simulated read.

    ``true_pos`` is the 0-based reference offset the read was sampled
    at; ``reverse`` marks reverse-strand reads.  The edit counts are
    ``None`` when the generator did not track them (paired-end mates).
    """

    name: str
    true_pos: int
    reverse: bool
    substitutions: int | None = None
    insertions: int | None = None
    deletions: int | None = None

    @property
    def indel_span(self) -> int | None:
        """Inserted+deleted bases — the read's true band demand."""
        if self.insertions is None or self.deletions is None:
            return None
        return self.insertions + self.deletions

    @classmethod
    def from_read(cls, read) -> "TruthRecord":
        """Build from a :class:`~repro.genome.synth.SimulatedRead`
        (or anything with the same truth attributes)."""
        return cls(
            name=read.name,
            true_pos=int(read.true_pos),
            reverse=bool(read.reverse),
            substitutions=int(read.substitutions),
            insertions=int(read.insertions),
            deletions=int(read.deletions),
        )

    def to_row(self) -> str:
        """Render the record as one sidecar TSV row."""
        def cell(value: int | None) -> str:
            return _UNKNOWN if value is None else str(value)

        return "\t".join(
            (
                self.name,
                str(self.true_pos),
                "-" if self.reverse else "+",
                cell(self.substitutions),
                cell(self.insertions),
                cell(self.deletions),
            )
        )


def truth_path_for(reads_path: str | Path) -> Path:
    """The canonical sidecar path for a FASTQ: ``<reads>.truth.tsv``."""
    reads_path = Path(reads_path)
    return reads_path.with_name(reads_path.name + ".truth.tsv")


def write_truth(
    handle: TextIO, records: Iterable[TruthRecord]
) -> int:
    """Write the sidecar header plus one row per record; returns the
    row count."""
    handle.write(f"{_MAGIC}\tv{TRUTH_VERSION}\n")
    handle.write(_COLUMNS + "\n")
    n = 0
    for record in records:
        handle.write(record.to_row() + "\n")
        n += 1
    return n


def _parse_edit(cell: str, path: str, line: int) -> int | None:
    if cell == _UNKNOWN:
        return None
    try:
        value = int(cell)
    except ValueError as exc:
        raise TruthError(
            f"{path}:{line}: edit count {cell!r} is not an integer"
        ) from exc
    if value < 0:
        raise TruthError(f"{path}:{line}: negative edit count {value}")
    return value


def read_truth(path: str | Path) -> dict[str, TruthRecord]:
    """Parse a sidecar into ``{read name: truth}``.

    Raises :class:`TruthError` on a missing/unknown header, a
    malformed row, or a duplicate read name — a scoring run against a
    half-understood sidecar would produce confidently wrong numbers.
    """
    path = Path(path)
    records: dict[str, TruthRecord] = {}
    with open(path) as handle:
        first = handle.readline().rstrip("\n")
        fields = first.split("\t")
        if len(fields) != 2 or fields[0] != _MAGIC:
            raise TruthError(
                f"{path}: not a truth sidecar (missing "
                f"'{_MAGIC}' header)"
            )
        if fields[1] != f"v{TRUTH_VERSION}":
            raise TruthError(
                f"{path}: unsupported sidecar version {fields[1]!r} "
                f"(this reader understands v{TRUTH_VERSION})"
            )
        for lineno, line in enumerate(handle, start=2):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cells = line.split("\t")
            if len(cells) != 6:
                raise TruthError(
                    f"{path}:{lineno}: expected 6 columns, got "
                    f"{len(cells)}"
                )
            name, pos, strand, subs, ins, dels = cells
            if strand not in ("+", "-"):
                raise TruthError(
                    f"{path}:{lineno}: strand must be '+' or '-', "
                    f"got {strand!r}"
                )
            if name in records:
                raise TruthError(
                    f"{path}:{lineno}: duplicate read name {name!r}"
                )
            try:
                true_pos = int(pos)
            except ValueError as exc:
                raise TruthError(
                    f"{path}:{lineno}: true_pos {pos!r} is not an "
                    "integer"
                ) from exc
            records[name] = TruthRecord(
                name=name,
                true_pos=true_pos,
                reverse=strand == "-",
                substitutions=_parse_edit(subs, str(path), lineno),
                insertions=_parse_edit(ins, str(path), lineno),
                deletions=_parse_edit(dels, str(path), lineno),
            )
    return records
