"""FASTA and FASTQ parsing and writing.

The pipeline's on-disk interchange formats: references travel as FASTA
(the paper indexes GRCh38 from the UCSC browser), reads as FASTQ (the
paper streams ERR194147).  Both parsers are strict by default — a
malformed record raises a typed :class:`MalformedRecordError` carrying
the file, line, and reason instead of silently truncating a genome.

The FASTQ parser can also run in *quarantine* mode (the CLI's
``--on-bad-record quarantine``): malformed records are reported to a
callback, the stream resyncs at the next plausible record header, and
parsing continues — one corrupt record in a multi-gigabyte FASTQ then
costs one quarantined entry, not the whole run.  See
``docs/durability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

from repro.constants import ReproError

class MalformedRecordError(ReproError, ValueError):
    """A FASTA/FASTQ record the parser refused, with its location.

    ``path`` is ``None`` when parsing an anonymous stream; ``line`` is
    the 1-based line number of the offending record's first bad line.
    """

    def __init__(
        self, reason: str, *, path: str | None = None, line: int = 0
    ) -> None:
        self.reason = reason
        self.path = path
        self.line = line
        where = f"{path or '<stream>'}:{line}"
        super().__init__(f"{where}: {reason}")


@dataclass(frozen=True)
class FastaRecord:
    name: str
    sequence: str


@dataclass(frozen=True)
class FastqRecord:
    name: str
    sequence: str
    quality: str

    def __post_init__(self) -> None:
        if len(self.sequence) != len(self.quality):
            raise ValueError(
                f"quality length {len(self.quality)} != sequence length "
                f"{len(self.sequence)} for read {self.name!r}"
            )


def parse_fasta(
    handle: TextIO, path: str | None = None
) -> Iterator[FastaRecord]:
    """Yield records from a FASTA stream (multi-line sequences ok)."""
    name: str | None = None
    chunks: list[str] = []
    for lineno, raw in enumerate(handle, 1):
        line = raw.rstrip("\n")
        if not line:
            continue
        if line.startswith(">"):
            if name is not None:
                yield FastaRecord(name, "".join(chunks))
            name = line[1:].split()[0] if len(line) > 1 else ""
            if not name:
                raise MalformedRecordError(
                    "empty FASTA header", path=path, line=lineno
                )
            chunks = []
        else:
            if name is None:
                raise MalformedRecordError(
                    "sequence before any FASTA header",
                    path=path,
                    line=lineno,
                )
            chunks.append(line)
    if name is not None:
        yield FastaRecord(name, "".join(chunks))


def read_fasta(path: str | Path) -> list[FastaRecord]:
    """Read all records of a FASTA file."""
    with open(path) as handle:
        return list(parse_fasta(handle, path=str(path)))


def write_fasta(
    handle: TextIO, records: Iterable[FastaRecord], width: int = 70
) -> None:
    """Write FASTA with ``width``-column line wrapping."""
    for rec in records:
        handle.write(f">{rec.name}\n")
        seq = rec.sequence
        for i in range(0, len(seq), width):
            handle.write(seq[i : i + width] + "\n")


class _LineReader:
    """Line iterator over a text stream with pushback and numbering.

    The quarantine-mode FASTQ parser needs look-ahead (to tell a real
    record header from a quality line that merely starts with ``@``)
    and accurate line numbers for error reports; this tiny reader
    provides both without requiring a seekable stream.
    """

    def __init__(self, handle: TextIO) -> None:
        self._handle = handle
        self._pushed: list[str] = []
        self.lineno = 0

    def next(self) -> str | None:
        """The next line (trailing newline kept); ``None`` at EOF."""
        if self._pushed:
            self.lineno += 1
            return self._pushed.pop()
        line = self._handle.readline()
        if not line:
            return None
        self.lineno += 1
        return line

    def push(self, line: str) -> None:
        """Push one line back; the next :meth:`next` returns it."""
        self._pushed.append(line)
        self.lineno -= 1


def parse_fastq(
    handle: TextIO,
    path: str | None = None,
    on_bad: Callable[[MalformedRecordError], None] | None = None,
) -> Iterator[FastqRecord]:
    """Yield records from a FASTQ stream (4-line records).

    Strict by default: a malformed record raises
    :class:`MalformedRecordError`.  With ``on_bad`` set, the error is
    passed to the callback instead, the stream resyncs at the next
    plausible record header (an ``@`` line with a ``+`` separator two
    lines later — not a quality line that merely begins with ``@``),
    and parsing continues.
    """
    lines = _LineReader(handle)
    consumed: list[str] = []  # raw body lines of the record in flight

    def take() -> str:
        line = lines.next()
        if line is None:
            return ""
        consumed.append(line)
        return line.rstrip("\n")

    while True:
        raw = lines.next()
        if raw is None:
            return
        header = raw.rstrip("\n")
        if not header:
            continue
        start = lines.lineno
        consumed.clear()
        try:
            if not header.startswith("@"):
                raise MalformedRecordError(
                    f"bad FASTQ header: {header!r}", path=path, line=start
                )
            seq = take()
            plus = take()
            qual = take()
            if not plus.startswith("+"):
                raise MalformedRecordError(
                    f"bad FASTQ separator for {header!r}",
                    path=path,
                    line=start,
                )
            if not qual and seq:
                raise MalformedRecordError(
                    f"truncated FASTQ record {header!r}",
                    path=path,
                    line=start,
                )
            if len(seq) != len(qual):
                raise MalformedRecordError(
                    f"quality length {len(qual)} != sequence length "
                    f"{len(seq)} for {header!r}",
                    path=path,
                    line=start,
                )
        except MalformedRecordError as exc:
            if on_bad is None:
                raise
            on_bad(exc)
            # The bad record's body lines may hide the next record's
            # header (e.g. a missing separator shifts everything up
            # one line) — hand them back so resync can find it.
            for line in reversed(consumed):
                lines.push(line)
            _resync(lines)
            continue
        yield FastqRecord(header[1:].split()[0], seq, qual)


def _resync(lines: _LineReader) -> None:
    """Skip forward to the next plausible FASTQ record header.

    A line qualifies when it starts with ``@`` and the line two ahead
    starts with ``+`` (or the stream ends first — trailing garbage is
    then reported as one final bad record rather than silently eaten).
    The qualifying header and its look-ahead are pushed back so the
    parser re-reads them normally.
    """
    while True:
        line = lines.next()
        if line is None:
            return
        if not line.startswith("@"):
            continue
        peek1 = lines.next()
        peek2 = lines.next()
        if peek2 is None or peek2.startswith("+"):
            for item in (peek2, peek1, line):
                if item is not None:
                    lines.push(item)
            return
        # Not a record start (likely a quality line); re-examine the
        # look-ahead lines as candidates themselves.
        lines.push(peek2)
        lines.push(peek1)


def read_fastq(
    path: str | Path,
    on_bad: Callable[[MalformedRecordError], None] | None = None,
) -> list[FastqRecord]:
    """Read all records of a FASTQ file.

    ``on_bad`` enables quarantine-mode parsing: malformed records are
    reported to the callback and skipped (see :func:`parse_fastq`).
    """
    with open(path) as handle:
        return list(parse_fastq(handle, path=str(path), on_bad=on_bad))


def write_fastq(handle: TextIO, records: Iterable[FastqRecord]) -> None:
    """Write records as 4-line FASTQ."""
    for rec in records:
        handle.write(f"@{rec.name}\n{rec.sequence}\n+\n{rec.quality}\n")
