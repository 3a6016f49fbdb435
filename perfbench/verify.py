"""The benchmark's own output checks, independent of ``repro.scorecard``.

(a) one record per input read, in input order;
(b) every mapped SAM record's ``AS:i`` equals the affine score of its
    own CIGAR path over read and reference;
(c) the first records equal the full-band / scalar oracle byte for byte;
(d) ``overlap`` rows equal the tiling ground truth;
(e) every served ``sam`` line equals the batch record of the same read.

Each check names the reads it fails; a read counts once in ``failed``
however many checks it fails, and the first offending record is kept
for printing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from perfbench.workloads import Read, reverse_complement

MATCH = 1
MISMATCH = -4
AMBIGUOUS = -1
GAP_OPEN = 6
GAP_EXTEND = 1
TRUTH_TOLERANCE = 20

FLAG_UNMAPPED = 0x4
FLAG_REVERSE = 0x10
FLAG_SECONDARY = 0x100

_CIGAR = re.compile(r"(\d+)([MIDNSHP=X])")
_LEADING_CLIP = re.compile(r"(\d+)S")
_N = ord("N")


@dataclass
class Verdict:
    """Outcome of verifying one output."""

    attempted: int
    failed_reads: set[str] = field(default_factory=set)
    first_failure: str | None = None
    truth_recall: float = 0.0

    @property
    def failed(self) -> int:
        return len(self.failed_reads)

    def fail(self, read: str, why: str) -> None:
        self.failed_reads.add(read)
        if self.first_failure is None:
            self.first_failure = f"{read}: {why}"

    def fail_all(self, reads: list[Read], why: str) -> None:
        """A run that produced nothing usable fails every record."""
        for read in reads:
            self.fail(read.name, why)


def sam_body(text: str) -> list[str]:
    """The alignment lines of a SAM file, headers dropped."""
    return [
        line for line in text.splitlines() if line and line[0] != "@"
    ]


def _ascii(sequence: str) -> np.ndarray:
    return np.frombuffer(sequence.encode("ascii"), dtype=np.uint8)


def cigar_score(
    cigar: str, read: np.ndarray, reference: np.ndarray, pos: int
) -> int:
    """Affine score of walking ``cigar`` from ``reference[pos]``.

    Match 1, mismatch -4, a column with an ``N`` -1, a gap of ``k``
    bases ``6 + k``, soft clips 0.  Raises ``ValueError`` when the
    CIGAR does not parse or does not consume exactly the read.
    """
    ops = _CIGAR.findall(cigar)
    if not ops or "".join(n + op for n, op in ops) != cigar:
        raise ValueError(f"unparsable CIGAR {cigar!r}")
    score = 0
    i, j = pos, 0
    for count, op in ops:
        n = int(count)
        if op in "M=X":
            a, b = read[j : j + n], reference[i : i + n]
            if len(a) != n or len(b) != n:
                raise ValueError("CIGAR runs off the read or reference")
            ambiguous = int(np.count_nonzero((a == _N) | (b == _N)))
            equal = int(np.count_nonzero((a == b) & (a != _N)))
            score += (
                equal * MATCH
                + ambiguous * AMBIGUOUS
                + (n - equal - ambiguous) * MISMATCH
            )
            i += n
            j += n
        elif op == "I":
            score -= GAP_OPEN + GAP_EXTEND * n
            j += n
        elif op in "DN":
            score -= GAP_OPEN + GAP_EXTEND * n
            i += n
        elif op == "S":
            j += n
        elif op not in "HP":
            raise ValueError(f"unknown CIGAR op {op!r}")
    if j != len(read):
        raise ValueError(
            f"CIGAR consumes {j} read bases, the read has {len(read)}"
        )
    return score


def _check_record(
    line: str, read: Read, reference: np.ndarray, verdict: Verdict
) -> bool:
    """Checks (b) on one SAM line; returns whether it lands on truth."""
    fields = line.split("\t")
    if len(fields) < 11:
        verdict.fail(read.name, f"{len(fields)} SAM fields: {line!r}")
        return False
    flag = int(fields[1])
    if flag & FLAG_UNMAPPED:
        return False
    if fields[9] != read.sequence:
        verdict.fail(read.name, "SEQ differs from the input read")
        return False
    reverse = bool(flag & FLAG_REVERSE)
    pos = int(fields[3]) - 1
    tags = [t for t in fields[11:] if t.startswith("AS:i:")]
    if len(tags) != 1:
        verdict.fail(read.name, f"needs exactly one AS tag: {line!r}")
        return False
    oriented = reverse_complement(fields[9]) if reverse else fields[9]
    try:
        score = cigar_score(fields[5], _ascii(oriented), reference, pos)
    except ValueError as exc:
        verdict.fail(read.name, f"{exc}: {line!r}")
        return False
    if score != int(tags[0][5:]):
        verdict.fail(
            read.name,
            f"CIGAR path scores {score}, record says {tags[0]}: {line!r}",
        )
        return False
    # A soft-clipped start moves POS right by the clip (and by what a
    # deletion inside the clip skipped); compare the unclipped start.
    clip = _LEADING_CLIP.match(fields[5])
    start = pos - (int(clip.group(1)) if clip else 0)
    return (
        not flag & FLAG_SECONDARY
        and reverse == read.reverse
        and any(
            abs(start - origin) <= TRUTH_TOLERANCE + read.indel_span
            for origin in (read.pos, *read.alternatives)
        )
    )


def verify_lines(
    lines: list[str],
    reads: list[Read],
    reference_sequence: str,
    expected_prefix: list[str] | None = None,
    prefix_name: str = "oracle",
) -> Verdict:
    """Checks (a), (b) and (c)/(e) on SAM body ``lines`` for ``reads``.

    ``expected_prefix`` holds the lines the first records must equal
    byte for byte: the full-band oracle's for a batch run, the batch
    run's for a served one.
    """
    verdict = Verdict(attempted=len(reads))
    names = [line.split("\t", 1)[0] for line in lines]
    if names != [read.name for read in reads]:
        # (a) count the reads with no record or more than one; if the
        # multiset is right the order is wrong, which fails them all.
        seen: dict[str, int] = {}
        for name in names:
            seen[name] = seen.get(name, 0) + 1
        bad = [r for r in reads if seen.get(r.name, 0) != 1]
        for read in bad:
            verdict.fail(
                read.name, f"{seen.get(read.name, 0)} records, want 1"
            )
        if not bad:
            verdict.fail_all(reads, "records are not in input order")
        by_name = {name: line for name, line in zip(names, lines)}
        lines = [by_name.get(read.name, "") for read in reads]
    reference = _ascii(reference_sequence)
    on_truth = 0
    for line, read in zip(lines, reads):
        if line and _check_record(line, read, reference, verdict):
            on_truth += 1
    for k, want in enumerate(expected_prefix or ()):
        if lines[k] != want:
            verdict.fail(
                reads[k].name,
                f"differs from the {prefix_name}: {lines[k]!r} != {want!r}",
            )
    verdict.truth_recall = on_truth / len(reads)
    return verdict


def verify_overlaps(text: str, truth: set[tuple]) -> Verdict:
    """Check (d): rows equal the tiling truth, exact coordinates.

    One operation per expected pair, plus one per reported pair of
    reads that should not overlap at all.  The ``proved``/``rerun``
    column, score and band are ignored.
    """
    rows = set()
    verdict = Verdict(attempted=len(truth))
    expected_pairs = {(pair[0], pair[4]) for pair in truth}
    for line in text.splitlines():
        f = line.split("\t")
        if len(f) != 12:
            verdict.attempted += 1
            verdict.fail(line[:40], f"{len(f)} columns, want 12: {line!r}")
            continue
        rows.add(
            (f[0], int(f[1]), int(f[2]), int(f[3]),
             f[5], int(f[6]), int(f[7]), int(f[8]))
        )
    for pair in sorted(truth - rows):
        verdict.fail(f"{pair[0]}>{pair[4]}", f"missing overlap {pair}")
    for row in sorted(rows - truth):
        if (row[0], row[4]) not in expected_pairs:
            verdict.attempted += 1
        verdict.fail(f"{row[0]}>{row[4]}", f"spurious overlap {row}")
    verdict.truth_recall = len(truth & rows) / len(truth)
    return verdict
