"""Score a SAM run against a truth sidecar.

The grader is deliberately simple and deterministic: every SAM record
with a truth row lands in exactly one outcome class, and every rate
the scorecard reports is a ratio of those integer counts — no
sampling, no thresholds beyond the position tolerance window.

A mapped read is **correct** when it sits on the true strand within
``tolerance + indel_span`` bases of its true origin: the simulator's
structural indels legitimately shift the leftmost mapped base, so the
window widens by the read's own indel span rather than punishing the
aligner for the read's biology.  Wrong-strand placements are counted
separately from wrong-locus ones — they fail differently (a
reverse-complement palindrome versus a repeat copy).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.genome.sam import FLAG_SECONDARY, SamRecord
from repro.scorecard.truth import TruthRecord, read_truth

SCORECARD_SCHEMA = 1
"""Version stamped into every ``scorecard.json``."""

DEFAULT_TOLERANCE = 20
"""Base tolerance window (bases) around the true mapping position."""

OUTCOMES = (
    "correct",
    "wrong_locus",
    "wrong_strand",
    "unmapped",
    "degraded",
    "quarantined",
)
"""Every scored read lands in exactly one of these classes."""

_DEGRADED_TAG = "XF:Z:degraded_extension"
_QUARANTINED_TAG = "XF:Z:quarantined"

_BAND_EDGES = ((0, 0), (1, 2), (3, 5), (6, 10), (11, 20))
UNKNOWN_BUCKET = "unknown"
"""Band bucket for reads whose truth row has no edit counts."""


def mapq_bin(mapq: int) -> str:
    """The calibration bin label for a reported MAPQ (``"0"``,
    ``"1-9"``, ..., ``"50-59"``, ``"60"``)."""
    if mapq <= 0:
        return "0"
    if mapq >= 60:
        return "60"
    lo = (mapq // 10) * 10
    if lo == 0:
        return "1-9"
    return f"{lo}-{lo + 9}"


def band_bucket(indel_span: int | None) -> str:
    """The band-demand bucket for a read's true indel span."""
    if indel_span is None:
        return UNKNOWN_BUCKET
    for lo, hi in _BAND_EDGES:
        if lo <= indel_span <= hi:
            return str(lo) if lo == hi else f"{lo}-{hi}"
    return "21+"


@dataclass
class Scorecard:
    """Accuracy accounting for one aligned run against its truth.

    ``total`` counts primary SAM records that had a truth row;
    ``missing_truth`` and ``truth_unseen`` are the two directions of
    sidecar/run mismatch (a record without truth, a truth row whose
    read never surfaced).  ``mapq`` holds ``correct``/``wrong`` counts
    per reported-MAPQ bin for mapped reads; ``band`` holds
    ``correct``/``total`` per true-indel-span bucket for all scored
    reads (unmapped reads count against their bucket).
    """

    tolerance: int = DEFAULT_TOLERANCE
    total: int = 0
    missing_truth: int = 0
    truth_unseen: int = 0
    outcomes: dict[str, int] = field(
        default_factory=lambda: {outcome: 0 for outcome in OUTCOMES}
    )
    mapq: dict[str, dict[str, int]] = field(default_factory=dict)
    band: dict[str, dict[str, int]] = field(default_factory=dict)

    # -- derived rates --------------------------------------------------

    def _fraction(self, outcome: str) -> float:
        return self.outcomes[outcome] / self.total if self.total else 0.0

    @property
    def correct_locus_rate(self) -> float:
        """Correct placements over all scored reads (0 when empty)."""
        return self._fraction("correct")

    @property
    def unmapped_fraction(self) -> float:
        """Plain-unmapped reads over all scored reads."""
        return self._fraction("unmapped")

    @property
    def degraded_fraction(self) -> float:
        """``XF:Z:degraded_extension`` fraction (earlier versions' SAMs)."""
        return self._fraction("degraded")

    @property
    def quarantined_fraction(self) -> float:
        """Poison-read (``XF:Z:quarantined``) fraction."""
        return self._fraction("quarantined")

    # -- scoring --------------------------------------------------------

    def grade(self, record: SamRecord, truth: TruthRecord | None) -> str:
        """Fold one primary record into the counts; returns its outcome
        (or ``"missing_truth"`` when no truth row exists)."""
        if truth is None:
            self.missing_truth += 1
            return "missing_truth"
        self.total += 1
        if record.is_unmapped:
            if _DEGRADED_TAG in record.tags:
                outcome = "degraded"
            elif _QUARANTINED_TAG in record.tags:
                outcome = "quarantined"
            else:
                outcome = "unmapped"
        elif record.is_reverse != truth.reverse:
            outcome = "wrong_strand"
        else:
            window = self.tolerance + (truth.indel_span or 0)
            if abs(record.pos - truth.true_pos) <= window:
                outcome = "correct"
            else:
                outcome = "wrong_locus"
        self.outcomes[outcome] += 1
        if not record.is_unmapped:
            cell = self.mapq.setdefault(
                mapq_bin(record.mapq), {"correct": 0, "wrong": 0}
            )
            cell["correct" if outcome == "correct" else "wrong"] += 1
        bucket = self.band.setdefault(
            band_bucket(truth.indel_span), {"correct": 0, "total": 0}
        )
        bucket["total"] += 1
        if outcome == "correct":
            bucket["correct"] += 1
        return outcome

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        """The schema-versioned JSON payload of ``scorecard.json``."""
        return {
            "schema": SCORECARD_SCHEMA,
            "tolerance": self.tolerance,
            "total": self.total,
            "missing_truth": self.missing_truth,
            "truth_unseen": self.truth_unseen,
            "outcomes": dict(self.outcomes),
            "rates": {
                "correct_locus": self.correct_locus_rate,
                "unmapped": self.unmapped_fraction,
                "degraded": self.degraded_fraction,
                "quarantined": self.quarantined_fraction,
            },
            "mapq": {k: dict(v) for k, v in sorted(self.mapq.items())},
            "band": {k: dict(v) for k, v in sorted(self.band.items())},
        }

    def write_json(self, path: str | Path) -> None:
        """Write :meth:`to_dict` to ``path`` (pretty-printed)."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def summary(self) -> str:
        """One human line: the rates a run operator scans first."""
        wrong = (
            self.outcomes["wrong_locus"] + self.outcomes["wrong_strand"]
        )
        return (
            f"scorecard: correct-locus {self.correct_locus_rate:.1%} "
            f"({self.outcomes['correct']}/{self.total} scored, "
            f"tol ±{self.tolerance}), {wrong} wrong, "
            f"unmapped {self.unmapped_fraction:.1%}, "
            f"degraded {self.degraded_fraction:.1%}, "
            f"quarantined {self.quarantined_fraction:.1%}"
        )

    # -- observability --------------------------------------------------

    def publish(self, registry) -> None:
        """Emit the scorecard through a
        :class:`~repro.obs.metrics.MetricsRegistry` under the
        catalogued ``score.*`` names.  Call once per scored run —
        counters accumulate.
        """
        from repro.obs import names

        registry.counter(
            names.SCORE_READS_TOTAL, "reads scored against truth"
        ).inc(self.total)
        for outcome, count in self.outcomes.items():
            if count:
                registry.counter(
                    names.SCORE_READS_OUTCOME,
                    "scored reads by outcome",
                    outcome=outcome,
                ).inc(count)
        if self.missing_truth:
            registry.counter(
                names.SCORE_READS_OUTCOME,
                "scored reads by outcome",
                outcome="missing_truth",
            ).inc(self.missing_truth)
        registry.gauge(
            names.SCORE_CORRECT_LOCUS_RATE,
            "correct-locus rate of the last scored run",
        ).set(self.correct_locus_rate)
        registry.gauge(
            names.SCORE_TOLERANCE,
            "position tolerance window of the last scored run",
        ).set(self.tolerance)
        for bin_label, cell in self.mapq.items():
            for outcome in ("correct", "wrong"):
                if cell[outcome]:
                    registry.counter(
                        names.SCORE_MAPQ_READS,
                        "mapped reads per MAPQ calibration bin",
                        bin=bin_label,
                        outcome=outcome,
                    ).inc(cell[outcome])
        for bucket, cell in self.band.items():
            registry.counter(
                names.SCORE_BAND_READS,
                "scored reads per true-band-demand bucket",
                bucket=bucket,
                outcome="correct",
            ).inc(cell["correct"])
            wrong = cell["total"] - cell["correct"]
            if wrong:
                registry.counter(
                    names.SCORE_BAND_READS,
                    "scored reads per true-band-demand bucket",
                    bucket=bucket,
                    outcome="wrong",
                ).inc(wrong)


def score_records(
    records: Iterable[SamRecord],
    truth: Mapping[str, TruthRecord],
    tolerance: int = DEFAULT_TOLERANCE,
) -> Scorecard:
    """Grade an in-memory record stream against a truth mapping.

    Secondary records are skipped (the scorecard grades one placement
    per read); ``truth_unseen`` counts sidecar rows whose read never
    produced a primary record.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    card = Scorecard(tolerance=tolerance)
    seen: set[str] = set()
    for record in records:
        if record.flag & FLAG_SECONDARY:
            continue
        card.grade(record, truth.get(record.qname))
        seen.add(record.qname)
    card.truth_unseen = sum(1 for name in truth if name not in seen)
    return card


def score_sam(
    sam_path: str | Path,
    truth: Mapping[str, TruthRecord] | str | Path,
    tolerance: int = DEFAULT_TOLERANCE,
) -> Scorecard:
    """Grade a SAM file on disk; ``truth`` is a mapping or a sidecar
    path.  Header lines are skipped; scoring never writes anything, so
    the SAM is untouched."""
    if not isinstance(truth, Mapping):
        truth = read_truth(truth)

    def _records() -> Iterable[SamRecord]:
        with open(sam_path) as handle:
            for line in handle:
                if line.startswith("@") or not line.strip():
                    continue
                yield SamRecord.from_line(line)

    return score_records(_records(), truth, tolerance=tolerance)
