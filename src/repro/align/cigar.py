"""CIGAR strings for alignment traces.

The traceback step (paper Section II-A) reports the trace of edits for
the winning extension only, as a CIGAR string: ``M`` (match/mismatch),
``I`` (insertion to the reference: consumes query), ``D`` (deletion from
the reference: consumes reference), ``S`` (soft clip: consumes query).
"""

from __future__ import annotations

from dataclasses import dataclass

_CONSUMES_QUERY = {"M", "I", "S", "=", "X"}
_CONSUMES_REF = {"M", "D", "=", "X"}
_VALID_OPS = _CONSUMES_QUERY | _CONSUMES_REF


@dataclass(frozen=True)
class Cigar:
    """An immutable, normalized CIGAR (adjacent same-op runs merged)."""

    ops: tuple[tuple[int, str], ...]

    def __post_init__(self) -> None:
        for length, op in self.ops:
            if op not in _VALID_OPS:
                raise ValueError(f"invalid CIGAR op {op!r}")
            if length <= 0:
                raise ValueError("CIGAR run lengths must be positive")

    @classmethod
    def from_ops(cls, ops: list[tuple[int, str]]) -> "Cigar":
        """Build a CIGAR, merging adjacent runs of the same operation."""
        merged: list[tuple[int, str]] = []
        for length, op in ops:
            if length == 0:
                continue
            if merged and merged[-1][1] == op:
                merged[-1] = (merged[-1][0] + length, op)
            else:
                merged.append((length, op))
        return cls(tuple(merged))

    @classmethod
    def parse(cls, text: str) -> "Cigar":
        """Parse a CIGAR string such as ``"55M1I45M"``."""
        if text == "*":
            return cls(())
        ops: list[tuple[int, str]] = []
        num = ""
        for ch in text:
            if ch.isdigit():
                num += ch
            else:
                if not num:
                    raise ValueError(f"malformed CIGAR: {text!r}")
                ops.append((int(num), ch))
                num = ""
        if num:
            raise ValueError(f"trailing digits in CIGAR: {text!r}")
        return cls.from_ops(ops)

    @property
    def query_length(self) -> int:
        """Number of query characters the alignment consumes."""
        return sum(n for n, op in self.ops if op in _CONSUMES_QUERY)

    @property
    def reference_length(self) -> int:
        """Number of reference characters the alignment consumes."""
        return sum(n for n, op in self.ops if op in _CONSUMES_REF)

    def reversed(self) -> "Cigar":
        """The CIGAR of the same alignment read right-to-left."""
        return Cigar(tuple(reversed(self.ops)))

    def __str__(self) -> str:
        if not self.ops:
            return "*"
        return "".join(f"{n}{op}" for n, op in self.ops)
