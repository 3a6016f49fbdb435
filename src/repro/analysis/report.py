"""Experiment reporting: aligned tables and paper-vs-measured rows.

Shared by the benchmark harnesses: every experiment prints its result
through :func:`print_table` so stdout reads like the paper's tables,
and :class:`PaperComparison` keeps the paper-reported value next to
the measured/model value with a relative error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.obs.table import format_table


def print_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> None:
    """Print a titled, aligned table to stdout."""
    print(f"\n== {title} ==")
    print(format_table(headers, rows))


def ascii_bars(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    unit: str = "",
) -> str:
    """Render a horizontal ASCII bar chart (terminal-friendly plots).

    Used by the benchmark harnesses so distribution figures (2, 14)
    read as charts on stdout, not just tables.
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    if not values:
        return ""
    peak = max(max(values), 1e-12)
    label_w = max(len(str(label)) for label in labels)
    lines = []
    for label, value in zip(labels, values):
        bar = "#" * max(0, round(width * value / peak))
        lines.append(
            f"{str(label).rjust(label_w)} | {bar} {value:.3g}{unit}"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class PaperComparison:
    """One paper-vs-measured line of EXPERIMENTS.md."""

    metric: str
    paper: float
    measured: float

    @property
    def relative_error(self) -> float:
        """abs(measured - paper) / abs(paper)."""
        if self.paper == 0:
            return 0.0 if self.measured == 0 else float("inf")
        return abs(self.measured - self.paper) / abs(self.paper)

    def row(self) -> tuple[str, float, float, str]:
        """The printable (metric, paper, measured, err%) tuple."""
        return (
            self.metric,
            self.paper,
            self.measured,
            f"{100 * self.relative_error:.1f}%",
        )


def comparison_table(
    title: str, comparisons: Iterable[PaperComparison]
) -> None:
    """Print paper-vs-measured rows with relative errors."""
    print_table(
        title,
        ("metric", "paper", "measured", "rel err"),
        [c.row() for c in comparisons],
    )
