"""The ``chaos:`` summary of ``align --chaos``, pinned to exact counts.

The resilience dispatcher takes whole waves and walks each job down its
ladder in wave order, so the fault injector draws in the order the wave
driver used when it looped over a wave's jobs itself.  A fixed run
therefore reports fixed fault, retry, timeout, fallback and
dead-letter counts; these strings were recorded from that per-job
loop, for single-end reads and for read pairs with mate rescue.
"""

from pathlib import Path

import pytest

from repro.cli import main

pytestmark = pytest.mark.chaos
"""Chaos tier: selected by the CI chaos job via ``-m chaos``."""

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CHAOS = ["--chaos", "--fault-rate", "0.05", "--fault-seed", "1"]


def _chaos_line(out: str) -> str:
    [line] = [line for line in out.splitlines() if line.startswith("chaos:")]
    return line


def test_single_end_chaos_summary(tmp_path, capsys):
    argv = [
        "align", "--reference", str(FIXTURES / "golden_ref.fa"),
        "--reads", str(FIXTURES / "golden_reads.fq"),
        "--out", str(tmp_path / "out.sam"), *CHAOS,
    ]
    assert main(argv) == 0
    assert _chaos_line(capsys.readouterr().out) == (
        "chaos: 15 faults injected (13 detected, 2 tolerated), "
        "12 retries, 3 timeouts, 1 host fallbacks, 0 dead letters"
    )


def test_paired_chaos_summary(tmp_path, capsys):
    ref, reads = tmp_path / "ref.fa", tmp_path / "pairs.fq"
    assert main([
        "simulate", "--out-reference", str(ref), "--out-reads", str(reads),
        "--length", "20000", "--reads", "120", "--seed", "13", "--paired",
    ]) == 0
    capsys.readouterr()
    argv = [
        "align", "--reference", str(ref), "--reads", str(reads),
        "--out", str(tmp_path / "out.sam"), "--paired", *CHAOS,
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "2 rescued" in out  # the rescue waves went down the ladder too
    assert _chaos_line(out) == (
        "chaos: 126 faults injected (114 detected, 12 tolerated), "
        "110 retries, 20 timeouts, 4 host fallbacks, 0 dead letters"
    )
