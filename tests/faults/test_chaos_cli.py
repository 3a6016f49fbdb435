"""The ``chaos:`` summary of ``align --chaos``, pinned to exact counts.

The resilience dispatcher runs each wave down its ladder in rounds, so
the fault injector draws in round-major order: every job's input frame
of a round in wave order, then the write-back records of the jobs
whose frames arrived intact.  A fixed run therefore reports fixed
fault, retry, timeout, fallback and dead-letter counts; these strings
were recorded from that order, for single-end reads and for read pairs
with mate rescue.
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
        "chaos: 16 faults injected (14 detected, 2 tolerated), "
        "13 retries, 3 timeouts, 1 host fallbacks"
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
        "chaos: 126 faults injected (115 detected, 11 tolerated), "
        "111 retries, 20 timeouts, 4 host fallbacks"
    )
