"""Levenshtein-automaton state counts: Figure 18's scaling argument.

The paper's related work (GenAx [8] and the automata processors
[46]-[50]) matches reads with Levenshtein automata instead of DP
arrays.  GenAx's Silla generalizes them to be string-independent, at
the cost of ``O(K^2)`` states for edit budget ``K`` — the quadratic
scaling that Figure 18 contrasts with SeedEx's linear PE count
(``w = 2K + 1`` band needs ``O(K)`` PEs).  This module holds the two
counts that the Figure 18 harness prints:

* :func:`silla_state_count` — the string-independent automaton's
  ``O(K^2)`` lag x error state space, the quantity that makes Sillax
  16x bigger than SeedEx at equal capability;
* :func:`seedex_pe_count` — the banded array's ``2K + 1`` PEs.
"""

from __future__ import annotations


def silla_state_count(k: int) -> int:
    """States of a string-independent local Levenshtein automaton.

    Position-relative (lag) encoding needs a (2k+1) lag window at each
    of (k+1) error levels — the O(K^2) scaling GenAx's Silla pays and
    the reason Figure 18's extension array is 16x larger than SeedEx
    at K=32 (band w = 2K+1).
    """
    if k < 0:
        raise ValueError("edit budget k must be non-negative")
    return (2 * k + 1) * (k + 1)


def seedex_pe_count(k: int) -> int:
    """PEs a banded array needs for the same capability (w = 2k+1)."""
    return 2 * k + 1
