"""Settle extension jobs on the ungapped diagonal, before any DP.

Most seed extensions need no dynamic programming at all: the k-mer
seeds are maximal, so the query usually runs on along the seed's
diagonal with one mismatch at its first base.  This is a Shouji-style
pre-alignment filter (see PAPERS.md) — a cheap, admissible test that
proves a job's answer with no fill — and the software form of the
paper's economics: most jobs need little, so little is built for them
(Section II, Figure 2).

The rule, for a ``(query, target, h0)`` extension job under scheme
``s`` (``m`` the match reward, ``go``/``ge`` the gap magnitudes): let
``D = sum_j (m - sub(q_j, t_j))`` be the diagonal's loss over the
query's columns.  The job is *settled* when

* ``tlen >= qlen > 0`` — the diagonal reaches the query's end;
* ``D < go + min(ge_ins, ge_del)`` — any path with a gap pays at least
  ``go + min(ge)`` and gains at most ``m`` per query column, so the
  diagonal cell of every column strictly beats every gapped path that
  ends in that column;
* ``h0 > D`` — no diagonal cell reaches the extension floor, so the
  diagonal path is live end to end.

A settled job's :class:`~repro.align.banded.ExtensionResult` is the
closed form :func:`settle` builds; every band contains the diagonal,
so it is the answer of the narrow band, the checked band and the full
band alike.  The walk from a settled endpoint ``(j, j)`` is ``jM``
(:func:`settled` over the clipped traceback job).  DESIGN.md, "Why a
one-mismatch diagonal needs no DP", gives the proof.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.align.banded import ExtensionResult
from repro.align.scoring import AffineGap
from repro.genome.sequence import AMBIGUOUS_CODE

_EMPTY = np.zeros(0, dtype=np.int64)
_EMPTY.flags.writeable = False


@lru_cache(maxsize=16)
def _loss_table(scoring: AffineGap) -> np.ndarray:
    """``(code, code) -> m - sub``: the diagonal's loss at one column,
    built from :meth:`~repro.align.scoring.AffineGap.substitution`, so
    N scores as every kernel scores it."""
    size = AMBIGUOUS_CODE + 1
    return np.array(
        [
            [scoring.match - scoring.substitution(a, b) for b in range(size)]
            for a in range(size)
        ],
        dtype=np.int64,
    )


def _diagonal(queries, targets, h0s, scoring: AffineGap):
    """The settled mask and the per-column substitution scores.

    Returns ``(mask, subs, starts)``: ``mask[k]`` says whether job
    ``k`` is settled; ``subs`` concatenates, job by job, the diagonal's
    substitution scores of the settled jobs, and ``starts`` is where
    each settled job's run begins in it.
    """
    n = len(queries)
    qlens = np.fromiter((len(q) for q in queries), np.int64, n)
    tlens = np.fromiter((len(t) for t in targets), np.int64, n)
    mask = (qlens > 0) & (tlens >= qlens)
    reach = np.flatnonzero(mask)
    if not reach.size:
        return mask, _EMPTY, _EMPTY
    q = np.concatenate([queries[k] for k in reach])
    t = np.concatenate([targets[k][: qlens[k]] for k in reach])
    loss = _loss_table(scoring)[q, t]
    starts = np.zeros(reach.size, dtype=np.int64)
    np.cumsum(qlens[reach][:-1], out=starts[1:])
    d = np.add.reduceat(loss, starts)
    cap = scoring.gap_open + min(scoring.gap_extend_ins, scoring.gap_extend_del)
    h0 = np.fromiter((h0s[k] for k in reach), np.int64, reach.size)
    ok = (d < cap) & (h0 > d)
    mask[reach[~ok]] = False
    keep = np.repeat(ok, qlens[reach])
    lens = qlens[reach[ok]]
    starts = np.zeros(lens.size, dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    return mask, scoring.match - loss[keep], starts


def settled(queries, targets, h0s, scoring: AffineGap) -> np.ndarray:
    """Which ``(query, target, h0)`` jobs the rule settles, as a bool
    array in job order."""
    return _diagonal(queries, targets, h0s, scoring)[0]


def settle(jobs, scoring: AffineGap) -> list[ExtensionResult | None]:
    """Closed-form results for the settled jobs of a wave.

    ``jobs`` are ``(query, target, h0)``; ``out[k]`` is job ``k``'s
    result when the rule settles it, else ``None``.  A settled result
    scores ``gscore = h0 + sum(sub)`` at ``gpos = qlen``; its
    ``lscore`` is ``h0`` plus the first maximum of the prefix sums,
    at ``(i+1, i+1)`` for prefix ``i``, or ``h0`` at ``(0, 0)`` when no
    prefix sum is positive.  It filled no cell and left no band, so
    ``max_off`` and ``cells_computed`` are 0, its band is the job's full
    band and both boundary planes are empty.
    """
    queries = [q for q, _, _ in jobs]
    targets = [t for _, t, _ in jobs]
    h0s = [h0 for _, _, h0 in jobs]
    mask, subs, starts = _diagonal(queries, targets, h0s, scoring)
    out: list[ExtensionResult | None] = [None] * len(jobs)
    if not starts.size:
        return out
    # Prefix sums per job; the first maximum of each job's run.
    prefix = np.cumsum(subs)
    base = np.concatenate(([0], prefix[starts[1:] - 1]))
    lens = np.diff(np.append(starts, subs.size))
    prefix -= np.repeat(base, lens)
    top = np.maximum.reduceat(prefix, starts)
    where = np.arange(subs.size)
    first = np.minimum.reduceat(
        np.where(prefix == np.repeat(top, lens), where, subs.size), starts
    ) - starts
    total = prefix[starts + lens - 1]
    for k, best, at, score, qlen in zip(
        np.flatnonzero(mask).tolist(),
        top.tolist(),
        first.tolist(),
        total.tolist(),
        lens.tolist(),
    ):
        h0 = int(h0s[k])
        tlen = len(targets[k])
        end = at + 1 if best > 0 else 0
        out[k] = ExtensionResult(
            lscore=h0 + max(best, 0),
            lpos=(end, end),
            gscore=h0 + score,
            gpos=qlen,
            max_off=0,
            band=max(qlen, tlen),
            h0=h0,
            qlen=qlen,
            tlen=tlen,
            boundary_e=_EMPTY,
            cells_computed=0,
            terminated_early=False,
            boundary_f=_EMPTY,
        )
    return out
