"""All-vs-all suffix-prefix overlap detection on the overlap kernel.

Long-read assemblers (OLC: overlap-layout-consensus) start from every
dovetail overlap between reads — read A's suffix aligned to read B's
prefix.  That is a banded semi-global DP with exactly the shape of
the paper's fill kernels, so it goes through the same speculate-and-
test contract: every candidate pair is verified on a *narrow* band
(:meth:`~repro.kernels.KernelBackend.overlap_batch`), the band-edge
bound proves most verdicts optimal, and the failures rerun at full
band — the reported overlaps always equal the full-band oracle on the
same job geometry.

The driver is the classic two-stage shape:

1. **candidates** — every k-mer of every read votes on diagonals: a
   k-mer at position ``pa`` of A and ``pb`` of B implies A's suffix
   starting at ``pa - pb`` overlaps B's prefix.  Pairs with enough
   votes on one diagonal survive (repeat k-mers are capped, so a
   low-complexity read cannot go quadratic).  This is one pass over
   sorted arrays — k-mer keys, one sort, per-size-class pair
   expansion and one ``np.unique`` count — with no per-hit Python;
2. **verify** — surviving pairs become overlap jobs (query = A's
   suffix from the voted diagonal, target = B's prefix plus band
   slack), dispatched in batches through the selected kernel backend.

Output is a PAF-like TSV (:meth:`Overlap.to_line`), sorted by
``(a_name, b_name, a_start)`` so runs are byte-comparable across
kernels and batch sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.align.scoring import BWA_MEM_SCORING, AffineGap
from repro.kernels import get_kernel
from repro.obs import names

_ENCODE_BASE = 4
"""Codes 0-3 are real bases; AMBIGUOUS_CODE (4) never indexes."""

MAX_K = 32
"""Longest k-mer with a collision-free int64 key (``4**32`` wraps to 0)."""


@dataclass(frozen=True)
class OverlapParams:
    """Knobs of the overlap driver.

    ``k`` is 1..32 (:data:`MAX_K`); ``accept`` is the score floor as a
    fraction of a perfect overlap (``match * query_length``); ``band``
    is the verification band — sound at any width thanks to the
    full-band rerun, narrow widths just rerun more.
    """

    k: int = 15
    min_shared: int = 3
    min_overlap: int = 50
    accept: float = 0.5
    band: int = 31
    max_occurrences: int = 16
    batch_size: int = 512

    def __post_init__(self) -> None:
        if not 1 <= self.k <= MAX_K:
            raise ValueError(f"k must be in 1..{MAX_K}, got {self.k}")


@dataclass(frozen=True)
class Overlap:
    """One accepted suffix-prefix overlap, PAF-flavoured.

    ``a_start``/``a_end`` index read A (the suffix side, ``a_end ==
    a_len`` by construction); ``b_start``/``b_end`` index read B (the
    prefix side, ``b_start == 0``).  ``proved`` is True when the
    narrow band proved the score optimal without a rerun.
    """

    a_name: str
    a_len: int
    a_start: int
    a_end: int
    b_name: str
    b_len: int
    b_start: int
    b_end: int
    score: int
    band_used: int
    proved: bool

    def to_line(self) -> str:
        """Tab-separated PAF-like row (strand is always ``+``)."""
        return "\t".join(
            str(field)
            for field in (
                self.a_name, self.a_len, self.a_start, self.a_end,
                "+",
                self.b_name, self.b_len, self.b_start, self.b_end,
                self.score, self.band_used,
                "proved" if self.proved else "rerun",
            )
        )


@dataclass(frozen=True)
class _Candidate:
    """A voted pair before verification: A[a_start:] vs B[:t_hi]."""

    a: int
    b: int
    a_start: int


def _kmer_hits(
    reads: list[tuple[str, np.ndarray]], k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every clean k-mer of every read as ``(key, read, pos)`` arrays.

    One ``sliding_window_view`` runs over all reads laid end to end;
    windows that straddle two reads, or contain an ambiguous base
    (which cannot produce a match under the scoring model anyway), are
    masked out.  Rows come out in ``(read, pos)`` order.  Keys are the
    k-mer in base 4: at ``k == 32`` the int64 arithmetic wraps, but
    modulo 2**64 it is still one key per k-mer.
    """
    lengths = np.array([len(codes) for _, codes in reads], dtype=np.int64)
    n_windows = int(lengths.sum()) - k + 1
    if n_windows <= 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.astype(np.int32), empty.astype(np.int32)
    bases = np.concatenate(
        [np.asarray(codes, dtype=np.int64) for _, codes in reads]
    )
    windows = np.lib.stride_tricks.sliding_window_view(bases, k)
    powers = _ENCODE_BASE ** np.arange(k - 1, -1, -1, dtype=np.int64)
    read = np.repeat(np.arange(len(reads), dtype=np.int32), lengths)
    starts = np.cumsum(lengths) - lengths
    pos = (np.arange(len(bases)) - starts[read]).astype(np.int32)
    read, pos = read[:n_windows], pos[:n_windows]
    keep = (pos <= lengths[read] - k) & (windows.max(axis=1) < _ENCODE_BASE)
    return (windows @ powers)[keep], read[keep], pos[keep]


def _candidate_pairs(
    reads: list[tuple[str, np.ndarray]], params: OverlapParams
) -> list[_Candidate]:
    """Diagonal voting: the ordered pairs worth verifying, by ``(a, b)``.

    For an ordered pair ``(a, b)`` every shared k-mer votes for the
    diagonal ``pa - pb`` — the start of A's overlapping suffix.  Only
    non-negative diagonals describe an A-suffix/B-prefix overlap; the
    symmetric ordering handles the rest, and two hits in one read never
    vote.  K-mers seen in more than ``max_occurrences`` places are
    dropped entirely — the standard repeat guard that keeps all-vs-all
    candidate generation near-linear.  The winning diagonal is the
    most-voted one (ties to the *smallest*, i.e. the longest overlap),
    with at least ``min_shared`` votes and ``min_overlap`` suffix.

    One sort groups hits by k-mer.  Pairs are expanded one
    group-size class at a time, ``(G, s)`` hits broadcast to ``(G, s,
    s)`` pairs, so the pair arrays never hold more than one class and
    stay int32 until ``(a, b, diag)`` is packed into one int64 cell
    that ``np.unique`` counts.  Expanding every group at once would
    hold all pairs of all classes in int64 together and raise peak RSS.
    """
    keys, read, pos = _kmer_hits(reads, params.k)
    order = np.argsort(keys)  # votes are counts: order in a group is moot
    group_start = np.flatnonzero(_run_starts(keys[order]))
    group_size = np.diff(np.append(group_start, len(keys)))
    voting = (group_size >= 2) & (group_size <= params.max_occurrences)
    lengths = np.array([len(codes) for _, codes in reads], dtype=np.int64)
    n_reads = len(reads)
    span = int(lengths.max(initial=1))  # > every diagonal
    packed = [np.empty(0, dtype=np.int64)]
    for size in np.unique(group_size[voting]):
        first = group_start[voting & (group_size == size)]
        hits = order[first[:, None] + np.arange(size)]
        hit_read, hit_pos = read[hits], pos[hits]
        a, b = hit_read[:, :, None], hit_read[:, None, :]
        diag = hit_pos[:, :, None] - hit_pos[:, None, :]
        vote = (a != b) & (diag >= 0)
        a = np.broadcast_to(a, vote.shape)[vote].astype(np.int64)
        b = np.broadcast_to(b, vote.shape)[vote]
        packed.append((a * n_reads + b) * span + diag[vote])
    cells, votes = np.unique(np.concatenate(packed), return_counts=True)
    pair, diag = np.divmod(cells, span)
    ranked = np.lexsort((diag, -votes, pair))
    best = ranked[_run_starts(pair[ranked])]
    a, b = np.divmod(pair[best], n_reads)
    diag = diag[best]
    keep = (votes[best] >= params.min_shared) & (
        lengths[a] - diag >= params.min_overlap
    )
    return [
        _Candidate(a=int(x), b=int(y), a_start=int(d))
        for x, y, d in zip(a[keep], b[keep], diag[keep])
    ]


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal ``values``."""
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return first


def find_overlaps(
    reads: list[tuple[str, np.ndarray]],
    params: OverlapParams | None = None,
    scoring: AffineGap = BWA_MEM_SCORING,
    kernel=None,
) -> list[Overlap]:
    """Detect every accepted pairwise overlap among ``reads``.

    ``reads`` are ``(name, codes)`` pairs.  Verification runs on the
    selected kernel backend in batches; any job whose narrow-band
    verdict is not proved optimal reruns at full band, so the emitted
    scores and endpoints are kernel- and band-independent.
    """
    params = params or OverlapParams()
    backend = get_kernel(kernel)
    with obs.span(names.SPAN_OVERLAP_RUN, reads=len(reads)):
        candidates = _candidate_pairs(reads, params)
        if obs.enabled():
            obs.get_registry().counter(
                names.OVERLAP_CANDIDATES_TOTAL,
                "pairs promoted to verification",
            ).inc(len(candidates))
        out: list[Overlap] = []
        reruns = 0
        for lo in range(0, len(candidates), params.batch_size):
            wave = candidates[lo : lo + params.batch_size]
            accepted, wave_reruns = _verify_wave(
                reads, wave, params, scoring, backend
            )
            out.extend(accepted)
            reruns += wave_reruns
        if obs.enabled():
            reg = obs.get_registry()
            reg.counter(
                names.OVERLAP_ACCEPTED_TOTAL, "overlaps accepted"
            ).inc(len(out))
            if reruns:
                reg.counter(
                    names.OVERLAP_RERUNS_TOTAL,
                    "overlap jobs rerun at full band",
                ).inc(reruns)
    out.sort(key=lambda o: (o.a_name, o.b_name, o.a_start))
    return out


def _verify_wave(
    reads: list[tuple[str, np.ndarray]],
    wave: list[_Candidate],
    params: OverlapParams,
    scoring: AffineGap,
    backend,
) -> tuple[list[Overlap], int]:
    """Verify one batch of candidates; returns (accepted, reruns).

    The speculate-and-test step: narrow-band ``overlap_batch`` first,
    then one full-band ``overlap_batch`` over exactly the jobs whose
    band-edge bound failed to prove optimality.
    """
    queries = []
    targets = []
    for cand in wave:
        query = reads[cand.a][1][cand.a_start :]
        t_hi = min(len(reads[cand.b][1]), len(query) + params.band)
        target = reads[cand.b][1][:t_hi]
        queries.append(np.ascontiguousarray(query))
        targets.append(np.ascontiguousarray(target))
    with obs.span(names.SPAN_OVERLAP_WAVE, jobs=len(wave)):
        results = backend.overlap_batch(
            queries, targets, scoring, w=params.band
        )
        retry = [i for i, res in enumerate(results) if not res.optimal]
        if retry:
            full = backend.overlap_batch(
                [queries[i] for i in retry],
                [targets[i] for i in retry],
                scoring,
                w=None,
            )
            for i, res in zip(retry, full):
                results[i] = res
    retried = set(retry)
    accepted: list[Overlap] = []
    for i, (cand, res) in enumerate(zip(wave, results)):
        if res.t_end < 0 or res.t_end < params.min_overlap:
            continue
        qlen = len(queries[i])
        if res.score < int(params.accept * scoring.match * qlen):
            continue
        a_name, a_codes = reads[cand.a]
        b_name, b_codes = reads[cand.b]
        accepted.append(
            Overlap(
                a_name=a_name,
                a_len=len(a_codes),
                a_start=cand.a_start,
                a_end=len(a_codes),
                b_name=b_name,
                b_len=len(b_codes),
                b_start=0,
                b_end=res.t_end,
                score=res.score,
                band_used=res.band,
                proved=i not in retried,
            )
        )
    return accepted, len(retried)


def write_overlaps(handle, overlaps: list[Overlap]) -> None:
    """Write the sorted PAF-like TSV, one row per overlap."""
    for overlap in overlaps:
        handle.write(overlap.to_line() + "\n")
