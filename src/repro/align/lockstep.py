"""The one lockstep banded affine recurrence, and what each caller keeps.

Every batched DP in the repository — seed extension, suffix-prefix
overlap, global gap fill, the global scalar check and the traceback
fill — is one affine-gap H/E/F recurrence, :func:`sweep`, advancing a
batch of jobs one target row at a time (jobs x query columns).  Its
*floor* marks dead cells: :data:`LOCAL_EXTEND` (0, BWA-MEM's
``ksw_extend``) for extension, :data:`GLOBAL` (:data:`NEG_INF`) for
Needleman-Wunsch, and :data:`GLOBAL` with ``h0 = 0`` for overlap.
Each caller keeps one *capture set*, fixed by its DP shape:

* :func:`extend_batch` — each row's best cell and its column, the last
  column and the boundary E/F; reduced to the local and semi-global
  scores and ``max_off``;
* :func:`overlap_ends` — H at each job's last column and at its two
  band-edge cells; reduced by one masked argmax (score, ``t_end``) and
  one band-edge bound;
* :func:`fill_direction_bits` — direction codes (traceback), plus the
  corner and both band-edge cells, reduced to one bound (gap fill);
* :func:`global_edges` — one job's unfloored boundary E/F and corner.

A row copies its captures into ``(rows, n)`` planes, and the bounds
and ends are reduced once, after the sweep.  One planner,
:func:`plan_buckets`, splits every extension wave, traceback wave and
gap-fill wave into cell-balanced buckets, so a short job is not padded
to the wave's longest.

The sweep scores substitutions from a query profile (SSW's layout),
computes only the columns the widest band reaches, and never clamps a
channel at the floor: a dead H is sunk far below it instead, so it can
only breed dead values, and every live value is the clamped
recurrence's.  Its planes are ``int32`` when the scheme and the shapes
prove every value fits, ``int64`` otherwise (:func:`_plane_dtype`).
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

import numpy as np

from repro import obs
from repro.align.banded import (
    ExtensionResult,
    boundary_length,
    check_batch_shapes,
    full_band_for,
    upper_boundary_length,
)
from repro.align.scoring import BWA_MEM_SCORING, AffineGap
from repro.genome.sequence import AMBIGUOUS_CODE
from repro.obs import names

NEG_INF = -(10**9)
"""Effectively minus infinity for integer DP (safe from overflow)."""

DEAD = NEG_INF // 2
"""Values at or below this are unreachable (a drifted :data:`NEG_INF`)."""

LOCAL_EXTEND = 0
GLOBAL = NEG_INF
"""The two floors (see module doc)."""

DIAG, H_IS_E, H_IS_F, E_OPEN, F_OPEN, LIVE = 1, 2, 4, 8, 16, 32
"""The direction code of one cell: the walker's decisions, precomputed.

``DIAG``: H came diagonally from a live predecessor; ``H_IS_E`` /
``H_IS_F``: H equals the E / F channel; ``E_OPEN`` / ``F_OPEN``: that
gap was opened from H one cell up / left (so the walk returns to H
there); ``LIVE``: H is above the floor — the only bit that means
anything on a dead cell, which no walk visits.
"""

_CODE_SHIFTS = np.arange(6, dtype=np.uint8)[:, None, None]
"""Plane ``k`` of the sweep's code planes is bit ``k`` of the code."""

Row = tuple[int, int, np.ndarray, np.ndarray, np.ndarray]


@lru_cache(maxsize=16)
def _substitution_table(scoring: AffineGap) -> np.ndarray:
    """Dense ``(code, code) -> score`` lookup, built once per scheme from
    its own :meth:`~repro.align.scoring.AffineGap.substitution` so
    vectorized fills cannot drift from the scalar oracle.  Kept in
    ``int16`` when the scheme fits, since the query profile is a copy
    of it per job and column."""
    size = AMBIGUOUS_CODE + 1
    table = np.array(
        [[scoring.substitution(a, b) for b in range(size)] for a in range(size)],
        dtype=np.int64,
    )
    narrow = table.astype(np.int16)
    return narrow if (narrow == table).all() else table


_substitution_table(BWA_MEM_SCORING)  # a server's first wave builds nothing


def _pack_codes(planes: np.ndarray, out: np.ndarray) -> None:
    """Shift-or six boolean code planes into ``out``'s ``uint8`` codes."""
    shifted = planes.view(np.uint8) << _CODE_SHIFTS
    np.bitwise_or.reduce(shifted, axis=0, out=out)


def _plane_dtype(
    scoring: AffineGap, qmax: int, tmax: int, h0max: int, floor: int
) -> type[np.integer]:
    """``int32`` when every value of a sweep provably fits it, else ``int64``.

    A live H lies in ``(floor, h0max + match * qmax]``: a path gains at
    most one match per query column, padding included.  A dead H is
    re-sunk to ``floor + NEG_INF`` every row, so E, the diagonal, G
    and F sit at most a gap open, an extension and a substitution
    below it, and the F scan's ``run`` at most ``qmax`` insertion
    extensions above a live H.  The two tests below bound all of
    that, with a margin of ``tmax + qmax + 2`` steps on the low side.
    """
    ge = max(scoring.gap_extend_ins, scoring.gap_extend_del)
    step = scoring.gap_open + ge + max(scoring.match, scoring.mismatch, 1)
    low = floor + NEG_INF - (tmax + qmax + 2) * step
    high = h0max + (qmax + 1) * (scoring.match + ge)
    return np.int32 if low > -(2**31) and high < 2**31 else np.int64


def sweep(
    queries: list[np.ndarray],
    targets: list[np.ndarray],
    scoring: AffineGap,
    h0s: list[int],
    floor: int,
    bands: np.ndarray | None = None,
    codes: np.ndarray | None = None,
) -> Iterator[Row]:
    """The lockstep H/E/F recurrence: yield one row of every job at a time.

    Yields ``(i, a, h, e, run)`` for rows ``i = 0..max tlen``.  The
    arrays are ``(n, cols)`` windows starting at query column ``a``:
    ``h`` is H with dead cells sunk below ``floor``, ``e`` the
    unclamped E channel, and ``run`` the F channel's running max-plus
    scan, so the F value entering column ``j`` of the row is ``run[:,
    j - 1 - a] - j * gap_extend_ins``.  Row ``i`` of job ``k`` is only
    real for ``i <= tlen[k]`` and columns ``j <= qlen[k]``: padded
    cells sit below or right of a job's matrix, and the recurrence
    only looks up and left, so they never reach a real cell.  The
    arrays are reused by later rows.

    ``bands``, when given, confines job ``k`` to ``|i - j| <=
    bands[k]``.  Once the widest band has left every query, the
    remaining rows are all dead and the sweep stops early.  ``codes``,
    when given, is a zeroed ``(max tlen + 1, n, max qlen + 1)``
    ``uint8`` array that receives every cell's direction code.

    The planes are ``int32`` when the scheme and shapes prove every
    value fits (:func:`_plane_dtype`), else ``int64``.
    """
    n = len(queries)
    qlens = np.fromiter((len(q) for q in queries), np.int64, n)
    tlens = np.fromiter((len(t) for t in targets), np.int64, n)
    qmax, tmax = int(qlens.max()), int(tlens.max())
    width = qmax + 1
    dt = _plane_dtype(scoring, qmax, tmax, max(h0s), floor)
    # Scalars in the planes' dtype: NumPy range-checks a Python int
    # against int32 on every operation.
    go = dt(scoring.gap_open)
    ge_i = dt(scoring.gap_extend_ins)
    ge_d = dt(scoring.gap_extend_del)
    dead = dt(floor + NEG_INF)
    floor = dt(floor)

    qpad = np.zeros((n, max(1, qmax)), dtype=np.uint8)
    tpad = np.zeros((max(1, tmax), n), dtype=np.uint8)
    for k, (q, t) in enumerate(zip(queries, targets)):
        qpad[k, : len(q)] = q
        tpad[: len(t), k] = t
    # Query profile: profile[c, k, j - 1] scores target base c against
    # job k's j-th query base, so a row gathers one slice per job.
    profile = _substitution_table(scoring)[:, qpad]
    if profile.itemsize > dt().itemsize:
        profile = profile.astype(dt)
    jobs = np.arange(n)
    cols = np.arange(width)
    gap_i = cols.astype(dt) * ge_i
    opened_gap = gap_i - go
    if bands is None:
        ws, per_job = max(qmax, tmax), False
    else:
        ws = int(bands.max())
        per_job = bool((bands != ws).any())
    if codes is not None:
        # One boolean plane per code bit, shifted and or-ed into the
        # code each row.
        planes = np.zeros((6, n, width), dtype=bool)

    # Row 0 is the F channel decaying from h0.
    h_row = np.asarray(h0s, dtype=dt)[:, None] - go - gap_i
    h_row[:, 0] = h0s
    if bands is not None:
        h_row[cols > bands[:, None]] = dead
    if codes is not None:
        planes[2, :, 1:] = True
        np.equal(h_row[:, 1:], h_row[:, :-1] - (go + ge_i), out=planes[4, :, 1:])
        np.greater(h_row, floor, out=planes[5])
        _pack_codes(planes, codes[0])
    h_prev = np.where(h_row > floor, h_row, dead)
    e_prev = np.full((n, width), dead, dtype=dt)
    run = np.maximum.accumulate(h_prev + opened_gap, axis=1)
    yield 0, 0, h_prev, e_prev, run

    # Row buffers whose first column never changes: no diagonal enters
    # a window's first column, and F cannot start there.
    diag = np.full((n, width), dead, dtype=dt)
    f_row = np.full((n, width), dead, dtype=dt)
    for i in range(1, tmax + 1):
        # Window columns a..b-1: the widest band's reach on this row
        # plus its left neighbour (column 0 on a full-width row).
        a = max(i - ws - 1, 0)
        b = min(qmax, i + ws) + 1
        if a >= b:
            return
        hp = h_prev[:, a:b]
        ep = e_prev[:, a:b]
        e_w = hp - go
        if codes is not None:
            p = planes[:, :, : b - a]
            np.greater_equal(e_w, ep, out=p[3])
        np.maximum(e_w, ep, out=e_w)
        e_w -= ge_d
        d_w = diag[:, : b - a]
        np.add(hp[:, :-1], profile[tpad[i - 1], jobs, a : b - 1], out=d_w[:, 1:])
        # G = the non-F part of H (column 0 is the E channel decaying
        # from h0).
        g = np.maximum(d_w, e_w)
        if per_job:
            # Mask to each job's *own* band before the F scan: a wider
            # bucket-mate's sweep computes cells left of this job's
            # band, and the run-max would chain them into in-band F.
            own = np.abs(cols[a:b] - i) <= bands[:, None]
            e_w = np.where(own, e_w, dead)
            g = np.where(own, g, dead)
        elif i > ws:
            # One band for all: the left neighbour is the only
            # out-of-band column of the window.
            e_w[:, 0] = dead
            g[:, 0] = dead

        # F as a running max-plus scan over G — exact: f[j] =
        # max_{k<j} G[k] - go - (j-k)*ge is the recurrence's closed
        # form, the H-vs-F max collapses (see banded.extend).
        run = g + opened_gap[a:b]
        np.maximum.accumulate(run, axis=1, out=run)
        f_w = f_row[:, : b - a]
        np.subtract(run[:, :-1], gap_i[a + 1 : b], out=f_w[:, 1:])
        h_w = np.maximum(g, f_w)
        if per_job:
            h_w = np.where(own, h_w, dead)

        if codes is not None:
            # The walker's comparisons, in its tie order (bit k = plane
            # k; E_OPEN was taken above, before E overwrote H - go).
            np.equal(h_w[:, 1:], d_w[:, 1:], out=p[0, :, 1:])
            np.equal(h_w, e_w, out=p[1])
            np.equal(h_w, f_w, out=p[2])
            np.equal(f_w[:, 1:], h_w[:, :-1] - (go + ge_i), out=p[4, :, 1:])
            live = np.greater(h_w, floor, out=p[5])
            _pack_codes(p, codes[i, :, a:b])
            h_w = np.where(live, h_w, dead)
        else:
            np.copyto(h_w, dead, where=h_w <= floor)
        if b - a == width:
            h_prev, e_prev = h_w, e_w
        else:
            # Columns right of the window are still dead from row 0;
            # columns left of it are never read again.
            h_prev[:, a:b] = h_w
            e_prev[:, a:b] = e_w
        yield i, a, h_w, e_w, run


ROW_COST_CELLS = 1024
"""Fixed cost of one lockstep row step, in cell units: a bucket may pad
up to what its sweep costs anyway, so a two-job serve wave fills in one
sweep and a window-sized wave splits by shape."""

TRACEBACK_CHUNK_CELLS = 1 << 20
"""Padded cells — bytes, at one ``uint8`` code each — per lockstep
bucket.  The one bound on traceback memory: a wave fills a bucket,
walks its jobs, keeps only their ops and drops it, so a window's peak
does not grow with its read count."""


def plan_buckets(
    queries: list[np.ndarray],
    targets: list[np.ndarray],
    max_cells: int | None = None,
    band: int | None = None,
) -> list[list[int]]:
    """Group jobs, by index, into lockstep buckets balanced by cells.

    Jobs are taken tallest first, so a bucket's first job fixes its row
    count; the next joins while the bucket stays within ``max_cells``
    padded cells and its padding within the sweep's own fixed cost
    (:data:`ROW_COST_CELLS` per row).  A job larger than the bound is
    filled alone.  ``None`` means :data:`TRACEBACK_CHUNK_CELLS`.  With
    one ``band`` for every job, a row costs at most the ``2 * band +
    2`` columns the sweep's window spans.
    """
    if max_cells is None:
        max_cells = TRACEBACK_CHUNK_CELLS
    shapes = [(len(t) + 1, len(q) + 1) for q, t in zip(queries, targets)]
    if band is not None:
        shapes = [(t, min(q, 2 * band + 2)) for t, q in shapes]
    buckets: list[list[int]] = []
    rows = width = real = 0
    for k in sorted(range(len(shapes)), key=shapes.__getitem__, reverse=True):
        t, q = shapes[k]
        if buckets:
            bucket = buckets[-1]
            padded = (len(bucket) + 1) * rows * max(width, q)
            waste = padded - real - t * q
            if padded <= max_cells and waste <= rows * ROW_COST_CELLS:
                bucket.append(k)
                width = max(width, q)
                real += t * q
                continue
        buckets.append([k])
        rows, width, real = t, q, t * q
    return buckets


def extend_batch(
    queries: list[np.ndarray],
    targets: list[np.ndarray],
    h0s: list[int],
    scoring: AffineGap,
    w: int | None = None,
) -> list[ExtensionResult]:
    """Banded seed extensions in lockstep: the extension capture set.

    Returns results in input order, bit-identical to
    :func:`repro.align.banded.extend` (``prune=False``) on every
    field but the execution-shape ones (``cells_computed`` is
    ``min(2w+1, qlen+1) * tlen``; ``terminated_early`` is ``False``).
    ``w=None`` is the batch's full band.  Mismatched input list
    lengths raise :class:`~repro.align.banded.BatchShapeError`.

    ``w`` is resolved over the whole batch, then the batch is swept in
    the cell-balanced buckets of :func:`plan_buckets`; a job's result
    does not depend on its bucket-mates.
    """
    n = check_batch_shapes(queries, targets, h0s)
    if n == 0:
        return []
    if any(h0 < 0 for h0 in h0s):
        raise ValueError("h0 must be non-negative")
    if w is None:
        w = full_band_for(
            max(len(q) for q in queries), max(len(t) for t in targets)
        )
    if w < 0:
        raise ValueError("band must be non-negative")
    out: list[ExtensionResult | None] = [None] * n
    for bucket in plan_buckets(queries, targets, band=w):
        results = _extend_bucket(
            [queries[k] for k in bucket],
            [targets[k] for k in bucket],
            [h0s[k] for k in bucket],
            scoring,
            w,
        )
        for k, res in zip(bucket, results):
            out[k] = res
        if obs.enabled():
            _count_bucket(results, w)
    return out  # type: ignore[return-value]


def _count_bucket(results: list[ExtensionResult], w: int) -> None:
    """The padding counters of one swept bucket: every job is swept
    ``min(2w+1, qmax+1)`` columns wide for ``tmax`` rows."""
    width = min(2 * w + 1, max(r.qlen for r in results) + 1)
    rows = max(r.tlen for r in results)
    real = sum(r.cells_computed for r in results)
    reg = obs.get_registry()
    reg.counter(names.KERNEL_BUCKET_TOTAL).inc()
    reg.histogram(names.KERNEL_BUCKET_JOBS).observe(len(results))
    pad = len(results) * width * rows - real
    if pad:
        reg.counter(names.KERNEL_BUCKET_PAD_CELLS).inc(pad)


def _extend_bucket(
    queries: list[np.ndarray],
    targets: list[np.ndarray],
    h0s: list[int],
    scoring: AffineGap,
    w: int,
) -> list[ExtensionResult]:
    """One bucket's extension sweep at band ``w``."""
    n = len(queries)
    qlens = np.fromiter((len(q) for q in queries), np.int64, n)
    tlens = np.fromiter((len(t) for t in targets), np.int64, n)
    max_q, max_t = int(qlens.max()), int(tlens.max())
    go = scoring.gap_open
    ge_i = scoring.gap_extend_ins
    ge_d = scoring.gap_extend_del
    h0v = np.asarray(h0s, dtype=np.int64)
    lens = list(zip(qlens.tolist(), tlens.tolist()))
    n_bound = [boundary_length(q, t, w) for q, t in lens]
    n_upper = [upper_boundary_length(q, t, w) for q, t in lens]
    max_bound, max_upper = max(n_bound), max(n_upper)

    # Per-row planes, reduced after the sweep: the row's best real
    # cell and its leftmost column, H in the last query column, and
    # the E / F values entering the band's lower / upper neighbours.
    # The H planes hold the sweep's H values, so they take its dtype.
    dt = _plane_dtype(scoring, max_q, max_t, int(h0v.max()), LOCAL_EXTEND)
    jobs = np.arange(n)
    best = np.full((max_t + 1, n), NEG_INF, dtype=dt)
    best_j = np.zeros((max_t + 1, n), dtype=np.int32)
    last_col = np.full((max_t + 1, n), NEG_INF, dtype=dt)
    edge_e = np.zeros((max_bound, n), dtype=np.int64)
    edge_f = np.zeros((max_upper, n), dtype=np.int64)
    # Columns past a job's query are padding, kept out of its row best.
    padded = np.arange(max_q + 1) > qlens[:, None]
    if not padded.any():
        padded = None
    bands = None
    if w < max(max_q, max_t):
        bands = np.full(n, w, dtype=np.int64)
    for i, a, h, e, run in sweep(
        queries, targets, scoring, h0s, LOCAL_EXTEND, bands
    ):
        cols = h.shape[1]
        if i:
            real = h
            if padded is not None:
                real = np.where(padded[:, a : a + cols], NEG_INF, h)
            arg = real.argmax(axis=1)
            best[i] = real[jobs, arg]
            np.add(arg, a, out=best_j[i])
        last_col[i] = _take(h, jobs, qlens - a)
        c = i - w  # E entering (i + 1, c), just below the band
        if 0 <= c < max_bound:
            edge_e[c] = np.maximum(h[:, c - a] - go, e[:, c - a]) - ge_d
        if i < max_upper:  # F entering (i, i + w + 1), just above it
            edge_f[i] = run[:, i + w - a] - (i + w + 1) * ge_i

    # Local score: strict improvement over h0 and every earlier row,
    # so ties keep the smallest row, then the smallest column.
    rows = np.arange(max_t + 1, dtype=np.int32)[:, None]
    best[rows > tlens] = NEG_INF
    prior = np.empty_like(best)
    prior[0] = h0v
    np.maximum(np.maximum.accumulate(best[:-1], axis=0), h0v, out=prior[1:])
    improved = best > prior
    top = best.max(axis=0)
    found = top > h0v
    lscore = np.where(found, top, h0v).tolist()
    lrow = np.where(found, best.argmax(axis=0), 0)
    lcol = np.where(found, best_j[lrow, jobs], 0).tolist()
    offsets = np.abs(best_j - rows)
    offsets[~improved] = 0
    max_off = offsets.max(axis=0).tolist()
    # Semi-global score: the best in-band last-column cell, first row.
    glast = np.where(
        (rows <= tlens) & (np.abs(rows - qlens) <= w), last_col, 0
    )
    gscore = np.maximum(glast.max(axis=0), 0)
    gpos = np.where(gscore > 0, glast.argmax(axis=0), -1).tolist()

    np.maximum(edge_e, 0, out=edge_e)
    np.maximum(edge_f, 0, out=edge_f)
    dense = 2 * w + 1
    lrow, gscore = lrow.tolist(), gscore.tolist()
    return [
        ExtensionResult(
            lscore=lscore[k],
            lpos=(lrow[k], lcol[k]),
            gscore=gscore[k],
            gpos=gpos[k],
            max_off=max_off[k],
            band=w,
            h0=int(h0s[k]),
            qlen=q,
            tlen=t,
            boundary_e=edge_e[: n_bound[k], k].copy(),
            boundary_f=edge_f[: n_upper[k], k].copy(),
            cells_computed=min(dense, q + 1) * t,
            terminated_early=False,
        )
        for k, (q, t) in enumerate(lens)
    ]


def _take(h: np.ndarray, jobs: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``h[jobs, cols]`` with the columns clamped into the window.

    ``cols`` is ``(n,)``, or ``(k, n)`` for ``k`` cells per job in one
    gather, and is left as it was.  A clamped column is not the cell
    asked for, so every caller masks what it read there.  Two ufuncs in
    place of ``np.clip``, whose Python wrapper costs more than the
    gather it guards.
    """
    clamped = np.maximum(cols, 0)
    np.minimum(clamped, h.shape[1] - 1, out=clamped)
    return h[jobs, clamped]


def _edge_bound(
    edges: np.ndarray,
    bands: np.ndarray,
    qlens: np.ndarray,
    tlens: np.ndarray,
    match: int,
    to_corner: bool,
) -> np.ndarray:
    """The band-edge bound of every job, reduced once after the sweep.

    ``edges[0, i, k]`` / ``edges[1, i, k]`` hold H at job ``k``'s edge
    cells ``(i, i -+ bands[k])``.  A band-leaving path first exits
    through an edge cell with at most its banded value; from column
    ``j`` it gains at most ``(qlen - j) * match`` to the last column
    (overlap), or ``min(tlen - i, qlen - j) * match`` to the corner
    (``to_corner``, global gap fill).  A job its band covers gets
    :data:`NEG_INF`.
    """
    rows = np.arange(edges.shape[1])[:, None]
    reach = (rows <= tlens) & (bands < np.maximum(qlens, tlens))
    bound = np.full(len(qlens), NEG_INF, dtype=np.int64)
    for edge, j_edge in zip(edges, (rows - bands, rows + bands)):
        sel = reach & (j_edge >= 0) & (j_edge <= qlens) & (edge > DEAD)
        rest = qlens - j_edge
        if to_corner:
            rest = np.minimum(rest, tlens - rows)
        cand = np.where(sel, edge + rest * match, NEG_INF)
        np.maximum(bound, cand.max(axis=0), out=bound)
    return bound


def overlap_ends(
    queries: list[np.ndarray],
    targets: list[np.ndarray],
    scoring: AffineGap,
    bands: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Banded suffix-prefix overlaps in lockstep: the overlap capture set.

    Returns ``(score, t_end, bound)`` per job: the best in-band
    last-column cell (ties to the smallest row; ``t_end = -1`` and
    ``score = NEG_INF`` when none is live) and the band-edge bound of
    :mod:`repro.align.overlapdp` (``NEG_INF`` for a job its band
    covers).  Each row only copies H at every job's last column and
    band edges into ``(rows, n)`` planes; both are reduced once, after
    the sweep.
    """
    n = len(queries)
    qlens = np.fromiter((len(q) for q in queries), np.int64, n)
    tlens = np.fromiter((len(t) for t in targets), np.int64, n)
    jobs = np.arange(n)
    # H at (i, qlen), (i, i - band) and (i, i + band), one gather a
    # row.  Rows the sweep skips once the band has left every query
    # keep NEG_INF: never a live cell.
    caps = np.full((3, int(tlens.max()) + 1, n), NEG_INF, dtype=np.int64)
    at = np.stack((qlens, -bands, bands))
    rows = sweep(queries, targets, scoring, [0] * n, GLOBAL, bands)
    for i, a, h, _, _ in rows:
        cols = at - a
        cols[1:] += i
        caps[:, i] = _take(h, jobs, cols)
    last, edges = caps[0], caps[1:]

    steps = np.arange(last.shape[0])[:, None]
    fits = (steps <= tlens) & (np.abs(qlens - steps) <= bands)
    last = np.where(fits, last, DEAD)
    t_end = last.argmax(axis=0)  # the first row of the best
    score = last[t_end, jobs]
    found = score > DEAD
    score = np.where(found, score, NEG_INF)
    t_end = np.where(found, t_end, -1)
    bound = _edge_bound(edges, bands, qlens, tlens, scoring.match, False)
    return score, t_end, bound


def fill_direction_bits(
    queries: list[np.ndarray],
    targets: list[np.ndarray],
    scoring: AffineGap,
    h0s: list[int],
    floor: int,
    bands: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sweep with direction codes: the traceback and gap-fill captures.

    Returns ``(codes, score, bound)``.  ``codes`` is ``(tmax+1, n,
    qmax+1)`` ``uint8`` and job ``k``'s matrix is ``codes[:tlen+1, k,
    :qlen+1]`` (padded cells sit strictly right of / below it).
    ``score[k]`` is H at the job's corner (``NEG_INF`` if dead);
    ``bound[k]`` the gap-fill band-edge bound of
    :mod:`repro.align.globalbatch` (``NEG_INF`` for a job its band
    covers, or without ``bands``), reduced from edge planes after the
    sweep.
    """
    n = len(queries)
    qlens = np.fromiter((len(q) for q in queries), np.int64, n)
    tlens = np.fromiter((len(t) for t in targets), np.int64, n)
    tmax = int(tlens.max())
    jobs = np.arange(n)
    codes = np.zeros((tmax + 1, n, int(qlens.max()) + 1), dtype=np.uint8)
    score = np.full(n, NEG_INF, dtype=np.int64)
    if bands is not None:
        edges = np.full((2, tmax + 1, n), NEG_INF, dtype=np.int64)
        at = np.stack((-bands, bands))
    by_end = np.argsort(tlens, kind="stable")
    end_at = np.searchsorted(tlens[by_end], np.arange(tmax + 2)).tolist()
    rows = sweep(queries, targets, scoring, h0s, floor, bands, codes)
    for i, a, h, _, _ in rows:
        done = by_end[end_at[i] : end_at[i + 1]]  # jobs ending at row i
        if done.size:
            col = qlens[done] - a
            ok = (col >= 0) & (col < h.shape[1])
            corner = _take(h, done, col)
            score[done] = np.where(ok & (corner > floor), corner, NEG_INF)
        if bands is not None:
            edges[:, i] = _take(h, jobs, at + (i - a))
    if bands is None:
        return codes, score, np.full(n, NEG_INF, dtype=np.int64)
    bound = _edge_bound(edges, bands, qlens, tlens, scoring.match, True)
    return codes, score, bound


def global_edges(
    query: np.ndarray,
    target: np.ndarray,
    scoring: AffineGap,
    h0: int,
    w: int,
) -> tuple[int, np.ndarray, np.ndarray]:
    """One banded global fill: the global scalar check's capture set.

    Returns ``(score, lower_e, upper_f)``: H at the corner, the E
    values entering the below-band cells ``(j+w+1, j)`` and the F
    values entering the above-band cells ``(i, i+w+1)``, unfloored,
    with a dead cell's value reported as exactly :data:`NEG_INF`.
    """
    qlen, tlen = len(query), len(target)
    go = scoring.gap_open
    ge_i = scoring.gap_extend_ins
    ge_d = scoring.gap_extend_del
    lower_e = np.full(boundary_length(qlen, tlen, w), NEG_INF)
    upper_f = np.full(upper_boundary_length(qlen, tlen, w), NEG_INF)
    bands = np.array([w]) if w < max(qlen, tlen) else None
    score = NEG_INF
    rows = sweep([query], [target], scoring, [h0], GLOBAL, bands)
    for i, a, h, e, run in rows:
        c = i - w
        if 0 <= c < lower_e.size:
            lower_e[c] = max(h[0, c - a] - go, e[0, c - a]) - ge_d
        if i < upper_f.size:
            upper_f[i] = run[0, i + w - a] - (i + w + 1) * ge_i
        if i == tlen:
            score = int(h[0, qlen - a])
    lower_e[lower_e <= DEAD] = NEG_INF
    upper_f[upper_f <= DEAD] = NEG_INF
    return (score if score > DEAD else NEG_INF), lower_e, upper_f
