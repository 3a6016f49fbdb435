"""Inter-sequence striped batch kernel with shape-bucketing.

The wavefront backend vectorizes *within* one extension — across the
slots of an anti-diagonal — the way one systolic array schedules one
matrix.  The accelerator's throughput, and that of SSW/SALoBa-style
software aligners, comes from the other axis: many independent
extensions advancing in lockstep.  This backend is that
inter-sequence rendition.

Layout.  Each job's band is re-indexed by its **band offset**
``k = j - i + w`` (``k`` in ``[0, 2w]``), so one target row of one job
is a fixed-width stripe of ``W = 2w + 1`` cells regardless of the row
number.  A batch of jobs is then a dense ``(n_jobs, W)`` array per
row, and the whole batch advances one target row per step: every
recurrence channel is a handful of whole-array ufuncs.  In this
coordinate frame the dependencies line up as

* diagonal ``(i-1, j-1)`` — same ``k`` on the previous row;
* E channel ``(i-1, j)`` — ``k + 1`` on the previous row (one shifted
  view, with a permanent zero guard column at index ``W``);
* F channel ``(i, j-1)`` — ``k - 1`` on the same row, folded into one
  running max-plus ``np.maximum.accumulate`` scan per row (the same
  lossless reformulation the scalar kernel uses; the per-``k`` decay
  constant ``(i - w) * ge`` cancels between the scan and the
  read-back, so the scan is row-independent).

Substitution scores are never materialized: a guard-padded transposed
query plane lines the chars up so that row ``i``'s stripe is ``W``
consecutive rows, and one equality compare per row (with target Ns
pre-rewritten to the pad code, folding the ambiguity rule into the
compare) yields the match mask the diagonal consumes directly.  Score
accumulation (local/semi-global scores, ``max_off``, both boundary
channels) is split between tiny per-row reductions — run while the
row's stripe is cache-hot, into ``(rows, n_jobs)`` accumulator
planes — and vectorized post-passes over those planes, so no H-cube
is ever materialized and the post-passes touch only ``O(rows x jobs)``
data.  The boundary-F capture costs nothing extra: in ``k``-space its
source ``max_k(H + k * ge)`` provably equals the F scan's own last
column plus ``gap_open``, which the recurrence computes anyway.

Shape-bucketing.  A full-band wave (``w`` covers its longest job)
would be rerouted to the dense layout in every group (see below), so
it goes to :func:`repro.align.lockstep.extend_batch` whole, and the
lockstep planner buckets it by cells.  For a narrow band, in the
striped layout a job's *query* length is free — the stripe is ``2w +
1`` wide no matter how long the query — so the padding cost of a
ragged batch is driven by target length (sweep rows) alone.
``extend_batch`` classes each job by the
geometric (power-of-two) classes of its lengths, then merges classes
(shortest targets first) into sweep groups of at least
:data:`MIN_BUCKET_JOBS` jobs: splitting a batch saves padded rows but
pays a fixed per-row sweep overhead, so small classes are cheaper
ridden along in a bigger group than swept alone.  Degenerate jobs
(empty sequences, or longer than :data:`MAX_DENSE_LENGTH`) fall back
per job to the one lockstep sweep
(:func:`repro.align.lockstep.extend_batch`), and so do groups whose
band is so wide the stripe would be wider than the row layout itself
(``2w + 1 > max_q + 1``), where it is the cheaper dense layout.  Both
reroutes are bit-identical, so the choice is purely a cost model.

Semantics are bit-identical to :func:`repro.align.banded.extend`
(``prune=False``) and :func:`repro.align.lockstep.extend_batch` on
everything observable — scores, boundary E/F captures, tie-breaking —
with the usual execution-shape exemptions (``cells_computed`` uses the
lockstep formula; ``terminated_early`` is always ``False``).  The
ragged-batch conformance suite (``tests/kernels/``) enforces this per
job across all three backends.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.align import lockstep
from repro.align.banded import (
    ExtensionResult,
    check_batch_shapes,
    full_band_for,
    shape_class,
)
from repro.align.overlapdp import OverlapResult, overlap_batch_lockstep
from repro.align.scoring import AffineGap
from repro.genome.sequence import AMBIGUOUS_CODE
from repro.obs import names

_PAD = 64
"""Query pad code (outside the 3-bit alphabet, never equal to a base)."""

MIN_BUCKET_JOBS = 512
"""Target occupancy of one sweep group.  Shape classes are merged
(shortest targets first) until a group carries at least this many
jobs — below that, the fixed per-row cost of a separate sweep
outweighs the padded rows a split would save."""

MAX_DENSE_LENGTH = 4096
"""Jobs with a sequence longer than this skip the dense packed sweep
and fall back to the lockstep sweep one job at a time — one
outlier must not force a whole group's padded arrays to its size."""

ROW_SWEEP_COST_CELLS = 65536
"""Cost-model constant for group coalescing: the fixed per-row
dispatch cost of one lockstep sweep step, expressed in stripe-cell
units (roughly alpha / beta for per-row cost alpha + beta * cells).
Merging a short-target group into the next, longer one saves the
short group's entire per-row fixed cost and pays its jobs' padding to
the longer sweep; the merge happens while the fixed cost dominates."""


def _sweep_bucket(
    queries: list[np.ndarray],
    targets: list[np.ndarray],
    h0s: list[int],
    scoring: AffineGap,
    w_run: int,
    w_report: int,
) -> list[ExtensionResult]:
    """Lockstep banded sweep of one sweep group.

    ``w_run`` is the band the fill actually uses; ``w_report`` the one
    the caller asked for and the results carry.  They differ only when
    ``w_report`` exceeds the group's full-band size — every cell of
    every matrix is in band either way, so the scores are identical
    and only the stripe width (and with it the work) shrinks.
    """
    n = len(queries)
    w = w_run
    W = 2 * w + 1

    go = scoring.gap_open
    ge_i = scoring.gap_extend_ins
    ge_d = scoring.gap_extend_del
    m = scoring.match
    x = scoring.mismatch

    qlens = np.array([len(q) for q in queries], dtype=np.int64)
    tlens = np.array([len(t) for t in targets], dtype=np.int64)
    max_q = int(qlens.max())
    max_t = int(tlens.max())
    jobs_idx = np.arange(n)

    # Jobs are swept in descending target-length order, so the jobs
    # still inside their targets at row i form a prefix of the job
    # axis, and every per-row op slices down to that prefix — the
    # padded tail rows of a ragged group cost (almost) nothing.  The
    # permutation is undone on the results before returning.
    order = np.argsort(-tlens, kind="stable")
    queries = [queries[i] for i in order]
    targets = [targets[i] for i in order]
    h0s = [h0s[i] for i in order]
    qlens = qlens[order]
    tlens = tlens[order]
    h0v = np.array(h0s, dtype=np.int64)
    hist = np.bincount(tlens, minlength=max_t + 1)
    active_count = n - np.cumsum(hist)  # [i - 1] = jobs with tlen >= i

    # Scores are bounded by h0 + m * steps; run the whole sweep in the
    # narrowest dtype whose range provably holds every intermediate
    # (the unclamped E and F terms dip as low as -2 * bound, hence the
    # half-range thresholds) — each halving of the state width halves
    # the memory traffic of every stripe pass.  Either way the results
    # are exact.
    bound = int(h0v.max()) + (m + x + go + max(ge_i, ge_d) * (W + 1)) * (
        max_q + max_t + W + 2
    )
    if bound < 2**14:
        dt = np.int16
    elif bound < 2**30:
        dt = np.int32
    else:
        dt = np.int64

    # Shifted query plane: qxT holds the query so that row ``r + k``
    # is the query char consumed by cell (i = r + 1, k) — i.e.
    # query[(i - w + k) - 1] — with the pad code everywhere the index
    # falls outside the query.  Rows ``i - 1 .. i - 1 + W`` of qxT are
    # then exactly row i's stripe of query chars, and one vectorized
    # compare against the target row yields the whole match mask.  All
    # stripes live in a (W, n) orientation — jobs on the contiguous
    # axis — so both the per-row compares and every reduction down the
    # stripe (row max, F scan) run along numpy's fast axis.
    qx = np.full((n, max_t + W - 1), _PAD, dtype=np.int16)
    for k, q in enumerate(queries):
        # Chars past column max_t + w can never pair with a row <= max_t
        # (j <= i + w), so a long query is clipped to the reachable part.
        reach = min(len(q), max_t + w)
        qx[k, w : w + reach] = q[:reach]
    qxT = np.ascontiguousarray(qx.T)
    tpad = np.full((n, max_t), _PAD - 1, dtype=np.int16)
    for k, t in enumerate(targets):
        tpad[k, : len(t)] = t
    # N never matches (matching the scalar kernel and the oracle):
    # rewriting target Ns to the target pad code — which no query
    # char, N or pad included, ever equals — folds the ambiguity rule
    # into the equality compare itself.
    tpad[tpad == AMBIGUOUS_CODE] = _PAD - 1
    tpadT = np.ascontiguousarray(tpad.T)

    kvec = np.arange(W, dtype=dt)
    kge = kvec * dt(ge_i)
    kcol = kvec[:, None]  # (W, 1), broadcasts across jobs
    # Materialized (W, n) per-slot constants: whole-array ufuncs beat
    # the column-broadcast forms by 2-3x at these shapes.
    kge_full = np.ascontiguousarray(
        np.broadcast_to(kge[:, None], (W, n))
    )
    fterm_full = np.ascontiguousarray(
        np.broadcast_to((kge - go)[:, None], (W, n))
    )

    # Row max + leftmost slot in ONE reduction: pack H and the
    # reversed slot index into H * C + (C - 1 - k) — distinct scores
    # stay ordered, ties prefer the smallest k — whenever the packed
    # value provably fits the dtype (numpy's per-row argmax is a
    # scalar loop; one more amax is not).
    c_shift = (W - 1).bit_length()
    C = 1 << c_shift
    # An int16 state never packs (the shifted scores don't fit); it
    # takes the unpacked path below, whose narrow planes are cheaper
    # than widening every combine to int32 would be.
    limit = 2**31 - 1 if dt is np.int32 else 2**63 - 1
    packed = dt is not np.int16 and bound * C + C - 1 <= limit
    revk = np.ascontiguousarray(
        np.broadcast_to((C - 1 - kcol).astype(dt), (W, n))
    )

    # Per-row accumulator planes: the sweep keeps, for every target
    # row, just the handful of per-job scalars the score post-passes
    # need — the (leftmost) row max and its slot, the column-qlen
    # cell, the lower-edge H/E values, and the F scan's last column.
    # These reductions run while the row's stripe is cache-hot, and
    # the post-passes then touch only O(rows x jobs) data instead of
    # re-traversing an H-cube.
    if packed:
        RKC = np.zeros((max_t + 1, n), dtype=dt)  # packed row max/slot
    else:
        # Unpacked row max + leftmost slot: one narrow amax, then the
        # leftmost maximizer as the *largest reversed index* among the
        # ties — max(eq * (W - 1 - k)) — which stays a fast axis-0
        # reduction where a per-row argmax would be a scalar loop.
        # RK holds the reversed value W - 1 - k until the post-pass.
        RB = np.zeros((max_t + 1, n), dtype=dt)  # row max of H
        RK = np.zeros((max_t + 1, n), dtype=np.int16)  # W - 1 - slot
        eqb = np.empty((W, n), dtype=bool)
        rev16 = np.ascontiguousarray(
            np.broadcast_to((W - 1 - kcol).astype(np.int16), (W, n))
        )
        sl16 = np.empty((W, n), dtype=np.int16)
    GL = np.zeros((max_t + 1, n), dtype=dt)  # H at column qlen
    H0 = np.zeros((max_t + 1, n), dtype=dt)  # H at slot 0 (lower edge)
    E0 = np.zeros((max_t + 1, n), dtype=dt)  # E at slot 0 (lower edge)
    RL = np.zeros((max_t + 1, n), dtype=dt)  # F scan's last column

    # Row stripes carry a permanent zero guard row at index W, so the
    # E channel's ``k + 1`` read never wraps.
    h_full = np.zeros((W + 1, n), dtype=dt)
    h_prev_full = np.zeros((W + 1, n), dtype=dt)
    e_full = np.zeros((W + 1, n), dtype=dt)
    e_prev_full = np.zeros((W + 1, n), dtype=dt)

    # Row 0: seed score at j = 0 (slot w), decaying init-row F gap to
    # the right, dead past the band or the query.
    h_prev_full[w, :] = h0v
    if w >= 1:
        js = np.arange(1, w + 1, dtype=np.int64)
        row0 = np.maximum(0, h0v[None, :] - go - js[:, None] * ge_i)
        row0[js[:, None] > qlens[None, :]] = 0
        h_prev_full[w + 1 : W, :] = row0
    if packed:
        comb = np.empty((W, n), dtype=dt)
        np.multiply(h_prev_full[:W], C, out=comb)
        np.add(comb, revk, out=comb)
        np.amax(comb, axis=0, out=RKC[0])
    else:
        np.amax(h_prev_full[:W], axis=0, out=RB[0])
        np.equal(h_prev_full[:W], RB[0][None, :], out=eqb)
        np.multiply(eqb, rev16, out=sl16)
        np.amax(sl16, axis=0, out=RK[0])
    GL[0] = h_prev_full[np.minimum(qlens + w, W - 1), jobs_idx]

    # The query-kill mask (k <= qlen - i + w) loses exactly one slot
    # per job per row, so it is maintained by a one-slot scatter
    # instead of a fresh whole-stripe comparison; row W absorbs the
    # not-yet-started scatters, slot 0 the long-finished ones (both
    # idempotent).  Initialized to row 0's state, k <= qlen + w.
    pred = np.less_equal(
        np.arange(W + 1, dtype=np.int64)[:, None], (qlens + w)[None, :]
    )

    # Scratch, reused every row; every ufunc writes through out=.
    diag = np.empty((W, n), dtype=dt)
    eq_s = np.empty((W, n), dtype=bool)
    lv_s = np.empty((W, n), dtype=bool)
    g = np.empty((W, n), dtype=dt)
    run = np.empty((W, n), dtype=dt)
    run2 = np.empty((W, n), dtype=dt)
    f = np.zeros((W, n), dtype=dt)  # slot 0 stays 0 (no in-band left)
    kcut = np.empty(n, dtype=np.int64)
    scat = np.empty(n, dtype=np.int64)
    kq_gather = np.empty(n, dtype=np.int64)
    qlw = qlens + w
    mx = dt(m + x)

    for i in range(1, max_t + 1):
        na = int(active_count[i - 1])
        hp = h_prev_full[:W, :na]
        hps = h_prev_full[1:, :na]
        hc = h_full[:W, :na]
        ec = e_full[:W, :na]
        eps = e_prev_full[1:, :na]
        ji = jobs_idx[:na]

        # E channel: k + 1 on the previous row (guarded shifted views).
        # Stored UNCLAMPED: whenever the true (clamped) E is positive
        # the unclamped chain equals it exactly (by induction the
        # clamp only ever bites at zero crossings), and everywhere the
        # true E is zero the surrogate is <= 0 — harmless, because H
        # is floored by F >= 0 below and the boundary-E post-pass
        # re-floors at zero itself.  Dropping the clamp saves a whole
        # stripe pass per row.
        np.subtract(hps, go, out=ec)
        np.maximum(ec, eps, out=ec)
        np.subtract(ec, ge_d, out=ec)

        # Init column (j = 0, slot w - i) while the band touches it;
        # E := H there, as in the row kernels.
        if i <= w:
            k0 = w - i
            initv = np.maximum(0, h0v[:na] - go - i * ge_d)
            ec[k0, :] = initv

        # Diagonal: same k on the previous row.  The match mask comes
        # from one compare of qxT's stripe rows against the target
        # row; ANDing in liveness (H > 0) folds the dead-predecessor
        # rule into the same mask, so the diagonal is just
        # ``(hp - x) + mask * (m + x)`` — a dead cell lands at
        # ``hp - x = -x <= 0``, which H's F-floor erases exactly like
        # the row kernels' explicit zero.
        dg = diag[:, :na]
        gg = g[:, :na]
        eqw = eq_s[:, :na]
        lvw = lv_s[:, :na]
        np.equal(qxT[i - 1 : i - 1 + W, :na], tpadT[i - 1, :na], out=eqw)
        np.greater(hp, 0, out=lvw)
        np.logical_and(eqw, lvw, out=eqw)
        np.multiply(eqw, mx, out=dg)
        np.add(dg, hp, out=dg)
        np.subtract(dg, x, out=dg)
        np.maximum(dg, ec, out=gg)
        if i <= w:
            np.maximum(gg[k0], initv, out=gg[k0])

        # F channel: running max-plus scan along k.  The absolute
        # column decay j * ge_i splits into k * ge_i plus a constant
        # per row that cancels between scan and read-back.  The prefix
        # max runs as log-doubling shifted maxima — numpy's own
        # ``maximum.accumulate`` is a scalar loop, while each doubled
        # shift stays a vectorized whole-array maximum.  Ping-ponging
        # between two scratch planes keeps every step overlap-free
        # (an in-place shifted maximum makes numpy buffer-copy the
        # input first).
        rn = run[:, :na]
        rn2 = run2[:, :na]
        ff = f[:, :na]
        np.add(gg, fterm_full[:, :na], out=rn)
        shift = 1
        src, dst = rn, rn2
        while shift < W:
            np.maximum(src[shift:], src[:-shift], out=dst[shift:])
            dst[:shift] = src[:shift]
            src, dst = dst, src
            shift <<= 1
        # F is left UNCLAMPED too, which drops H's explicit zero floor
        # with it: every negative surrogate H sits where the true H is
        # zero (positives are untouched — a positive F read-back never
        # crossed the clamp), and every consumer — liveness, the
        # row/semi-global maxima against scores >= 0, the boundary
        # post-passes — floors negatives back to the exact zeros.
        # Slot 0 keeps its permanent true zero (no in-band left
        # neighbor), so the init column still floors like the row
        # kernels'.
        np.subtract(src[:-1], kge_full[1:, :na], out=ff[1:])

        np.maximum(gg, ff, out=hc)

        # Kill cells past each job's query (k > qlen - i + w): the pad
        # region is strictly right of every valid cell, so its values
        # never feed a valid cell — but they must not reach the score
        # post-passes, and a zeroed H keeps the next row's diagonal
        # and E reads dead too (matching the row kernels' masking).
        kc = kcut[:na]
        sc_i = scat[:na]
        np.subtract(qlw[:na], i, out=kc)
        np.add(kc, 1, out=sc_i)
        np.minimum(sc_i, W, out=sc_i)
        np.maximum(sc_i, 0, out=sc_i)
        pred[sc_i, ji] = False
        np.multiply(hc, pred[:W, :na], out=hc)

        # Per-row accumulator stores, cache-hot: row max + leftmost
        # slot, the column-qlen cell (slot kcut, exactly the last
        # valid slot when it is in the stripe), the lower-edge H/E
        # values, and the F scan's last column.
        if packed:
            cb = comb[:, :na]
            np.multiply(hc, C, out=cb)
            np.add(cb, revk[:, :na], out=cb)
            np.amax(cb, axis=0, out=RKC[i, :na])
        else:
            np.amax(hc, axis=0, out=RB[i, :na])
            np.equal(hc, RB[i][None, :na], out=eqb[:, :na])
            np.multiply(eqb[:, :na], rev16[:, :na], out=sl16[:, :na])
            np.amax(sl16[:, :na], axis=0, out=RK[i, :na])
        kg = kq_gather[:na]
        np.minimum(kc, W - 1, out=kg)
        np.maximum(kg, 0, out=kg)
        GL[i, :na] = hc[kg, ji]
        H0[i, :na] = hc[0]
        E0[i, :na] = ec[0]
        RL[i, :na] = src[W - 1]

        h_full, h_prev_full = h_prev_full, h_full
        e_full, e_prev_full = e_prev_full, e_full

    if packed:
        # Unpack the fused row max / leftmost slot planes.  The
        # arithmetic right shift floors, so the decomposition holds
        # for the negative row maxima the unclamped channels produce.
        RB = RKC >> c_shift
        RK = np.bitwise_and(RKC, C - 1)
        np.subtract(C - 1, RK, out=RK)
    else:
        RK = (W - 1) - RK  # un-reverse the slot indices

    # ---- post-passes over the accumulator planes -----------------------

    rows = np.arange(max_t + 1, dtype=np.int64)
    active_rows = rows[:, None] <= tlens[None, :]  # (T+1, n)

    # Local score: the strict-improvement row scan, vectorized across
    # jobs (rows past a job's target carry garbage and are masked out;
    # they sit after every valid row, so they cannot inflate the
    # running prefix seen by a valid row).
    rb = np.where(active_rows, RB, 0).T  # (n, T+1)
    argj = RK.T + (rows[None, :] - w)  # first max <=> leftmost column
    running = np.maximum.accumulate(np.maximum(rb, h0v[:, None]), axis=1)
    prev = np.empty_like(running)
    prev[:, 0] = h0v
    prev[:, 1:] = running[:, :-1]
    improved = rb > prev
    any_imp = improved.any(axis=1)
    last = max_t - np.argmax(improved[:, ::-1], axis=1)
    last = np.where(any_imp, last, 0)
    lscore = np.where(any_imp, rb[jobs_idx, last], h0v)
    lpos_i = np.where(any_imp, last, 0)
    lpos_j = np.where(any_imp, argj[jobs_idx, last], 0)
    offs = np.where(improved, np.abs(argj - rows[None, :]), 0)
    max_off = offs.max(axis=1)

    # Semi-global score: column qlen is slot qlen - i + w, in the
    # stripe exactly when |i - qlen| <= w (the per-row gather already
    # captured it); first max <=> the strict ascending-row improvement
    # scan of the row kernels.
    kq = qlens[None, :] - rows[:, None] + w  # (T+1, n)
    gok = (kq >= 0) & (kq < W) & active_rows
    gv = np.where(gok, GL, 0)
    gbest = gv.max(axis=0)
    garg = gv.argmax(axis=0)
    has_g = gbest > 0
    gscore = np.where(has_g, gbest, 0)
    gpos = np.where(has_g, garg, -1)

    # Boundary E: the value entering the shaded region at column
    # bj = i - w, from the captured lower-edge H/E channels.
    n_bound = np.minimum(qlens, tlens - w - 1) + 1
    np.clip(n_bound, 0, None, out=n_bound)
    n_bound[tlens <= w] = 0
    max_bound = int(n_bound.max(initial=0))
    boundary_e = np.zeros((n, max(1, max_bound)), dtype=np.int64)
    if w == 0:
        # Degenerate band: row 0's boundary-E capture at (1, 0) — the
        # generic capture below runs from i >= 1 (see the scalar
        # kernel's matching special case).
        first = n_bound > 0
        boundary_e[first, 0] = np.maximum(0, h0v[first] - go - ge_d)
    if max_bound > 0:
        bjs = np.arange(max_bound, dtype=np.int64)
        rows_be = bjs + w
        vals = np.maximum(
            0,
            np.maximum(H0[rows_be] - go, E0[rows_be]) - ge_d,
        )
        maskb = (
            (rows_be[:, None] >= 1)
            & (bjs[:, None] < n_bound[None, :])
            & (rows_be[:, None] + 1 <= tlens[None, :])
        )
        bev = boundary_e[:, :max_bound].T
        bev[maskb] = vals[maskb]

    # Boundary F: the cap entering the above-band region at row i; the
    # decay constants collapse to -(go + (2w + 1) * ge_i) in k-space.
    # The source max_k(H + k * ge_i) equals the F scan's last column
    # plus gap_open: H = max(G, F), every G term sits inside the
    # scan's running max already, every F term reads back from it
    # (F[k] + k*ge = max(k*ge, run[k-1])), and dead/pad cells carry
    # G = 0, so all the extra terms produce caps that clamp to zero.
    # The sweep's own scan thus doubles as the capture, for free.
    n_upper = np.minimum(tlens, qlens - w - 1) + 1
    np.clip(n_upper, 0, None, out=n_upper)
    n_upper[qlens <= w] = 0
    max_upper = int(n_upper.max(initial=0))
    boundary_f = np.zeros((n, max(1, max_upper)), dtype=np.int64)
    has_upper = n_upper > 0
    boundary_f[has_upper, 0] = np.maximum(
        0, h0v[has_upper] - go - (w + 1) * ge_i
    )
    if max_upper > 1:
        rows_bf = np.arange(1, max_upper, dtype=np.int64)
        caps = np.maximum(
            0, RL[rows_bf].astype(np.int64) - W * ge_i
        )
        maskf = rows_bf[:, None] < n_upper[None, :]
        bfv = boundary_f[:, 1:max_upper].T
        bfv[maskf] = caps[maskf]

    # Assemble in sweep order, scatter back to input order (undoing
    # the target-length sort).  tolist() turns each plane into plain
    # Python ints in one pass, far cheaper than per-element int().
    ls_l = lscore.tolist()
    li_l = lpos_i.tolist()
    lj_l = lpos_j.tolist()
    gs_l = gscore.tolist()
    gp_l = gpos.tolist()
    mo_l = max_off.tolist()
    ql_l = qlens.tolist()
    tl_l = tlens.tolist()
    nb_l = n_bound.tolist()
    nu_l = n_upper.tolist()
    dense = 2 * w_report + 1
    out: list[ExtensionResult | None] = [None] * n
    for k, orig in enumerate(order.tolist()):
        out[orig] = ExtensionResult(
            lscore=ls_l[k],
            lpos=(li_l[k], lj_l[k]),
            gscore=gs_l[k],
            gpos=gp_l[k],
            max_off=mo_l[k],
            band=w_report,
            h0=h0s[k],
            qlen=ql_l[k],
            tlen=tl_l[k],
            boundary_e=boundary_e[k, : nb_l[k]].copy(),
            boundary_f=boundary_f[k, : nu_l[k]].copy(),
            cells_computed=min(dense, ql_l[k] + 1) * tl_l[k],
            terminated_early=False,
        )
    return out  # type: ignore[return-value]


def extend_batch(
    queries: list[np.ndarray],
    targets: list[np.ndarray],
    h0s: list[int],
    scoring: AffineGap,
    w: int | None = None,
) -> list[ExtensionResult]:
    """Shape-bucketed striped banded extension for a batch of jobs.

    Results come back **in input order, one per job** — bucketing is
    an internal permutation that is always undone (the order contract
    is property-tested across backends).  Mismatched input list
    lengths raise :class:`~repro.align.banded.BatchShapeError`.
    """
    n = check_batch_shapes(queries, targets, h0s)
    if n == 0:
        return []
    for h0 in h0s:
        if h0 < 0:
            raise ValueError("h0 must be non-negative")

    qlens = [len(q) for q in queries]
    tlens = [len(t) for t in targets]
    full = full_band_for(max(qlens), max(tlens))
    if w is None:
        w = full
    if w < 0:
        raise ValueError("band must be non-negative")
    if w >= full:
        # A full-band wave: every stripe group would be wider than its
        # row layout and take the dense reroute below, so the lockstep
        # sweep plans the whole wave at once.
        return lockstep.extend_batch(queries, targets, h0s, scoring, w=w)

    buckets: dict[tuple[int, int], list[int]] = {}
    fallback: list[int] = []
    for idx in range(n):
        ql, tl = qlens[idx], tlens[idx]
        if ql == 0 or tl == 0 or max(ql, tl) > MAX_DENSE_LENGTH:
            fallback.append(idx)
        else:
            # Target class first: in the striped layout the sweep
            # length (and with it the padding cost) is set by the
            # target; query raggedness is absorbed by the stripe.
            key = (shape_class(tl), shape_class(ql))
            buckets.setdefault(key, []).append(idx)

    # Merge shape classes (shortest targets first) into sweep groups
    # of at least MIN_BUCKET_JOBS jobs: a small class rides along in a
    # bigger group instead of paying its own per-row sweep overhead.
    groups: list[list[int]] = []
    pending: list[int] = []
    for key in sorted(buckets):
        pending.extend(buckets[key])
        if len(pending) >= MIN_BUCKET_JOBS:
            groups.append(pending)
            pending = []
    if pending:
        groups.append(pending)

    # Cost-model coalescing (see ROW_SWEEP_COST_CELLS): absorb a group
    # into the next, longer-target one while the per-row fixed cost it
    # stops paying exceeds the padded cells its jobs start paying.
    # The active-prefix sweep makes that padding cheaper still — a
    # short job drops out of the merged sweep the row its target ends.
    coalesced: list[list[int]] = []
    for idxs in groups:
        if coalesced:
            prev = coalesced[-1]
            t_prev = max(tlens[i] for i in prev)
            t_next = max(tlens[i] for i in idxs)
            width = min(2 * w + 1, max(qlens[i] for i in prev) + 1)
            if t_prev * ROW_SWEEP_COST_CELLS > width * len(prev) * (
                t_next - t_prev
            ):
                coalesced[-1] = prev + idxs
                continue
        coalesced.append(idxs)
    groups = coalesced

    out: list[ExtensionResult | None] = [None] * n
    stripe_groups: list[int] = []
    pad_cells = 0
    for idxs in groups:
        bq = [queries[i] for i in idxs]
        bt = [targets[i] for i in idxs]
        bh = [h0s[i] for i in idxs]
        bq_max = max(len(q) for q in bq)
        bt_max = max(len(t) for t in bt)
        w_run = min(w, full_band_for(bq_max, bt_max))
        if 2 * w_run + 1 > bq_max + 1:
            # The stripe would be wider than the row layout: the band
            # covers (almost) whole rows, so the lockstep sweep is the
            # cheaper dense layout (and counts its own buckets).
            # Bit-identical either way.
            results = lockstep.extend_batch(bq, bt, bh, scoring, w=w)
        else:
            results = _sweep_bucket(bq, bt, bh, scoring, w_run, w)
            width = 2 * w_run + 1
            stripe_groups.append(len(idxs))
            pad_cells += sum(
                width * bt_max - min(width, len(q) + 1) * len(t)
                for q, t in zip(bq, bt)
            )
        for i, res in zip(idxs, results):
            out[i] = res

    for idx in fallback:
        out[idx] = lockstep.extend_batch(
            [queries[idx]], [targets[idx]], [h0s[idx]], scoring, w=w
        )[0]

    if obs.enabled():
        reg = obs.get_registry()
        if stripe_groups:
            reg.counter(names.KERNEL_BUCKET_TOTAL).inc(len(stripe_groups))
            hist = reg.histogram(names.KERNEL_BUCKET_JOBS)
            for jobs in stripe_groups:
                hist.observe(jobs)
            if pad_cells:
                reg.counter(names.KERNEL_BUCKET_PAD_CELLS).inc(pad_cells)
        if fallback:
            reg.counter(names.KERNEL_FALLBACK_TOTAL).inc(len(fallback))

    return out  # type: ignore[return-value]


def extend(
    query: np.ndarray,
    target: np.ndarray,
    scoring: AffineGap,
    h0: int,
    w: int | None = None,
) -> ExtensionResult:
    """Single-job striped extension (the batch kernel with n = 1)."""
    return extend_batch(
        [np.asarray(query)], [np.asarray(target)], [h0], scoring, w=w
    )[0]


class StripedKernel:
    """The inter-sequence striped NumPy backend (``--kernel striped``)."""

    name = "striped"

    def extend(
        self,
        query: np.ndarray,
        target: np.ndarray,
        scoring: AffineGap,
        h0: int,
        w: int | None = None,
    ) -> ExtensionResult:
        """One banded extension through the striped kernel."""
        return extend(query, target, scoring, h0, w=w)

    def extend_batch(
        self,
        queries: list[np.ndarray],
        targets: list[np.ndarray],
        h0s: list[int],
        scoring: AffineGap,
        w: int | None = None,
    ) -> list[ExtensionResult]:
        """A shape-bucketed batch of extensions in lockstep."""
        return extend_batch(queries, targets, h0s, scoring, w=w)

    def overlap(
        self,
        query: np.ndarray,
        target: np.ndarray,
        scoring: AffineGap,
        w: int | None = None,
    ) -> OverlapResult:
        """One banded overlap fill (the lockstep kernel with n = 1)."""
        return overlap_batch_lockstep(
            [np.asarray(query)], [np.asarray(target)], scoring, w=w
        )[0]

    def overlap_batch(
        self,
        queries: list[np.ndarray],
        targets: list[np.ndarray],
        scoring: AffineGap,
        w: int | None = None,
    ) -> list[OverlapResult]:
        """A shape-bucketed batch of overlap fills in lockstep."""
        return overlap_batch_lockstep(queries, targets, scoring, w=w)
