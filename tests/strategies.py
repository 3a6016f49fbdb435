"""Hypothesis strategies for the cross-kernel conformance suite.

The kernel backends (:mod:`repro.kernels`) promise bit-identical
results, so the conformance tests are pure differential properties:
any input is a test case.  The strategies here are deliberately biased
toward the inputs where banded DP implementations historically
diverge — band edges, degenerate sequences, and scores that land
exactly on the S1/S2 acceptance thresholds:

* **all-N sequences** — the ambiguous code never matches, even
  against itself, which a naive ``==`` comparison gets wrong;
* **homopolymers** — every diagonal substitution is a match, so
  tie-breaking between equal-scoring endpoints is fully exercised;
* **read longer than reference** — the band's lower-right clamp and
  the semi-global row ``|i - qlen| <= w`` degenerate;
* **zero-length extension** — a seed flush against the read end:
  ``qlen == 0`` jobs must still produce the ``h0`` row semantics;
* **threshold-edge jobs** — constructed so the narrow-band score
  lands *exactly* on S1 or S2, where an off-by-one in the threshold
  comparison flips the accept/rerun verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from repro.align.scoring import BWA_MEM_SCORING, AffineGap
from repro.genome.sequence import AMBIGUOUS_CODE

EDGE_SCORING = AffineGap(match=1, mismatch=1, gap_open=0, gap_extend=1)
"""Unit-cost scheme whose score arithmetic makes exact S1/S2 hits easy
to construct (see :func:`threshold_edge_jobs`)."""


@st.composite
def sequences(draw, min_size: int = 0, max_size: int = 48) -> np.ndarray:
    """Encoded sequences, biased toward degenerate shapes.

    Roughly half the draws are plain random base strings (including
    N); the rest are the structured shapes listed in the module
    docstring.
    """
    kind = draw(
        st.sampled_from(
            ("random", "random", "random", "all_n", "homopolymer",
             "alternating")
        )
    )
    n = draw(st.integers(min_size, max_size))
    if kind == "all_n":
        return np.full(n, AMBIGUOUS_CODE, dtype=np.uint8)
    if kind == "homopolymer":
        base = draw(st.integers(0, 3))
        return np.full(n, base, dtype=np.uint8)
    if kind == "alternating":
        a, b = draw(st.tuples(st.integers(0, 4), st.integers(0, 4)))
        out = np.full(n, a, dtype=np.uint8)
        out[1::2] = b
        return out
    codes = draw(
        st.lists(st.integers(0, 4), min_size=n, max_size=n)
    )
    return np.array(codes, dtype=np.uint8)


def scoring_configs() -> st.SearchStrategy[AffineGap]:
    """Affine-gap schemes: the production default plus small ones.

    Small magnitudes keep brute-force cross-checks cheap while still
    covering asymmetric extension costs (including the relaxed-edit
    shape ``gap_extend_ins=0`` used by the edit machine).
    """
    small = st.builds(
        AffineGap,
        match=st.integers(1, 2),
        mismatch=st.integers(0, 4),
        gap_open=st.integers(0, 6),
        gap_extend=st.integers(1, 2),
        gap_extend_ins=st.one_of(st.none(), st.integers(0, 2)),
        gap_extend_del=st.one_of(st.none(), st.integers(1, 2)),
    )
    return st.one_of(st.just(BWA_MEM_SCORING), small)


def bands() -> st.SearchStrategy[int]:
    """Band half-widths, weighted toward the tiny ones where the
    first/last-diagonal clamps actually bind."""
    return st.one_of(
        st.integers(1, 8), st.sampled_from((15, 41))
    )


def h0s(max_value: int = 60) -> st.SearchStrategy[int]:
    """Seed scores, zero included (the dead-at-origin edge)."""
    return st.integers(0, max_value)


@dataclass(frozen=True)
class ExtensionJob:
    """One extension job plus the configuration it should run under."""

    query: np.ndarray
    target: np.ndarray
    h0: int
    scoring: AffineGap
    band: int


@st.composite
def extension_jobs(draw, max_len: int = 48) -> ExtensionJob:
    """Full extension jobs biased toward band-edge geometry."""
    shape = draw(
        st.sampled_from(
            ("generic", "generic", "generic", "read_longer",
             "zero_query", "perfect")
        )
    )
    scoring = draw(scoring_configs())
    band = draw(bands())
    h0 = draw(h0s())
    if shape == "zero_query":
        query = np.zeros(0, dtype=np.uint8)
        target = draw(sequences(min_size=1, max_size=12))
    elif shape == "read_longer":
        target = draw(sequences(min_size=1, max_size=12))
        extra = draw(st.integers(1, 12))
        query = draw(
            sequences(min_size=len(target) + extra,
                      max_size=len(target) + extra)
        )
    elif shape == "perfect":
        query = draw(sequences(min_size=1, max_size=max_len))
        suffix = draw(sequences(min_size=0, max_size=8))
        target = np.concatenate([query, suffix]).astype(np.uint8)
    else:
        query = draw(sequences(min_size=0, max_size=max_len))
        target = draw(sequences(min_size=1, max_size=max_len + 8))
    return ExtensionJob(query, target, int(h0), scoring, band)


@dataclass(frozen=True)
class RaggedBatch:
    """One batch of mixed-shape jobs sharing a scoring scheme and band."""

    queries: list[np.ndarray]
    targets: list[np.ndarray]
    h0s: list[int]
    scoring: AffineGap
    band: int | None


_PAD_BOUNDARY_LENGTHS = (15, 16, 17, 31, 32, 33, 63, 64, 65)
"""Lengths straddling the overlap batch's power-of-two shape-class
boundaries (``overlapdp.shape_class``) — one off either side of each
pad edge."""


@st.composite
def ragged_batches(draw, max_jobs: int = 8) -> RaggedBatch:
    """Batches biased toward the lockstep planner's bucket edges.

    Beyond generic mixed-length batches, the structured draws cover
    :func:`repro.align.lockstep.plan_buckets`: the empty batch, the
    single-job batch, the all-identical batch (tied heights, zero
    ragged padding), and queries whose ``qlen + 1`` straddles the
    ``2w + 2`` columns a narrow band caps a row at.  Two more draws
    keep the power-of-two shape classes the overlap batch buckets by:
    one job per class, and lengths exactly on the class boundaries.
    """
    kind = draw(
        st.sampled_from(
            ("mixed", "mixed", "mixed", "empty", "single",
             "identical", "band_cap", "per_bucket", "pad_boundary")
        )
    )
    scoring = draw(scoring_configs())
    band = draw(st.one_of(st.none(), bands()))
    if kind == "empty":
        return RaggedBatch([], [], [], scoring, band)
    if kind == "single":
        jobs = [draw(_batch_job())]
    elif kind == "identical":
        q, t, h0 = draw(_batch_job())
        jobs = [(q.copy(), t.copy(), h0)] * draw(
            st.integers(2, max_jobs)
        )
    elif kind == "band_cap":
        if band is None:
            band = draw(bands())
        cap = 2 * band + 2
        jobs = []
        for _ in range(draw(st.integers(1, max_jobs))):
            qlen = draw(
                st.one_of(
                    st.sampled_from((cap - 2, cap - 1, cap)),
                    st.integers(0, cap + 1),
                )
            )
            tlen = draw(st.integers(1, qlen + 8))
            jobs.append(
                (
                    draw(sequences(min_size=qlen, max_size=qlen)),
                    draw(sequences(min_size=tlen, max_size=tlen)),
                    draw(h0s()),
                )
            )
    elif kind == "per_bucket":
        # Distinct power-of-two classes: 16, 32, 64, ... one job each.
        n_buckets = draw(st.integers(2, 4))
        jobs = []
        for b in range(n_buckets):
            lo = 1 if b == 0 else (16 << (b - 1)) + 1
            hi = 16 << b
            tlen = draw(st.integers(lo, hi))
            qlen = draw(st.integers(0, tlen + 4))
            jobs.append(
                (
                    draw(sequences(min_size=qlen, max_size=qlen)),
                    draw(sequences(min_size=tlen, max_size=tlen)),
                    draw(h0s()),
                )
            )
    elif kind == "pad_boundary":
        jobs = []
        for _ in range(draw(st.integers(1, max_jobs))):
            tlen = draw(st.sampled_from(_PAD_BOUNDARY_LENGTHS))
            qlen = draw(
                st.one_of(
                    st.sampled_from(_PAD_BOUNDARY_LENGTHS),
                    st.integers(0, 20),
                )
            )
            jobs.append(
                (
                    draw(sequences(min_size=qlen, max_size=qlen)),
                    draw(sequences(min_size=tlen, max_size=tlen)),
                    draw(h0s()),
                )
            )
    else:
        jobs = draw(
            st.lists(_batch_job(), min_size=1, max_size=max_jobs)
        )
    return RaggedBatch(
        [q for q, _, _ in jobs],
        [t for _, t, _ in jobs],
        [h0 for _, _, h0 in jobs],
        scoring,
        band,
    )


@st.composite
def _batch_job(draw) -> tuple[np.ndarray, np.ndarray, int]:
    """One generic (query, target, h0) triple for ragged batches."""
    return (
        draw(sequences(max_size=40)),
        draw(sequences(min_size=1, max_size=48)),
        draw(h0s()),
    )


@dataclass(frozen=True)
class OverlapPair:
    """One suffix-prefix overlap job plus its verification band."""

    query: np.ndarray
    target: np.ndarray
    scoring: AffineGap
    band: int | None


@st.composite
def overlap_pairs(draw, max_len: int = 36) -> OverlapPair:
    """Overlap jobs biased toward the dovetail geometry's edges.

    Beyond generic pairs the structured draws cover: containment (the
    query sits strictly inside the target, so the best end leaves a
    real overhang), zero-overhang dovetails (query == target, the end
    lands on the corner), empty sequences on either side, all-N pairs
    (nothing ever matches, the whole matrix is gap arithmetic), and
    pairs whose length difference straddles the band exactly — where
    the last-column capture window ``|i - qlen| <= w`` degenerates.
    """
    shape = draw(
        st.sampled_from(
            ("generic", "generic", "generic", "containment",
             "zero_overhang", "empty", "all_n", "band_edge")
        )
    )
    scoring = draw(scoring_configs())
    band = draw(st.one_of(st.none(), bands()))
    if shape == "containment":
        inner = draw(sequences(min_size=1, max_size=max_len // 2))
        pad = draw(sequences(min_size=1, max_size=8))
        tail = draw(sequences(min_size=1, max_size=8))
        query = inner
        target = np.concatenate([pad, inner, tail]).astype(np.uint8)
    elif shape == "zero_overhang":
        query = draw(sequences(min_size=1, max_size=max_len))
        target = query.copy()
    elif shape == "empty":
        which = draw(st.sampled_from(("query", "target", "both")))
        query = (
            np.zeros(0, dtype=np.uint8)
            if which in ("query", "both")
            else draw(sequences(min_size=1, max_size=12))
        )
        target = (
            np.zeros(0, dtype=np.uint8)
            if which in ("target", "both")
            else draw(sequences(min_size=1, max_size=12))
        )
    elif shape == "all_n":
        qlen = draw(st.integers(0, max_len))
        tlen = draw(st.integers(0, max_len))
        query = np.full(qlen, AMBIGUOUS_CODE, dtype=np.uint8)
        target = np.full(tlen, AMBIGUOUS_CODE, dtype=np.uint8)
    elif shape == "band_edge":
        w = draw(bands())
        band = w
        qlen = draw(st.integers(1, max_len))
        delta = w + draw(st.integers(-1, 1))
        if draw(st.booleans()):
            tlen = qlen + delta
        else:
            tlen = max(0, qlen - delta)
        query = draw(sequences(min_size=qlen, max_size=qlen))
        target = draw(sequences(min_size=tlen, max_size=tlen))
    else:
        query = draw(sequences(min_size=0, max_size=max_len))
        target = draw(sequences(min_size=0, max_size=max_len + 8))
    return OverlapPair(query, target, scoring, band)


@dataclass(frozen=True)
class GapBatch:
    """One wave of global gap-fill jobs sharing a scoring and band."""

    queries: list[np.ndarray]
    targets: list[np.ndarray]
    scoring: AffineGap
    band: int | None


@st.composite
def gap_job_batches(draw, max_jobs: int = 6) -> GapBatch:
    """Gap-fill waves biased toward the lockstep bucketing hazards.

    The structured draws cover the empty wave, all-identical jobs (one
    bucket, no ragged padding), both-sides-empty gaps and one-sided
    gaps (pure insertion/deletion fills, where the corner lives on a
    matrix edge), and — the important one — heterogeneous-clamp waves:
    jobs sharing a lockstep bucket whose ``max(w, |tlen - qlen|)`` clamps
    differ wildly, the geometry where an unmasked lockstep F-scan
    leaks a wide bucket-mate's cells into a narrow job's band.
    """
    kind = draw(
        st.sampled_from(
            ("mixed", "mixed", "mixed", "empty_batch", "identical",
             "degenerate", "hetero_clamp")
        )
    )
    scoring = draw(scoring_configs())
    band = draw(st.one_of(st.none(), bands()))
    if kind == "empty_batch":
        return GapBatch([], [], scoring, band)
    if kind == "identical":
        q = draw(sequences(max_size=24))
        t = draw(sequences(max_size=24))
        n = draw(st.integers(2, max_jobs))
        jobs = [(q.copy(), t.copy()) for _ in range(n)]
    elif kind == "degenerate":
        jobs = []
        for _ in range(draw(st.integers(1, max_jobs))):
            side = draw(
                st.sampled_from(("both_empty", "ins_only", "del_only"))
            )
            if side == "both_empty":
                jobs.append(
                    (np.zeros(0, dtype=np.uint8),
                     np.zeros(0, dtype=np.uint8))
                )
            elif side == "ins_only":
                jobs.append(
                    (draw(sequences(min_size=1, max_size=20)),
                     np.zeros(0, dtype=np.uint8))
                )
            else:
                jobs.append(
                    (np.zeros(0, dtype=np.uint8),
                     draw(sequences(min_size=1, max_size=20)))
                )
    elif kind == "hetero_clamp":
        # One lockstep bucket (jobs this small pad less than one row
        # step costs, so the planner packs them together) but clamps
        # far apart: one near-square job rides the requested
        # band while a skewed bucket-mate's |tlen - qlen| forces a
        # much wider sweep over the shared padded columns.
        band = draw(st.integers(1, 4))
        square = draw(st.integers(8, 16))
        skew_t = draw(st.integers(10, 16))
        skew_q = draw(st.integers(0, 3))
        jobs = [
            (draw(sequences(min_size=square, max_size=square)),
             draw(sequences(min_size=square, max_size=square))),
            (draw(sequences(min_size=skew_q, max_size=skew_q)),
             draw(sequences(min_size=skew_t, max_size=skew_t))),
        ]
        if draw(st.booleans()):
            extra_q = draw(st.integers(10, 16))
            extra_t = draw(st.integers(0, 3))
            jobs.append(
                (draw(sequences(min_size=extra_q, max_size=extra_q)),
                 draw(sequences(min_size=extra_t, max_size=extra_t)))
            )
    else:
        jobs = [
            (draw(sequences(max_size=30)), draw(sequences(max_size=30)))
            for _ in range(draw(st.integers(1, max_jobs)))
        ]
    return GapBatch(
        [q for q, _ in jobs], [t for _, t in jobs], scoring, band
    )


@st.composite
def threshold_edge_jobs(draw) -> ExtensionJob:
    """Jobs whose narrow-band score lands exactly on S1 or S2.

    Under :data:`EDGE_SCORING` (``m=1, x=1, go=0, ge=1``) a read that
    is the target prefix with ``k`` planted mismatches scores
    ``h0 + qlen - 2k`` along the main diagonal, while
    ``S1 = h0 - band + (qlen - band)`` and ``S2 = h0 + qlen - band``.
    Planting ``k = band`` mismatches puts the diagonal score exactly
    on S1; ``k = band/2`` (even bands) exactly on S2.  Gapped detours
    can still beat the diagonal — that only moves the score off the
    edge, never breaks the differential property.
    """
    on_s2 = draw(st.booleans())
    if on_s2:
        band = 2 * draw(st.integers(1, 3))
        k = band // 2
    else:
        band = draw(st.integers(1, 5))
        k = band
    qlen = band + k + 1 + draw(st.integers(0, 4))
    tail = draw(st.integers(1, 4))
    target = draw(
        sequences(min_size=qlen + tail, max_size=qlen + tail)
    )
    query = target[:qlen].copy()
    positions = draw(
        st.lists(
            st.integers(0, qlen - 1),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    for pos in positions:
        query[pos] = (int(query[pos]) + 1) % 4
    h0 = draw(h0s(20))
    return ExtensionJob(query, target, int(h0), EDGE_SCORING, band)
