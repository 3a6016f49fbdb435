"""Unit tests for the all-vs-all overlap driver.

The kernel-level DP is swept in ``tests/align`` and conformance-tested
in ``tests/kernels``; these tests pin the *driver*: k-mer indexing and
its repeat guard, diagonal voting and its tie-breaks, the accept
thresholds, and the two-stage speculate-and-test verification the
emitted TSV records.  The array candidate pass is held to a dict index
and per-k-mer double loop kept here as its reference.
"""

from __future__ import annotations

import io
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import obs
from repro.apps.overlap import (
    OverlapParams,
    _Candidate,
    _candidate_pairs,
    _kmer_hits,
    find_overlaps,
    write_overlaps,
)
from repro.genome.sequence import AMBIGUOUS_CODE, encode
from repro.genome.synth import fragment_corpus, synthesize_reference


def _reads(*seqs):
    return [(f"r{k}", encode(s)) for k, s in enumerate(seqs)]


def reference_index(
    reads: list[tuple[str, np.ndarray]], params: OverlapParams
) -> dict[tuple[int, ...], list[tuple[int, int]]]:
    """Every clean k-mer to its ``(read, position)`` hits, minus the
    k-mers seen in more than ``max_occurrences`` places."""
    k = params.k
    table: dict[tuple[int, ...], list[tuple[int, int]]] = defaultdict(list)
    for idx, (_, codes) in enumerate(reads):
        for pos in range(len(codes) - k + 1):
            window = tuple(int(c) for c in codes[pos : pos + k])
            if max(window) < AMBIGUOUS_CODE:
                table[window].append((idx, pos))
    return {
        key: hits
        for key, hits in table.items()
        if len(hits) <= params.max_occurrences
    }


def reference_candidates(
    reads: list[tuple[str, np.ndarray]], params: OverlapParams
) -> list[_Candidate]:
    """Diagonal voting one hit pair at a time into nested dicts."""
    votes: dict[tuple[int, int], dict[int, int]] = defaultdict(
        lambda: defaultdict(int)
    )
    for hits in reference_index(reads, params).values():
        for a, pa in hits:
            for b, pb in hits:
                if a == b:
                    continue
                diag = pa - pb
                if diag < 0:
                    continue
                votes[(a, b)][diag] += 1
    out: list[_Candidate] = []
    for (a, b), diags in sorted(votes.items()):
        best_diag, best_votes = min(
            diags.items(), key=lambda item: (-item[1], item[0])
        )
        if best_votes < params.min_shared:
            continue
        if len(reads[a][1]) - best_diag < params.min_overlap:
            continue
        out.append(_Candidate(a=a, b=b, a_start=best_diag))
    return out


@pytest.fixture(scope="module")
def tiling():
    rng = np.random.default_rng(23)
    reference = synthesize_reference(3_000, rng)
    frags = fragment_corpus(
        reference, rng, length=250, step=180, substitution_rate=0.01
    )
    return [(f.name, f.codes) for f in frags]


class TestIndex:
    def test_positions_recorded(self):
        reads = _reads("ACGTACGTACGT")
        keys, read, pos = _kmer_hits(reads, 8)
        # 5 k-mers of length 8 in a 12-mer; all from read 0.
        assert len(keys) == len(read) == len(pos) == 5
        assert read.tolist() == [0] * 5
        assert pos.tolist() == [0, 1, 2, 3, 4]

    def test_ambiguous_kmers_skipped(self):
        reads = _reads("ACGTNACGTACGTAC")
        _, _, pos = _kmer_hits(reads, 8)
        # Windows 0..4 all contain the N at index 4.
        assert pos.tolist() == [5, 6, 7]

    def test_windows_never_straddle_two_reads(self):
        reads = _reads("ACGTACGTA", "CGTACGTAC")
        _, read, pos = _kmer_hits(reads, 8)
        assert list(zip(read.tolist(), pos.tolist())) == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]

    def test_repeat_guard_drops_hot_kmers(self):
        reads = _reads(*("A" * 30 for _ in range(5)))
        params = dict(k=15, min_shared=2, min_overlap=10)
        # 16 poly-A 15-mers per read: 80 placements of one k-mer.
        assert _candidate_pairs(
            reads, OverlapParams(max_occurrences=4, **params)
        ) == []
        assert _candidate_pairs(
            reads, OverlapParams(max_occurrences=80, **params)
        ) != []

    def test_short_reads_skipped(self):
        reads = _reads("ACG")
        keys, read, pos = _kmer_hits(reads, 15)
        assert len(keys) == len(read) == len(pos) == 0
        assert _candidate_pairs(reads, OverlapParams(k=15)) == []

    def test_k32_keys_do_not_collide(self):
        """At k == 32 the base-4 key wraps int64 but stays one key per
        k-mer: k-mers differing only in their first base differ."""
        tail = "ACGT" * 8
        reads = _reads("A" + tail[1:], "C" + tail[1:], "A" + tail[1:])
        keys, _, _ = _kmer_hits(reads, 32)
        assert keys[0] != keys[1]
        assert keys[0] == keys[2]


class TestParams:
    @pytest.mark.parametrize("k", [0, -1, 33])
    def test_k_out_of_range_rejected(self, k):
        with pytest.raises(ValueError, match="k must be in 1..32"):
            OverlapParams(k=k)

    @pytest.mark.parametrize("k", [1, 32])
    def test_k_bounds_accepted(self, k):
        assert OverlapParams(k=k).k == k


class TestVoting:
    def _candidates(self, reads, **kw):
        params = OverlapParams(**{"k": 8, "min_shared": 2,
                                  "min_overlap": 10, **kw})
        return params, _candidate_pairs(reads, params)

    def test_suffix_prefix_pair_voted(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 4, size=60).astype(np.uint8)
        b = np.concatenate([a[30:], rng.integers(0, 4, size=30)]).astype(
            np.uint8
        )
        reads = [("A", a), ("B", b)]
        _, cands = self._candidates(reads)
        pair = {(c.a, c.b): c for c in cands}
        assert (0, 1) in pair
        assert pair[(0, 1)].a_start == 30

    def test_min_overlap_filters_short_diagonals(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 4, size=60).astype(np.uint8)
        b = np.concatenate([a[48:], rng.integers(0, 4, size=40)]).astype(
            np.uint8
        )
        reads = [("A", a), ("B", b)]
        _, cands = self._candidates(reads, min_overlap=30)
        assert all((c.a, c.b) != (0, 1) for c in cands)

    def test_min_overlap_boundary_is_inclusive(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 4, size=60).astype(np.uint8)
        b = np.concatenate([a[30:], rng.integers(0, 4, size=30)]).astype(
            np.uint8
        )
        reads = [("A", a), ("B", b)]
        _, at = self._candidates(reads, min_overlap=30)
        _, past = self._candidates(reads, min_overlap=31)
        assert _Candidate(a=0, b=1, a_start=30) in at
        assert all((c.a, c.b) != (0, 1) for c in past)

    def test_min_shared_filters_chance_hits(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 4, size=40).astype(np.uint8)
        b = rng.integers(0, 4, size=40).astype(np.uint8)
        reads = [("A", a), ("B", b)]
        _, cands = self._candidates(reads, min_shared=3)
        assert cands == []

    def test_tied_diagonals_go_to_the_longest_overlap(self):
        # B's 7-mers sit at A[2:] and again at A[6:]: two votes each.
        reads = _reads("TTACGTACGTACGTTT", "ACGTACGT")
        _, cands = self._candidates(reads, k=7, min_shared=1, min_overlap=1)
        assert _Candidate(a=0, b=1, a_start=2) in cands

    def test_empty_read_list(self):
        assert _candidate_pairs([], OverlapParams()) == []


_BASE = st.sampled_from([0, 1, 2, 3] * 6 + [AMBIGUOUS_CODE])


@st.composite
def overlap_inputs(draw):
    """Reads cut from one small pool, so k-mers are shared and hot;
    small alphabets and small ``k`` make in-read repeats and tied
    diagonals common, and ``N`` and reads shorter than ``k`` occur."""
    alphabet = draw(st.sampled_from([_BASE, st.integers(0, 1)]))
    pool = draw(st.lists(alphabet, max_size=60))
    reads = []
    for idx in range(draw(st.integers(0, 7))):
        lo = draw(st.integers(0, len(pool)))
        hi = draw(st.integers(lo, len(pool)))
        reads.append((f"r{idx}", np.array(pool[lo:hi], dtype=np.uint8)))
    params = OverlapParams(
        k=draw(st.one_of(st.integers(1, 6), st.integers(7, 32))),
        min_shared=draw(st.integers(1, 4)),
        min_overlap=draw(st.integers(0, 40)),
        max_occurrences=draw(st.integers(1, 20)),
    )
    return reads, params


class TestCandidateOracle:
    @given(overlap_inputs())
    @example(([], OverlapParams()))
    # N bases: only NAC is shared; "AC" is shorter than k.
    @example((_reads("TTNAC", "NACGG", "AC"), OverlapParams(
        k=3, min_shared=1, min_overlap=0)))
    # One k-mer seven times inside each read (the a == b skip).
    @example((_reads(*("AAAAAAAA",) * 3), OverlapParams(
        k=2, min_shared=1, min_overlap=0, max_occurrences=21)))
    # K-mers seen exactly twice.
    @example((_reads("ACGTACCA", "TACCAGG"), OverlapParams(
        k=4, min_shared=1, min_overlap=0)))
    # K-mers exactly at, then one above, max_occurrences.
    @example((_reads(*("ACGTT",) * 3), OverlapParams(
        k=4, min_shared=1, min_overlap=0, max_occurrences=3)))
    @example((_reads(*("ACGTT",) * 3), OverlapParams(
        k=4, min_shared=1, min_overlap=0, max_occurrences=2)))
    # Diagonals 2 and 6 tied on two votes each.
    @example((_reads("TTACGTACGTACGTTT", "ACGTACGT"), OverlapParams(
        k=7, min_shared=1, min_overlap=1)))
    # min_overlap exactly at pair (0, 1)'s suffix: 14 - 3 == 11.
    @example((_reads("GATTACAGATTACA", "TACAGATTACAGG"), OverlapParams(
        k=4, min_shared=2, min_overlap=11)))
    def test_array_pass_equals_dict_loop(self, case):
        reads, params = case
        assert _candidate_pairs(reads, params) == reference_candidates(
            reads, params
        )


class TestFindOverlaps:
    def test_adjacent_fragments_all_found(self, tiling):
        overlaps = find_overlaps(tiling, OverlapParams(min_overlap=50))
        found = {(o.a_name, o.b_name) for o in overlaps}
        for k in range(len(tiling) - 1):
            assert (f"frag{k:05d}", f"frag{k + 1:05d}") in found
        for o in overlaps:
            assert o.a_end == o.a_len
            assert o.b_start == 0
            assert o.b_end >= 50
            assert o.score > 0

    def test_output_is_sorted_and_stable_across_batch_sizes(self, tiling):
        base = find_overlaps(tiling, OverlapParams(min_overlap=50))
        keys = [(o.a_name, o.b_name, o.a_start) for o in base]
        assert keys == sorted(keys)
        small = find_overlaps(
            tiling, OverlapParams(min_overlap=50, batch_size=3)
        )
        assert small == base

    def test_band_only_moves_verdict_columns(self, tiling):
        """Narrow bands rerun more but never change what is reported —
        the guarantee the PAF consumer relies on."""
        wide = find_overlaps(tiling, OverlapParams(min_overlap=50, band=64))
        narrow = find_overlaps(tiling, OverlapParams(min_overlap=50, band=4))
        def core(o):
            return (o.a_name, o.a_start, o.b_name, o.b_end, o.score)
        assert [core(o) for o in narrow] == [core(o) for o in wide]

    def test_accept_floor_filters_weak_overlaps(self, tiling):
        permissive = find_overlaps(
            tiling, OverlapParams(min_overlap=50, accept=0.1)
        )
        strict = find_overlaps(
            tiling, OverlapParams(min_overlap=50, accept=0.95)
        )
        assert len(strict) <= len(permissive)
        for o in strict:
            qlen = o.a_len - o.a_start
            assert o.score >= int(0.95 * qlen)

    def test_counters_emitted(self, tiling):
        obs.reset()
        obs.enable()
        try:
            find_overlaps(tiling[:6], OverlapParams(min_overlap=50))
            snap = obs.get_registry().snapshot()
            assert snap["counters"]["overlap.candidates.total"] >= 5
            assert snap["counters"]["overlap.accepted.total"] >= 5
            assert "overlap.run.seconds" in snap["histograms"]
            assert any(
                key.startswith("overlap.verify.wave.seconds")
                for key in snap["histograms"]
            )
        finally:
            obs.disable()
            obs.reset()

    def test_write_overlaps_tsv_shape(self, tiling):
        overlaps = find_overlaps(tiling[:4], OverlapParams(min_overlap=50))
        buf = io.StringIO()
        write_overlaps(buf, overlaps)
        lines = buf.getvalue().splitlines()
        assert len(lines) == len(overlaps)
        assert all(len(line.split("\t")) == 12 for line in lines)
