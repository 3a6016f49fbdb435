"""Tests for the k-mer index and seed chaining."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genome.sequence import (
    AMBIGUOUS_CODE,
    random_sequence,
    reverse_complement,
)
from repro.seeding import kmer_index
from repro.seeding.chaining import Chain, chain_seeds, filter_chains
from repro.seeding.kmer_index import KmerIndex
from repro.seeding.mems import Seed
from tests.helpers import loop_seed_read
# The index suite's reference and built (memory-mapped) artifact.
from tests.index.conftest import artifact, reference  # noqa: F401


class TestKmerIndex:
    def test_lookup_exact(self):
        rng = np.random.default_rng(0)
        ref = random_sequence(3000, rng)
        idx = KmerIndex(ref, k=19)
        kmer = ref[500:519]
        hits = idx.lookup(kmer)
        assert 500 in hits
        for h in hits:
            assert (ref[h : h + 19] == kmer).all()

    def test_lookup_rejects_wrong_length(self):
        idx = KmerIndex(random_sequence(100, np.random.default_rng(0)), k=10)
        with pytest.raises(ValueError):
            idx.lookup(np.zeros(5, dtype=np.uint8))

    def test_bad_k_rejected(self):
        ref = random_sequence(100, np.random.default_rng(0))
        with pytest.raises(ValueError):
            KmerIndex(ref, k=0)
        with pytest.raises(ValueError):
            KmerIndex(ref, k=32)

    def test_seed_read_extends_to_maximal(self):
        rng = np.random.default_rng(1)
        ref = random_sequence(5000, rng)
        idx = KmerIndex(ref, k=19)
        read = ref[1000:1100]
        seeds = idx.seed_read(read)
        assert any(s.length == 100 and s.rbegin == 1000 for s in seeds)

    def test_seed_read_with_mismatch(self):
        rng = np.random.default_rng(2)
        ref = random_sequence(5000, rng)
        idx = KmerIndex(ref, k=19)
        read = ref[2000:2100].copy()
        read[50] = (read[50] + 1) % 4
        seeds = idx.seed_read(read)
        # Should find both flanks of the mismatch.
        assert any(s.qbegin == 0 and s.qend == 50 for s in seeds)
        assert any(s.qbegin == 51 and s.qend == 100 for s in seeds)

    def test_agrees_with_smem_backend_on_clean_read(self):
        from repro.seeding.fmindex import FMIndex
        from repro.seeding.mems import seed_read

        rng = np.random.default_rng(3)
        ref = random_sequence(4000, rng)
        read = ref[800:900]
        kmer_seeds = KmerIndex(ref, k=19).seed_read(read)
        fm_seeds = seed_read(FMIndex(ref), read)
        full = Seed(0, 100, 800)
        assert full in kmer_seeds
        assert full in fm_seeds


@st.composite
def seeding_windows(draw):
    """``(index, queries, stride, max_occurrences)``: a small reference
    (random, low-complexity, or with a unit planted right at or just
    past the occurrence cap) and a window cut from it, with both
    reference ends, substitutions, N bases and too-short queries."""
    k = draw(st.sampled_from((5, 11, 19)))
    stride = draw(st.sampled_from((1, 4, 8)))
    cap = draw(st.sampled_from((1, 8, 32)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("random", "periodic", "planted")))
    if kind == "periodic":
        unit = random_sequence(draw(st.integers(1, 4)), rng)
        ref = np.resize(unit, draw(st.integers(k, 200))).astype(np.uint8)
        ref[rng.integers(0, len(ref), 3)] = rng.integers(0, 4, 3)
    elif kind == "planted":
        unit = random_sequence(k + draw(st.integers(0, 12)), rng)
        copies = cap + draw(st.integers(0, 1))
        ref = np.concatenate(
            [
                piece
                for _ in range(copies)
                for piece in (random_sequence(int(rng.integers(0, 9)), rng),
                              unit)
            ]
        ).astype(np.uint8)
    else:
        ref = random_sequence(draw(st.integers(k, 300)), rng)
    queries = []
    for _ in range(draw(st.integers(0, 10))):
        length = draw(st.integers(0, min(len(ref), 90)))
        start = draw(
            st.sampled_from((0, len(ref) - length))
            | st.integers(0, len(ref) - length)
        )
        query = ref[start : start + length].copy()
        if length and draw(st.booleans()):
            spots = rng.integers(0, length, draw(st.integers(1, 3)))
            query[spots] = rng.integers(0, 5, len(spots))
        if draw(st.booleans()):
            query = reverse_complement(query)
        queries.append(query)
    return KmerIndex(ref, k=k), queries, stride, cap


def _loop_window(index, queries, stride=4, cap=32):
    return [loop_seed_read(index, q, stride, cap) for q in queries]


class TestWindowSeeding:
    """``seed_reads`` is the per-anchor, per-hit loop, done as arrays."""

    @settings(max_examples=150)
    @given(case=seeding_windows())
    def test_window_equals_the_loop(self, case):
        index, queries, stride, cap = case
        got = index.seed_reads(queries, stride, cap)
        assert got == _loop_window(index, queries, stride, cap)

    @settings(max_examples=40)
    @given(case=seeding_windows())
    def test_chunking_is_invisible(self, case):
        """One query per pass, every pass over the cell budget, gives
        the whole window's seeds, and so does one call per query."""
        index, queries, stride, cap = case
        whole = index.seed_reads(queries, stride, cap)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kmer_index, "SEED_CHUNK", 1)
            mp.setattr(kmer_index, "SCAN_CELLS", 1)
            assert index.seed_reads(queries, stride, cap) == whole
        assert [index.seed_read(q, stride, cap) for q in queries] == whole

    def test_empty_window(self):
        index = KmerIndex(random_sequence(50, np.random.default_rng(0)), k=5)
        assert index.seed_reads([]) == []
        assert index.seed_reads([np.zeros(0, np.uint8)]) == [[]]

    def test_short_and_ambiguous_queries_seed_nothing(self):
        ref = random_sequence(200, np.random.default_rng(4))
        index = KmerIndex(ref, k=11)
        all_n = np.full(40, AMBIGUOUS_CODE, dtype=np.uint8)
        assert index.seed_reads([ref[:10], all_n]) == [[], []]

    def test_hits_at_both_reference_ends(self):
        ref = random_sequence(300, np.random.default_rng(6))
        index = KmerIndex(ref, k=11)
        head, tail = index.seed_reads([ref[:40], ref[-40:]])
        assert Seed(0, 40, 0) in head
        assert Seed(0, 40, 260) in tail
        assert [head, tail] == _loop_window(index, [ref[:40], ref[-40:]])

    @pytest.mark.parametrize("copies", [8, 9])
    def test_occurrence_cap_is_inclusive(self, copies):
        rng = np.random.default_rng(8)
        unit = random_sequence(30, rng)
        spacers = [random_sequence(40, rng) for _ in range(copies)]
        ref = np.concatenate(
            [p for spacer in spacers for p in (spacer, unit)]
        ).astype(np.uint8)
        index = KmerIndex(ref, k=11)
        [seeds] = index.seed_reads([unit], stride=4, max_occurrences=8)
        assert seeds == loop_seed_read(index, unit, 4, 8)
        assert len(seeds) == (8 if copies == 8 else 0)

    def test_mapped_tables_seed_like_the_loop(
        self, artifact, reference  # noqa: F811
    ):
        _, loaded = artifact
        index = loaded.kmer_index()
        assert isinstance(index.tables()["sorted_keys"], np.memmap)
        rng = np.random.default_rng(9)
        queries = []
        for start in rng.integers(0, len(reference) - 150, 24):
            query = reference[start : start + 150].copy()
            query[rng.integers(0, 150, 3)] = rng.integers(0, 5, 3)
            queries += [query, reverse_complement(query)]
        assert index.seed_reads(queries) == _loop_window(index, queries)


class TestChaining:
    def test_empty(self):
        assert chain_seeds([]) == []

    def test_colinear_seeds_chain(self):
        seeds = [Seed(0, 30, 100), Seed(40, 80, 145)]
        chains = chain_seeds(seeds)
        assert len(chains) == 1
        assert len(chains[0].seeds) == 2
        assert chains[0].anchor == Seed(40, 80, 145)

    def test_far_seeds_do_not_chain(self):
        seeds = [Seed(0, 30, 100), Seed(40, 80, 5000)]
        chains = chain_seeds(seeds)
        assert len(chains) == 2

    def test_overlapping_seeds_do_not_chain(self):
        seeds = [Seed(0, 50, 100), Seed(30, 80, 130)]
        chains = chain_seeds(seeds)
        assert len(chains) == 2

    def test_chain_order_by_score(self):
        seeds = [
            Seed(0, 60, 100),  # strong
            Seed(0, 25, 9000),  # weak alternative
        ]
        chains = chain_seeds(seeds)
        assert chains[0].anchor.rbegin == 100

    def test_filter_chains(self):
        chains = [
            Chain(seeds=[Seed(0, 60, 0)], score=60),
            Chain(seeds=[Seed(0, 40, 0)], score=40),
            Chain(seeds=[Seed(0, 10, 0)], score=10),
        ]
        kept = filter_chains(chains, max_chains=3, min_score_fraction=0.5)
        assert [c.score for c in kept] == [60, 40]

    def test_filter_respects_max(self):
        chains = [
            Chain(seeds=[Seed(0, 50, i)], score=50) for i in range(10)
        ]
        assert len(filter_chains(chains, max_chains=4)) == 4

    def test_chain_properties(self):
        c = Chain(seeds=[Seed(5, 30, 105), Seed(40, 90, 141)], score=75)
        assert c.qbegin == 5
        assert c.qend == 90
        assert c.rbegin == 105
        assert c.diagonal == 101
