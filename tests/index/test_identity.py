"""Differential identity: an index artifact changes nothing but speed.

The store's contract with the rest of the pipeline is *zero new
semantics*: SAM output with ``--index`` must be byte-identical to an
index-less run across seeding backends, engines (scalar full-band and
the batched wave scheduler), dispatch modes (in-process, forked
shards, spawned shards), and load modes (mmap vs private in-memory
copies).  Any divergence fails the byte comparison immediately.
"""

from __future__ import annotations

import multiprocessing as mp

import pytest

from repro.aligner.engines import BatchedEngine, make_engine
from repro.aligner.parallel import EngineSpec
from repro.index import load_index
from tests.helpers import sam_bytes


def _baseline(reference, reads, seeding):
    return sam_bytes(reference, reads, make_engine("full"), seeding=seeding)


class TestInProcess:
    @pytest.mark.parametrize("seeding", ("kmer", "smem"))
    def test_scalar_engine(self, reference, reads, artifact, seeding):
        _, loaded = artifact
        assert sam_bytes(
            reference,
            reads,
            make_engine("full"),
            seeding=seeding,
            index=loaded,
        ) == _baseline(reference, reads, seeding)

    @pytest.mark.parametrize("seeding", ("kmer", "smem"))
    def test_batched_engine(self, reference, reads, artifact, seeding):
        _, loaded = artifact
        assert sam_bytes(
            reference,
            reads,
            BatchedEngine(),
            batch_size=5,
            seeding=seeding,
            index=loaded,
        ) == _baseline(reference, reads, seeding)

    @pytest.mark.parametrize("mmap_mode", (True, False))
    def test_mmap_vs_in_memory(self, reference, reads, artifact, mmap_mode):
        path, _ = artifact
        loaded = load_index(path, mmap=mmap_mode)
        assert sam_bytes(
            reference, reads, make_engine("full"), index=loaded
        ) == _baseline(reference, reads, "kmer")


class TestSharded:
    @pytest.mark.parametrize(
        "start_method",
        [
            m
            for m in ("fork", "spawn")
            if m in mp.get_all_start_methods()
        ],
    )
    @pytest.mark.parametrize("seeding", ("kmer", "smem"))
    def test_workers_with_handle(
        self, reference, reads, artifact, start_method, seeding
    ):
        _, loaded = artifact
        assert sam_bytes(
            reference,
            reads,
            EngineSpec(kind="batched"),
            workers=2,
            batch_size=5,
            seeding=seeding,
            start_method=start_method,
            index=loaded.handle(),
        ) == _baseline(reference, reads, seeding)
