"""Unit tests for the sharded runner's plumbing.

The byte-identity of sharded SAM output lives in
``tests/aligner/test_differential.py``; this module covers the parts
around it: the shard plan, the :class:`EngineSpec` recipe, input
normalization, argument validation, and the parent-side merge of
per-worker metric snapshots (``pipeline.shard.*`` accounting).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.aligner.engines import BatchedEngine
from repro.aligner.parallel import (
    EngineSpec,
    StartMethodError,
    _shard_plan,
    align_sharded,
    align_supervised,
)
from repro.genome.synth import (
    PLATINUM_LIKE,
    ReadSimulator,
    synthesize_reference,
)
from repro.obs import names


@pytest.fixture
def corpus():
    """A small corpus for runner-level tests."""
    rng = np.random.default_rng(31)
    reference = synthesize_reference(8_000, rng)
    sim = ReadSimulator(reference, PLATINUM_LIKE, seed=32)
    return reference, sim.simulate(10)


@pytest.fixture(autouse=True)
def _clean_obs():
    """Keep the global obs state isolated per test."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestShardPlan:
    def test_even_split(self):
        assert _shard_plan(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_goes_to_early_shards(self):
        assert _shard_plan(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_plan_covers_every_read_exactly_once(self):
        for count in (1, 5, 17, 100):
            for workers in (1, 2, 3, 7):
                plan = _shard_plan(count, workers)
                assert plan[0][0] == 0
                assert plan[-1][1] == count
                for (_, stop), (start, _) in zip(plan, plan[1:]):
                    assert stop == start


class TestEngineSpec:
    def test_builds_every_kind(self):
        """Every kind is one engine class under a (band, checks) policy."""
        policies = {
            "full": (None, False),
            "batched": (None, False),
            "banded": (9, False),
            "seedex": (9, True),
        }
        for kind, policy in policies.items():
            engine = EngineSpec(kind=kind, band=9).build()
            assert isinstance(engine, BatchedEngine)
            assert (engine.band, engine.checks) == policy
        assert EngineSpec(kind="seedex").build().band == 41

    def test_banded_requires_band(self):
        with pytest.raises(ValueError):
            EngineSpec(kind="banded").build()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EngineSpec(kind="gpu").build()

    def test_chaos_spec_wraps_the_engine(self):
        engine = EngineSpec(kind="batched", chaos=True).build()
        # The resilient dispatcher still satisfies the protocol.
        assert hasattr(engine, "extend")
        assert not isinstance(engine, BatchedEngine)

    def test_spec_is_picklable(self):
        import pickle

        spec = EngineSpec(kind="batched", band=21, chaos=True)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestAlignSharded:
    def test_rejects_zero_workers(self, corpus):
        reference, reads = corpus
        with pytest.raises(ValueError):
            align_sharded(reference, reads, workers=0)

    def test_workers_capped_at_read_count(self, corpus):
        reference, reads = corpus
        records = align_sharded(
            reference, reads[:2], workers=8, seeding="kmer"
        )
        assert len(records) == 2

    def test_accepts_name_codes_pairs(self, corpus):
        reference, reads = corpus
        pairs = [(r.name, r.codes) for r in reads]
        a = align_sharded(reference, pairs, workers=2, seeding="kmer")
        b = align_sharded(reference, reads, workers=2, seeding="kmer")
        assert [r.to_line() for r in a] == [r.to_line() for r in b]

    def test_shard_metrics_and_snapshot_merge(self, corpus):
        """Worker measurements land in the parent registry."""
        reference, reads = corpus
        obs.enable()
        align_sharded(
            reference, reads, spec=EngineSpec(kind="batched"),
            workers=2, batch_size=4, seeding="kmer",
        )
        snap = obs.get_registry().snapshot()
        counters = snap["counters"]
        assert snap["gauges"][names.PIPELINE_SHARD_WORKERS] == 2
        shard_reads = [
            v for k, v in counters.items()
            if k.startswith(names.PIPELINE_SHARD_READS)
        ]
        assert sum(shard_reads) == len(reads)
        assert counters[names.PIPELINE_SHARD_SNAPSHOTS_MERGED] == 2
        # Worker-side pipeline metrics were absorbed: every read the
        # workers aligned is visible from the parent.
        assert counters[names.ALIGNER_READS_TOTAL] == len(reads)

    def test_single_worker_runs_inline(self, corpus):
        """``workers=1`` never spawns processes but still accounts."""
        reference, reads = corpus
        obs.enable()
        records = align_sharded(
            reference, reads, workers=1, batch_size=4, seeding="kmer"
        )
        assert len(records) == len(reads)
        snap = obs.get_registry().snapshot()
        assert snap["gauges"][names.PIPELINE_SHARD_WORKERS] == 1
        # No worker snapshots exist to merge (reset keeps zeroed keys
        # from earlier tests, so check the value, not the key).
        merged = snap["counters"].get(
            names.PIPELINE_SHARD_SNAPSHOTS_MERGED, 0
        )
        assert merged == 0


class TestStartMethodError:
    """Spawn + fork-only state fails fast with a typed error.

    Before this check, an unpicklable aligner option under
    ``start_method="spawn"`` surfaced as a ``PicklingError`` traceback
    from inside the pool bootstrap — after workers had started.
    """

    def test_sharded_spawn_rejects_unpicklable_options_up_front(
        self, corpus
    ):
        reference, reads = corpus
        with pytest.raises(StartMethodError) as excinfo:
            align_sharded(
                reference,
                reads,
                workers=2,
                start_method="spawn",
                seeding="kmer",
                min_seed_len=lambda: 19,  # unpicklable on purpose
            )
        message = str(excinfo.value)
        assert "spawn" in message
        assert "aligner options" in message

    def test_supervised_spawn_rejects_unpicklable_options_up_front(
        self, corpus
    ):
        reference, reads = corpus
        with pytest.raises(StartMethodError):
            align_supervised(
                reference,
                reads,
                workers=2,
                start_method="spawn",
                seeding="kmer",
                min_seed_len=lambda: 19,
            )

    def test_fork_still_accepts_fork_only_state(self, corpus):
        """Under fork the same payload is legal: nothing is pickled."""
        reference, reads = corpus
        records = align_sharded(
            reference,
            reads[:2],
            workers=2,
            start_method="fork",
            seeding="kmer",
        )
        assert len(records) == 2

    def test_error_is_a_typeerror_for_backward_compat(self):
        assert issubclass(StartMethodError, TypeError)
