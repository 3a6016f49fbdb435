"""Unit tests for the multi-process runner's plumbing.

The byte-identity of sharded SAM output lives in
``tests/test_byte_identity.py`` and the journaled crash ladder
in ``tests/durability``; this module covers the parts around them: the
task plan, the :class:`EngineSpec` recipe, input normalization,
argument validation, the parent-side merge of per-worker metric
snapshots (``pipeline.shard.*`` accounting) — and that a run *without*
a journal, short-read or long-read, survives a killed or hung worker
instead of hanging.
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.aligner.engines import BatchedEngine, EngineSpec
from repro.aligner.longread import LongReadRecipe
from repro.aligner.parallel import (
    AlignRecipe,
    StartMethodError,
    _task_plan,
    align_supervised,
)
from repro.durability.supervisor import (
    HANG,
    KILL,
    KILL_ONCE,
    QUARANTINE_TAG,
    PoisonPlan,
)
from repro.genome.synth import (
    PLATINUM_LIKE,
    ReadSimulator,
    synthesize_reference,
)
from repro.obs import names
from tests.helpers import fast_policy as _policy


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


class TestTaskPlan:
    @settings(max_examples=200)
    @given(
        count=st.integers(0, 300),
        workers=st.integers(1, 9),
        batch_size=st.integers(1, 64),
    )
    def test_plan_properties(self, count, workers, batch_size):
        plan = _task_plan(count, workers, batch_size)
        # Every read exactly once, in order.
        covered = [i for _, lo, hi in plan for i in range(lo, hi)]
        assert covered == list(range(count))
        cap = max(1, min(batch_size, -(-count // workers)))
        for window, lo, hi in plan:
            assert 0 < hi - lo <= cap
            # Never across a journal window, which stays keyed by
            # batch_size alone — whatever the parallelism.
            assert lo // batch_size == (hi - 1) // batch_size == window
        if count < workers:
            assert [hi - lo for _, lo, hi in plan] == [1] * count

    def test_small_corpus_fills_every_worker(self):
        """One default-sized window no longer means one busy worker."""
        assert _task_plan(10, 4, 4096) == [
            (0, 0, 3), (0, 3, 6), (0, 6, 9), (0, 9, 10)
        ]

    def test_large_corpus_is_one_task_per_window(self):
        assert _task_plan(20, 2, 8) == [
            (0, 0, 8), (1, 8, 16), (2, 16, 20)
        ]


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
        assert hasattr(engine, "extend_wave")
        assert not isinstance(engine, BatchedEngine)

    def test_spec_is_picklable(self):
        import pickle

        spec = EngineSpec(kind="batched", band=21, chaos=True)
        assert pickle.loads(pickle.dumps(spec)) == spec


def _lines(records):
    return [rec.to_line() for rec in records]


def _in_process(reference, reads):
    """The single-process truth every multi-process run must equal."""
    return _lines(
        AlignRecipe(seeding="kmer").build(reference)(
            [(r.name, r.codes) for r in reads]
        )
    )


class TestAlignSharded:
    def test_rejects_zero_workers(self, corpus):
        reference, reads = corpus
        with pytest.raises(ValueError):
            align_supervised(reference, reads, workers=0)

    def test_arguments_validated_before_anything_is_allocated(
        self, corpus, monkeypatch
    ):
        """A bad ``batch_size`` never reaches the heartbeat board."""
        from repro.aligner import parallel

        def _no_board(*args, **kwargs):
            raise AssertionError("HeartbeatBoard allocated")

        monkeypatch.setattr(parallel, "HeartbeatBoard", _no_board)
        reference, reads = corpus
        with pytest.raises(ValueError, match="batch size"):
            align_supervised(reference, reads, workers=2, batch_size=0)
        with pytest.raises(TypeError, match="either a recipe"):
            align_supervised(
                reference, reads, recipe=AlignRecipe(), seeding="kmer"
            )

    def test_workers_capped_at_read_count(self, corpus):
        """The gauge reports the workers started, not the request."""
        reference, reads = corpus
        obs.enable()
        result = align_supervised(
            reference, reads[:2], workers=8, seeding="kmer"
        )
        assert len(result.records) == 2
        gauges = obs.get_registry().snapshot()["gauges"]
        assert gauges[names.PIPELINE_SHARD_WORKERS] == 2

    def test_accepts_name_codes_pairs(self, corpus):
        reference, reads = corpus
        pairs = [(r.name, r.codes) for r in reads]
        a = align_supervised(reference, pairs, workers=2, seeding="kmer")
        b = align_supervised(reference, reads, workers=2, seeding="kmer")
        assert _lines(a.records) == _lines(b.records)
        assert _lines(a.records) == _in_process(reference, reads)

    def test_shard_metrics_and_snapshot_merge(self, corpus):
        """Worker measurements land in the parent registry."""
        reference, reads = corpus
        obs.enable()
        # Three windows of <= 4 reads; one default window cut in two.
        for batch_size, tasks in ((4, 3), (4096, 2)):
            obs.reset()
            align_supervised(
                reference, reads, spec=EngineSpec(kind="batched"),
                workers=2, batch_size=batch_size, seeding="kmer",
            )
            snap = obs.get_registry().snapshot()
            counters = snap["counters"]
            assert snap["gauges"][names.PIPELINE_SHARD_WORKERS] == 2
            shard_reads = [
                v for k, v in counters.items()
                if k.startswith(names.PIPELINE_SHARD_READS)
            ]
            assert sum(shard_reads) == len(reads)
            # One snapshot per completed task.
            assert counters[names.PIPELINE_SHARD_SNAPSHOTS_MERGED] == tasks
            # Worker-side pipeline metrics were absorbed: every read
            # the workers aligned is visible from the parent.
            assert counters[names.ALIGNER_READS_TOTAL] == len(reads)


class TestStartMethodError:
    """Spawn + fork-only state fails fast with a typed error.

    Before this check, an unpicklable aligner option under
    ``start_method="spawn"`` surfaced as a ``PicklingError`` traceback
    from inside the worker bootstrap — after workers had started.
    """

    def test_sharded_spawn_rejects_unpicklable_options_up_front(
        self, corpus
    ):
        reference, reads = corpus
        with pytest.raises(StartMethodError) as excinfo:
            align_supervised(
                reference,
                reads,
                workers=2,
                start_method="spawn",
                seeding="kmer",
                reference_name=lambda: "chr1",  # unpicklable on purpose
            )
        message = str(excinfo.value)
        assert "spawn" in message
        assert "worker recipe" in message

    def test_supervised_spawn_rejects_unpicklable_options_up_front(
        self, corpus
    ):
        """The same refusal for a hand-built (long-read) recipe."""
        reference, reads = corpus
        recipe = LongReadRecipe(
            spec=EngineSpec(kind="batched"),
            reference_name=lambda: "chr1",  # unpicklable on purpose
        )
        with pytest.raises(StartMethodError):
            align_supervised(
                reference,
                reads,
                recipe=recipe,
                workers=2,
                start_method="spawn",
            )

    def test_fork_still_accepts_fork_only_state(self, corpus):
        """Under fork the same payload is legal: nothing is pickled."""
        reference, reads = corpus
        result = align_supervised(
            reference,
            reads[:2],
            workers=2,
            start_method="fork",
            seeding="kmer",
        )
        assert len(result.records) == 2

    def test_error_is_a_typeerror_for_backward_compat(self):
        assert issubclass(StartMethodError, TypeError)


POISON_INDEX = 7


@pytest.mark.chaos
class TestNoJournalFaults:
    """Every ``--workers`` run is supervised, journal or not.

    No journal, no quarantine directory, the default window size — the
    configuration ``align --workers 2`` runs, which under the old
    ``Pool.map`` runner sat forever on a SIGKILLed worker.  Ten reads
    over two workers plan as two tasks of five inside one window, so
    these also cover bisection of a planned sub-window slice.
    """

    def test_transient_kill_recovers_byte_identical(self, corpus, tmp_path):
        reference, reads = corpus
        result = align_supervised(
            reference,
            reads,
            workers=2,
            seeding="kmer",
            policy=_policy(),
            poison=PoisonPlan(
                modes={reads[POISON_INDEX].name: KILL_ONCE},
                marker_dir=str(tmp_path),
            ),
        )
        assert result.restarts == 1
        assert result.quarantined == []
        assert _lines(result.records) == _in_process(reference, reads)

    @pytest.mark.parametrize(
        "mode, policy",
        [
            (KILL, {}),
            pytest.param(
                HANG, {"hung_timeout": 1.0}, marks=pytest.mark.slow
            ),
        ],
    )
    def test_poison_read_alone_is_quarantined(self, corpus, mode, policy):
        """Task (5, 10) crashes twice, then each bisection level once:
        2 + 1 + 1 restarts isolate read 7; its neighbours are intact."""
        reference, reads = corpus
        poison = reads[POISON_INDEX].name
        result = align_supervised(
            reference,
            reads,
            workers=2,
            seeding="kmer",
            policy=_policy(**policy),
            poison=PoisonPlan(modes={poison: mode}),
        )
        assert result.quarantined == [poison]
        assert result.restarts == 4
        lines = _lines(result.records)
        expected = _in_process(reference, reads)
        assert lines[POISON_INDEX].split("\t")[0] == poison
        assert lines[POISON_INDEX].endswith(QUARANTINE_TAG)
        del lines[POISON_INDEX], expected[POISON_INDEX]
        assert lines == expected


def test_interrupt_leaves_no_orphan_worker(corpus):
    """Ctrl-C of a run with no journal: workers still mid-task are
    killed on the way out, not waited on and not leaked."""
    reference, reads = corpus
    calls = []

    def ctrl_c_after_dispatch():
        calls.append(None)
        if len(calls) > 1:
            raise KeyboardInterrupt
        return False

    with pytest.raises(KeyboardInterrupt):
        align_supervised(
            reference,
            reads,
            workers=2,
            seeding="kmer",
            poison=PoisonPlan(modes={reads[0].name: HANG}),
            should_stop=ctrl_c_after_dispatch,
        )
    assert mp.active_children() == []


@pytest.fixture(scope="module")
def long_corpus():
    from repro.genome.synth import LongReadProfile, simulate_long_reads

    rng = np.random.default_rng(20260809)
    reference = synthesize_reference(20_000, rng, repeat_fraction=0.02)
    profile = LongReadProfile(read_length=600, length_sd=100)
    reads = [
        (r.name, r.codes)
        for r in simulate_long_reads(reference, 8, rng, profile)
    ]
    return reference, reads


@pytest.mark.chaos
@pytest.mark.parametrize(
    "start_method",
    [m for m in ("fork", "spawn") if m in mp.get_all_start_methods()],
)
@pytest.mark.parametrize("mode", ("scalar", "batched"))
def test_longread_recipe_survives_a_killed_worker(
    long_corpus, tmp_path, mode, start_method
):
    """The supervisor never branches on read kind: the long-read
    recipe gets the same respawn, and the same bytes as one process."""
    reference, reads = long_corpus
    spec = EngineSpec(kind="batched") if mode == "batched" else None
    recipe = LongReadRecipe(mode=mode, spec=spec, batch_size=4)
    result = align_supervised(
        reference,
        reads,
        recipe=recipe,
        workers=2,
        batch_size=4,
        start_method=start_method,
        policy=_policy(),
        poison=PoisonPlan(
            modes={reads[5][0]: KILL_ONCE}, marker_dir=str(tmp_path)
        ),
    )
    assert result.restarts == 1
    assert result.quarantined == []
    expected = recipe.build(reference)(reads)
    assert _lines(result.records) == _lines(expected)
    assert sum(not rec.is_unmapped for rec in expected) >= 6
