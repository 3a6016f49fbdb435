"""Crash-path tests for the shard supervisor.

Each poison case drives :func:`align_supervised` with a deterministic
:class:`PoisonPlan` — a worker SIGKILLed mid-window, a raising read, a
transient crash, a wedged heartbeat — and asserts the run recovers
with the expected restart accounting and, for true poison, exactly one
quarantined read while every healthy read's record stays byte-identical
to an unsupervised run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.aligner.parallel import AlignRecipe, align_supervised
from repro.durability.supervisor import (
    HANG,
    KILL,
    KILL_ONCE,
    QUARANTINE_TAG,
    RAISE,
    PoisonPlan,
    Quarantine,
    SupervisorPolicy,
)
from repro.genome.sam import SamRecord
from repro.genome.sequence import decode
from repro.genome.synth import (
    PLATINUM_LIKE,
    ReadSimulator,
    synthesize_reference,
)
from repro.obs import names
from tests.helpers import fast_policy as _policy

POISON_INDEX = 7
BATCH = 6


@pytest.fixture(scope="module")
def corpus():
    """24 simulated reads — 4 windows of 6 at the test batch size."""
    rng = np.random.default_rng(31)
    reference = synthesize_reference(8_000, rng)
    sim = ReadSimulator(reference, PLATINUM_LIKE, seed=32)
    return reference, sim.simulate(24)


@pytest.fixture(autouse=True)
def _clean_obs():
    """Keep the global obs state isolated per test."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _baseline_lines(reference, reads):
    records = AlignRecipe(seeding="kmer").build(reference)(
        [(r.name, r.codes) for r in reads]
    )
    return [rec.to_line() for rec in records]


class TestPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_restarts": -1},
            {"crash_threshold": 0},
            {"heartbeat_interval": 0.0},
            {"hung_timeout": 0.0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorPolicy(**kwargs)


class TestPoisonPlan:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown poison mode"):
            PoisonPlan(modes={"r1": "segfault"})

    def test_kill_once_needs_marker_dir(self):
        with pytest.raises(ValueError, match="marker_dir"):
            PoisonPlan(modes={"r1": KILL_ONCE})

    def test_benign_read_is_untouched(self):
        PoisonPlan(modes={"r1": RAISE}).apply("r2")  # no raise

    def test_raise_mode_raises(self):
        with pytest.raises(RuntimeError, match="poison read"):
            PoisonPlan(modes={"r1": RAISE}).apply("r1")


class TestQuarantine:
    def test_writes_fastq_and_sidecar(self, tmp_path):
        quarantine = Quarantine(tmp_path)
        codes = np.array([0, 1, 2, 3], dtype=np.uint8)
        assert quarantine.add("readX", codes, "it crashed")
        fastq = (tmp_path / Quarantine.FASTQ).read_text()
        assert fastq == f"@readX\n{decode(codes)}\n+\nIIII\n"
        sidecar = (tmp_path / Quarantine.SIDECAR).read_text()
        assert "readX\tit crashed" in sidecar

    def test_dedupes_by_name(self, tmp_path):
        quarantine = Quarantine(tmp_path)
        codes = np.zeros(4, dtype=np.uint8)
        assert quarantine.add("readX", codes, "first")
        assert not quarantine.add("readX", codes, "second")
        fastq = (tmp_path / Quarantine.FASTQ).read_text()
        assert fastq.count("@readX") == 1

    def test_dedupe_survives_reopen(self, tmp_path):
        codes = np.zeros(4, dtype=np.uint8)
        Quarantine(tmp_path).add("readX", codes, "first")
        reopened = Quarantine(tmp_path)
        assert "readX" in reopened.names
        assert not reopened.add("readX", codes, "again")


class TestHealthy:
    def test_matches_unsupervised_output(self, corpus):
        reference, reads = corpus
        result = align_supervised(
            reference, reads, workers=2, batch_size=BATCH, seeding="kmer"
        )
        assert not result.interrupted
        assert result.restarts == 0
        assert result.quarantined == []
        lines = [rec.to_line() for rec in result.records]
        assert lines == _baseline_lines(reference, reads)

    def test_rejects_zero_workers(self, corpus):
        reference, reads = corpus
        with pytest.raises(ValueError):
            align_supervised(reference, reads, workers=0)

    def test_immediate_stop_is_interrupted(self, corpus):
        reference, reads = corpus
        result = align_supervised(
            reference,
            reads,
            workers=2,
            batch_size=BATCH,
            seeding="kmer",
            should_stop=lambda: True,
        )
        assert result.interrupted
        assert result.records == []

    def test_spawn_start_method(self, corpus):
        reference, reads = corpus
        result = align_supervised(
            reference,
            reads[:8],
            workers=2,
            batch_size=4,
            seeding="kmer",
            start_method="spawn",
        )
        lines = [rec.to_line() for rec in result.records]
        assert lines == _baseline_lines(reference, reads[:8])


def _expected_with_quarantined(reference, reads, poison_name):
    """Baseline lines with the poison read's record swapped for the
    unmapped ``XF:Z:quarantined`` record the supervisor emits."""
    expected = []
    for read, line in zip(reads, _baseline_lines(reference, reads)):
        if read.name == poison_name:
            expected.append(
                SamRecord.unmapped(
                    read.name,
                    decode(read.codes),
                    tags=(QUARANTINE_TAG,),
                ).to_line()
            )
        else:
            expected.append(line)
    return expected


@pytest.mark.chaos
class TestPoisonRuns:
    def test_sigkill_poison_is_bisected_and_quarantined(
        self, corpus, tmp_path
    ):
        """A read that SIGKILLs its worker is narrowed by bisection.

        Window 1 (reads 6..11) crashes twice at depth 0, then each
        bisection level crashes once: 2 + 1 + 1 + 1 = 5 restarts to
        isolate read 7, deterministically.
        """
        reference, reads = corpus
        poison = reads[POISON_INDEX].name
        obs.enable()
        quarantine = Quarantine(tmp_path)
        result = align_supervised(
            reference,
            reads,
            workers=2,
            batch_size=BATCH,
            seeding="kmer",
            policy=_policy(),
            poison=PoisonPlan(modes={poison: KILL}),
            quarantine=quarantine,
        )
        assert not result.interrupted
        assert result.quarantined == [poison]
        assert result.restarts == 5
        counters = obs.get_registry().snapshot()["counters"]
        assert counters[names.PIPELINE_SHARD_RESTARTS] == 5
        assert counters[names.PIPELINE_READS_QUARANTINED] == 1
        assert poison in quarantine.names
        lines = [rec.to_line() for rec in result.records]
        assert lines == _expected_with_quarantined(
            reference, reads, poison
        )

    def test_raising_poison_quarantined_without_restarts(
        self, corpus, tmp_path
    ):
        """A raising read fails cleanly: bisection, zero respawns."""
        reference, reads = corpus
        poison = reads[POISON_INDEX].name
        result = align_supervised(
            reference,
            reads,
            workers=2,
            batch_size=BATCH,
            seeding="kmer",
            policy=_policy(),
            poison=PoisonPlan(modes={poison: RAISE}),
            quarantine=Quarantine(tmp_path),
        )
        assert result.restarts == 0
        assert result.quarantined == [poison]
        lines = [rec.to_line() for rec in result.records]
        assert lines == _expected_with_quarantined(
            reference, reads, poison
        )

    def test_transient_crash_recovers_completely(self, corpus, tmp_path):
        """``kill_once`` models a transient fault: one restart, no
        quarantine, byte-identical output."""
        reference, reads = corpus
        poison = reads[POISON_INDEX].name
        result = align_supervised(
            reference,
            reads,
            workers=2,
            batch_size=BATCH,
            seeding="kmer",
            policy=_policy(),
            poison=PoisonPlan(
                modes={poison: KILL_ONCE}, marker_dir=str(tmp_path)
            ),
        )
        assert result.restarts == 1
        assert result.quarantined == []
        lines = [rec.to_line() for rec in result.records]
        assert lines == _baseline_lines(reference, reads)

    def test_restart_budget_exhaustion_raises(self, corpus, tmp_path):
        from repro.durability.supervisor import SupervisorError

        reference, reads = corpus
        poison = reads[POISON_INDEX].name
        with pytest.raises(SupervisorError, match="restart budget"):
            align_supervised(
                reference,
                reads,
                workers=2,
                batch_size=BATCH,
                seeding="kmer",
                policy=_policy(max_restarts=2),
                poison=PoisonPlan(modes={poison: KILL}),
            )

    @pytest.mark.slow
    def test_hung_worker_is_killed_and_poison_quarantined(
        self, corpus, tmp_path
    ):
        """A wedged worker (heart stopped) is detected via the
        heartbeat board, killed, and its poison read quarantined."""
        reference, reads = corpus
        poison = reads[POISON_INDEX].name
        result = align_supervised(
            reference,
            reads,
            workers=2,
            batch_size=BATCH,
            seeding="kmer",
            policy=_policy(hung_timeout=1.0),
            poison=PoisonPlan(modes={poison: HANG}),
            quarantine=Quarantine(tmp_path),
        )
        assert result.quarantined == [poison]
        assert result.restarts == 5
        lines = [rec.to_line() for rec in result.records]
        assert lines == _expected_with_quarantined(
            reference, reads, poison
        )
