"""Integration tests for the resident server: the ISSUE's acceptance bar.

Real sockets, real threads, an in-process :class:`AlignmentServer`.
The load shape that matters is pinned here: a queue of capacity Q hit
with 4×Q concurrent requests must shed the excess with typed
rejections (not crash, not stall), every accepted response must be
byte-identical to batch-mode ``repro align`` output, and a drain must
answer all in-flight requests before shutdown.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.aligner.engines import BatchedEngine
from repro.aligner.pipeline import Aligner
from repro.durability.breaker import BreakerState
from repro.durability.wal import WAL_NAME, RequestWAL
from repro.faults.netfaults import NetFaultPlan, NetFaultPolicy
from repro.genome.sequence import decode
from repro.genome.synth import ReadSimulator, synthesize_reference
from repro.serve.client import request_status, run_load
from repro.serve.protocol import (
    E_BAD_REQUEST,
    E_BREAKER_OPEN,
    E_DEADLINE,
    E_DRAINING,
    E_ENGINE,
    E_OVERLOADED,
    E_QUOTA,
    align_request,
    encode,
)
from repro.serve.server import AlignmentServer, ServeConfig

HOST = "127.0.0.1"


@pytest.fixture(scope="module")
def corpus():
    """Reference, reads, and the batch-mode truth SAM lines."""
    rng = np.random.default_rng(7)
    reference = synthesize_reference(12_000, rng)
    sim = ReadSimulator(reference, seed=8)
    reads = sim.simulate(24)
    pairs = [(r.name, decode(r.codes)) for r in reads]
    truth_aligner = Aligner(
        reference, BatchedEngine(), seeding="kmer", reference_name="chr1"
    )
    truth = {
        rec.qname: rec.to_line()
        for rec in truth_aligner.align_batched(
            [(r.name, r.codes) for r in reads]
        )
    }
    return reference, pairs, truth


def _aligner(reference) -> Aligner:
    return Aligner(
        reference, BatchedEngine(), seeding="kmer", reference_name="chr1"
    )


@contextmanager
def running(reference, **cfg):
    """A started server on an ephemeral port, always shut down."""
    server = AlignmentServer(_aligner(reference), ServeConfig(**cfg))
    port = server.start()
    try:
        yield server, port
    finally:
        server.shutdown()


def _wait_counter(server, key: str, value: int, timeout_s: float = 10.0):
    """Wait for a stats counter: counters tick just after the send."""
    deadline = time.monotonic() + timeout_s
    while (
        server.stats.snapshot()[key] < value
        and time.monotonic() < deadline
    ):
        time.sleep(0.01)


def _exchange(port: int, payloads: list[dict], expect: int) -> list[dict]:
    """Send frames on one connection; read ``expect`` responses."""
    with socket.create_connection((HOST, port), timeout=10) as sock:
        for payload in payloads:
            sock.sendall(encode(payload))
        stream = sock.makefile("rb")
        return [json.loads(stream.readline()) for _ in range(expect)]


class TestServing:
    def test_concurrent_burst_is_byte_identical_to_batch_mode(
        self, corpus
    ):
        reference, pairs, truth = corpus
        with running(reference, max_batch=8, linger_ms=5) as (_, port):
            report = run_load(
                HOST, port, pairs, connections=3, client="t1"
            )
        assert report.unanswered == []
        assert report.shed_total == 0
        assert len(report.ok) == len(pairs)
        for sam in report.ok.values():
            name = sam.split("\t")[0]
            assert sam == truth[name]

    def test_status_verb_reports_health(self, corpus):
        reference, pairs, _ = corpus
        with running(reference, linger_ms=5) as (server, port):
            run_load(HOST, port, pairs[:4], client="t2")
            _wait_counter(server, "served", 4)
            status = request_status(HOST, port)
        assert status["state"] == "serving"
        assert status["breaker"] == BreakerState.CLOSED
        assert status["counters"]["served"] == 4
        assert status["counters"]["requests"]["ALIGN"] == 4

    def test_bad_frame_gets_typed_error_and_connection_survives(
        self, corpus
    ):
        reference, _, _ = corpus
        with running(reference) as (_, port):
            with socket.create_connection((HOST, port), timeout=10) as s:
                s.sendall(b"this is not json\n")
                s.sendall(
                    encode({"v": 1, "verb": "PING", "id": "p1"})
                )
                stream = s.makefile("rb")
                first = json.loads(stream.readline())
                second = json.loads(stream.readline())
        assert first["ok"] is False
        assert first["error"] == E_BAD_REQUEST
        assert second["ok"] is True
        assert second["pong"] is True


class TestOverload:
    def test_four_x_capacity_sheds_typed_and_serves_the_rest(
        self, corpus
    ):
        """The acceptance-criteria load shape: Q capacity, 4Q offered."""
        reference, pairs, truth = corpus
        capacity = 8
        burst = [
            (f"{name}", seq)
            for name, seq in (pairs * 2)[: 4 * capacity]
        ]
        with running(
            reference,
            queue_capacity=capacity,
            high_water=capacity,
            max_batch=capacity,
            linger_ms=300,
        ) as (server, port):
            report = run_load(HOST, port, burst, client="flood")
            status = request_status(HOST, port)
        # Every request was answered: served or typed rejection.
        assert report.unanswered == []
        assert len(report.ok) + report.shed_total == 4 * capacity
        # The excess was shed fast with the typed overload code and a
        # retry-after hint, and the server survived to answer STATUS.
        assert report.shed(E_OVERLOADED) > 0
        for payload in report.errors.values():
            assert payload["error"] == E_OVERLOADED
            assert payload["retry_after_ms"] >= 1
        assert status["counters"]["shed"][E_OVERLOADED] == report.shed(
            E_OVERLOADED
        )
        # Accepted responses are still byte-identical to batch mode.
        assert len(report.ok) >= capacity
        for sam in report.ok.values():
            assert sam == truth[sam.split("\t")[0]]

    def test_queue_depth_never_exceeds_capacity(self, corpus):
        reference, pairs, _ = corpus
        with running(
            reference,
            queue_capacity=4,
            high_water=2,
            linger_ms=200,
            max_batch=4,
        ) as (server, port):
            run_load(HOST, port, pairs[:16], client="depth")
            assert server.queue.depth() <= 4


class TestDeadlines:
    def test_expired_requests_get_typed_timeout_not_a_wave(self, corpus):
        reference, pairs, _ = corpus
        with running(reference, linger_ms=300, max_batch=64) as (
            server,
            port,
        ):
            report = run_load(
                HOST, port, pairs[:4], client="late", deadline_ms=1
            )
            status = request_status(HOST, port)
        assert report.shed(E_DEADLINE) == 4
        assert status["counters"]["timeouts"] == 4
        assert status["counters"]["served"] == 0
        for payload in report.errors.values():
            assert payload["error"] == E_DEADLINE


class TestQuotas:
    def test_over_quota_client_sheds_with_retry_hint(self, corpus):
        reference, pairs, _ = corpus
        burst = (pairs * 2)[:10]
        with running(
            reference, quota_rate=1.0, quota_burst=2, linger_ms=5
        ) as (_, port):
            report = run_load(HOST, port, burst, client="greedy")
        assert report.unanswered == []
        assert report.shed(E_QUOTA) >= 7
        assert len(report.ok) >= 2
        for payload in report.errors.values():
            assert payload["error"] == E_QUOTA
            assert payload["retry_after_ms"] >= 1

    def test_quota_is_per_client(self, corpus):
        reference, pairs, _ = corpus
        with running(
            reference, quota_rate=1.0, quota_burst=4, linger_ms=5
        ) as (_, port):
            first = run_load(HOST, port, pairs[:4], client="one")
            second = run_load(HOST, port, pairs[:4], client="two")
        assert len(first.ok) == 4
        assert len(second.ok) == 4


class TestDrain:
    def test_drain_answers_stragglers_then_rejects_new_work(
        self, corpus
    ):
        reference, pairs, truth = corpus
        server = AlignmentServer(
            _aligner(reference),
            ServeConfig(linger_ms=400, max_batch=64, queue_capacity=64),
        )
        port = server.start()
        try:
            report_box: list = []
            loader = threading.Thread(
                target=lambda: report_box.append(
                    run_load(HOST, port, pairs[:12], client="drain")
                ),
                daemon=True,
            )
            loader.start()
            # Let the burst be admitted into the lingering wave, then
            # drain: close admission, flush the queue.
            deadline = time.monotonic() + 5.0
            while (
                server.stats.snapshot()["admitted"] < 12
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            server.drain()
            loader.join(timeout=30)
            report = report_box[0]
            # Every in-flight request was answered before exit...
            assert report.unanswered == []
            assert len(report.ok) == 12
            for sam in report.ok.values():
                assert sam == truth[sam.split("\t")[0]]
            # ...and new work is refused with the typed draining code.
            late = run_load(HOST, port, pairs[:1], client="late")
            assert late.shed(E_DRAINING) == 1
        finally:
            server.shutdown()
        assert server._drained.is_set()


class TestEngineDegradation:
    class _BrokenAligner:
        """An aligner whose seeding always explodes."""

        def _seed_window(self, queries):
            raise RuntimeError("kernel down")

    def test_failing_waves_answer_typed_then_breaker_opens(self):
        server = AlignmentServer(
            self._BrokenAligner(),
            ServeConfig(
                max_batch=1, linger_ms=0, breaker_threshold=2
            ),
        )
        port = server.start()
        try:
            codes = []
            for i in range(4):
                [resp] = _exchange(
                    port,
                    [align_request(f"r{i}", f"read{i}", "ACGTACGT")],
                    expect=1,
                )
                assert resp["ok"] is False
                codes.append(resp["error"])
            # Two failing waves trip the breaker; later requests are
            # rejected without touching the engine.
            assert codes[:2] == [E_ENGINE, E_ENGINE]
            assert E_BREAKER_OPEN in codes[2:]
            assert server.breaker.state == BreakerState.OPEN
            status = request_status(HOST, port)
            assert status["breaker"] == BreakerState.OPEN
        finally:
            server.shutdown()


class TestDisconnectTolerance:
    def test_vanished_clients_cost_nothing(self, corpus):
        reference, pairs, _ = corpus
        server = AlignmentServer(
            _aligner(reference), ServeConfig(linger_ms=5)
        )
        server.fault_plan = NetFaultPlan(
            NetFaultPolicy(disconnect_rate=1.0)
        )
        port = server.start()
        try:
            report = run_load(HOST, port, pairs[:4], client="ghost")
            # Every response send found the client gone.  The client
            # sees EOF immediately, so wait for the wave to retire.
            assert len(report.ok) == 0
            assert len(report.unanswered) == 4
            _wait_counter(server, "served", 4)
            snap = server.stats.snapshot()
            assert snap["served"] == 4
            assert snap["disconnects"] == 4
            assert server.fault_plan.disconnects == 4
            # The server itself is unharmed: healthy clients still work.
            server.fault_plan = None
            healthy = run_load(HOST, port, pairs[:2], client="ok")
            assert len(healthy.ok) == 2
        finally:
            server.shutdown()

    def test_stall_plan_delays_but_still_answers(self, corpus):
        reference, pairs, _ = corpus
        server = AlignmentServer(
            _aligner(reference), ServeConfig(linger_ms=5)
        )
        server.fault_plan = NetFaultPlan(
            NetFaultPolicy(stall_rate=1.0, stall_s=0.01)
        )
        port = server.start()
        try:
            report = run_load(HOST, port, pairs[:3], client="slow")
            assert len(report.ok) == 3
            assert server.fault_plan.stalls >= 3
        finally:
            server.shutdown()


class TestWal:
    def test_clean_run_retires_every_admitted_request(
        self, corpus, tmp_path
    ):
        reference, pairs, _ = corpus
        wal_dir = tmp_path / "wal"
        with running(reference, wal_dir=str(wal_dir), linger_ms=5) as (
            server,
            port,
        ):
            run_load(HOST, port, pairs[:6], client="walled")
        replay = RequestWAL.scan(wal_dir / WAL_NAME)
        assert len(replay.admitted) == 6
        assert replay.completed == set(replay.admitted)
        assert replay.lost == []

    def test_restart_reports_lost_requests_from_previous_wal(
        self, corpus, tmp_path
    ):
        reference, _, _ = corpus
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        # Fabricate a crashed run: two admits, one done, a torn tail.
        wal = RequestWAL(wal_dir / WAL_NAME)
        wal.admit("answered", "c", "read0")
        wal.admit("lost-1", "c", "read1")
        wal.done("answered")
        wal.close()
        with open(wal_dir / WAL_NAME, "ab") as handle:
            handle.write(b"deadbeef {\"torn")
        with running(reference, wal_dir=str(wal_dir)) as (server, port):
            assert [
                rec["id"] for rec in server.lost_on_restart
            ] == ["lost-1"]
            status = request_status(HOST, port)
            assert status["lost_on_restart"] == ["lost-1"]
        # The crashed log was rotated aside, not silently overwritten.
        assert (wal_dir / "requests.wal.prev").exists()
