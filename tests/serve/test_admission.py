"""Admission-control policy tests: shedding, deadlines, drain, quotas.

All time is injected (a scriptable clock), so the load-shedding and
deadline semantics are pinned deterministically — no sleeps, no
real sockets.
"""

from __future__ import annotations

import pytest

from repro.serve.admission import AdmissionQueue, MicroBatchPolicy, Ticket
from repro.serve.protocol import (
    E_DRAINING,
    E_OVERLOADED,
    Request,
    parse_request,
)
from repro.serve.protocol import align_request, encode
from repro.serve.quotas import QuotaTable, TokenBucket


def _ticket(rid: str, deadline: float | None = None) -> Ticket:
    request = Request(verb="ALIGN", id=rid, name=rid, seq="ACGT")
    return Ticket(
        request=request, session=None, admitted_at=0.0, deadline=deadline
    )


class TestAdmissionQueue:
    def test_admits_until_capacity_then_sheds_typed(self):
        q = AdmissionQueue(capacity=2)
        assert q.try_admit(_ticket("a")).admitted
        assert q.try_admit(_ticket("b")).admitted
        decision = q.try_admit(_ticket("c"))
        assert not decision.admitted
        assert decision.code == E_OVERLOADED
        assert decision.depth == 2
        assert q.depth() == 2

    def test_closed_queue_sheds_with_draining(self):
        q = AdmissionQueue(capacity=4)
        q.close()
        decision = q.try_admit(_ticket("a"))
        assert not decision.admitted
        assert decision.code == E_DRAINING

    def test_pop_wave_batches_up_to_max(self):
        q = AdmissionQueue(capacity=8)
        for i in range(5):
            q.try_admit(_ticket(f"r{i}"))
        wave = q.pop_wave(max_batch=3, linger_s=0.0, clock=lambda: 1.0)
        assert [t.request.id for t in wave.batch] == ["r0", "r1", "r2"]
        assert q.depth() == 2

    def test_expired_tickets_split_out_never_batched(self):
        q = AdmissionQueue(capacity=8)
        q.try_admit(_ticket("dead", deadline=0.5))
        q.try_admit(_ticket("alive", deadline=100.0))
        wave = q.pop_wave(max_batch=8, linger_s=0.0, clock=lambda: 1.0)
        assert [t.request.id for t in wave.expired] == ["dead"]
        assert [t.request.id for t in wave.batch] == ["alive"]

    def test_drain_pops_remaining_then_signals_closed(self):
        q = AdmissionQueue(capacity=8)
        q.try_admit(_ticket("a"))
        q.close()
        wave = q.pop_wave(max_batch=8, linger_s=5.0, clock=lambda: 0.0)
        assert [t.request.id for t in wave.batch] == ["a"]
        assert not wave.closed
        assert q.pop_wave(
            max_batch=8, linger_s=0.0, clock=lambda: 0.0
        ).closed

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=4).pop_wave(
                max_batch=0, linger_s=0.0, clock=lambda: 0.0
            )


class TestTokenBucket:
    def test_burst_then_refusal_with_retry_hint(self):
        bucket = TokenBucket(rate=2.0, burst=2)
        assert bucket.take(0.0).allowed
        assert bucket.take(0.0).allowed
        refused = bucket.take(0.0)
        assert not refused.allowed
        assert refused.retry_after_ms == 500  # 1 token / (2 per s)

    def test_refill_restores_tokens(self):
        bucket = TokenBucket(rate=1.0, burst=1)
        assert bucket.take(0.0).allowed
        assert not bucket.take(0.5).allowed
        assert bucket.take(1.6).allowed

    def test_burst_is_capped(self):
        bucket = TokenBucket(rate=100.0, burst=2)
        assert bucket.take(1000.0).allowed
        assert bucket.take(1000.0).allowed
        assert not bucket.take(1000.0).allowed


class TestQuotaTable:
    def test_disabled_table_always_allows(self):
        table = QuotaTable(rate=None)
        assert not table.enabled
        for _ in range(100):
            assert table.take("anyone", 0.0).allowed

    def test_per_client_isolation(self):
        table = QuotaTable(rate=1.0, burst=1)
        assert table.take("a", 0.0).allowed
        assert not table.take("a", 0.0).allowed
        assert table.take("b", 0.0).allowed  # b has its own bucket

    def test_anonymous_clients_share_one_bucket(self):
        table = QuotaTable(rate=1.0, burst=1)
        assert table.take("", 0.0).allowed
        assert not table.take("", 0.0).allowed

    def test_idle_buckets_evicted_past_horizon(self):
        table = QuotaTable(rate=1.0, burst=1)
        for i in range(1025):
            table.take(f"client-{i}", 0.0)
        # The next draw far in the future triggers eviction of all
        # idle buckets; only the fresh one remains.
        table.take("fresh", QuotaTable.IDLE_EVICT_S + 1.0)
        assert len(table._buckets) == 1


class TestMicroBatchPolicy:
    def test_linger_seconds_conversion(self):
        assert MicroBatchPolicy(max_batch=4, linger_ms=250.0).linger_s == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            MicroBatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            MicroBatchPolicy(linger_ms=-1.0)


def test_ticket_expiry_round_trips_through_the_wire_shape():
    """A parsed request's deadline drives ticket expiry as expected."""
    req = parse_request(
        encode(align_request("r1", "read0", "ACGT", deadline_ms=250))
    )
    ticket = Ticket(
        request=req,
        session=None,
        admitted_at=10.0,
        deadline=10.0 + req.deadline_ms / 1000.0,
    )
    assert not ticket.expired(10.2)
    assert ticket.expired(10.25)
