"""Percentile and due-time latency arithmetic."""

import math

import pytest

from perfbench import measure


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert measure.percentile(values, 0.50) == 50
    assert measure.percentile(values, 0.99) == 99
    assert measure.percentile(values, 1.0) == 100
    assert measure.percentile([7.0], 0.99) == 7.0
    # 1,000 samples leave 10 beyond the 99th percentile
    big = list(range(1000))
    assert sum(1 for v in big if v > measure.percentile(big, 0.99)) == 10
    with pytest.raises(ValueError):
        measure.percentile([], 0.5)


def test_latency_counts_from_the_due_time_not_the_send_time():
    requests = [
        {"due": 10.000, "sent": 10.000, "received": 10.050},
        # the generator stalled 30 ms: the request still waited 80 ms
        {"due": 10.010, "sent": 10.040, "received": 10.090},
        {"due": 10.020, "sent": 10.041, "received": None},
    ]
    latencies = measure.due_latencies_ms(requests)
    assert latencies[0] == pytest.approx(50.0)
    assert latencies[1] == pytest.approx(80.0)
    assert math.isinf(latencies[2])
    assert measure.lateness_ms(requests) == pytest.approx(30.0)
