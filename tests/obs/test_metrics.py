"""Unit tests of the metrics primitives and the registry."""

import json
import math

import numpy as np
import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    P2Quantile,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x.y")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_negative_increment_rejected(self):
        c = Counter("x.y")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_reset(self):
        c = Counter("x.y")
        c.inc(3)
        c.reset()
        assert c.value == 0


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("x.y")
        g.set(10.0)
        g.inc(2.5)
        g.inc(-0.5)
        assert g.value == 12.0

    def test_reset(self):
        g = Gauge("x.y")
        g.set(7)
        g.reset()
        assert g.value == 0.0


class TestHistogram:
    def test_moments(self):
        h = Histogram("x.y", buckets=(1.0, 10.0))
        for v in (0.5, 2.0, 3.5):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(6.0)
        assert h.mean == pytest.approx(2.0)
        snap = h.snapshot()
        assert snap["min"] == 0.5
        assert snap["max"] == 3.5

    def test_bucket_counts(self):
        h = Histogram("x.y", buckets=(1.0, 10.0, 100.0))
        for v in (0.1, 0.9, 1.0, 5.0, 50.0, 500.0):
            h.observe(v)
        snap = h.snapshot()["buckets"]
        # Bucket bound is an inclusive upper edge; last bin is +inf.
        assert snap["1"] == 3
        assert snap["10"] == 1
        assert snap["100"] == 1
        assert snap["+inf"] == 1

    def test_empty_snapshot_has_null_extremes(self):
        snap = Histogram("x.y").snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None
        assert snap["max"] is None
        assert all(v is None for v in snap["quantiles"].values())

    def test_untracked_quantile_rejected(self):
        h = Histogram("x.y")
        with pytest.raises(KeyError):
            h.quantile(0.42)

    def test_reset_forgets_everything(self):
        h = Histogram("x.y")
        h.observe(3.0)
        h.reset()
        assert h.count == 0
        assert h.snapshot()["buckets"]["+inf"] == 0


class TestQuantileAccuracy:
    """P² estimates on known distributions stay within a few percent."""

    def test_uniform(self):
        rng = np.random.default_rng(0)
        h = Histogram("x.y", buckets=DEFAULT_BUCKETS)
        for v in rng.uniform(0.0, 1.0, size=20_000):
            h.observe(float(v))
        assert h.quantile(0.5) == pytest.approx(0.5, abs=0.03)
        assert h.quantile(0.9) == pytest.approx(0.9, abs=0.03)
        assert h.quantile(0.99) == pytest.approx(0.99, abs=0.02)

    def test_exponential(self):
        rng = np.random.default_rng(1)
        h = Histogram("x.y")
        for v in rng.exponential(1.0, size=20_000):
            h.observe(float(v))
        # Exact quantiles of Exp(1): -ln(1 - q).
        assert h.quantile(0.5) == pytest.approx(math.log(2), rel=0.1)
        assert h.quantile(0.9) == pytest.approx(
            -math.log(0.1), rel=0.1
        )

    def test_small_sample_exact(self):
        est = P2Quantile(0.5)
        for v in (3.0, 1.0, 2.0):
            est.add(v)
        assert est.value() == 2.0

    def test_empty_is_nan(self):
        assert math.isnan(P2Quantile(0.5).value())

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            P2Quantile(1.5)


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")
        assert reg.counter("a.b", x=1) is not reg.counter("a.b", x=2)

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a.b")
        with pytest.raises(ValueError):
            reg.gauge("a.b")

    def test_labels_render_into_key(self):
        reg = MetricsRegistry()
        reg.counter("a.b", stage="narrow").inc(2)
        snap = reg.snapshot()
        assert snap["counters"]["a.b{stage=narrow}"] == 2

    def test_snapshot_groups_by_kind(self):
        reg = MetricsRegistry()
        reg.counter("c.x").inc()
        reg.gauge("g.x").set(3.5)
        reg.histogram("h.x").observe(1.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"c.x": 1}
        assert snap["gauges"] == {"g.x": 3.5}
        assert snap["histograms"]["h.x"]["count"] == 1

    def test_json_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("c.x").inc(4)
        reg.histogram("h.x").observe(0.25)
        reg.gauge("g.x").set(-1.5)
        assert json.loads(reg.to_json()) == json.loads(
            json.dumps(reg.snapshot())
        )

    def test_write_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c.x").inc()
        path = tmp_path / "m.json"
        reg.write_json(str(path))
        assert json.loads(path.read_text())["counters"]["c.x"] == 1

    def test_reset_preserves_identity(self):
        reg = MetricsRegistry()
        c = reg.counter("c.x")
        c.inc(9)
        reg.reset()
        assert c.value == 0
        assert reg.counter("c.x") is c
        assert len(reg) == 1
