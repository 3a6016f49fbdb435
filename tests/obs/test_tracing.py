"""Unit tests of the span tracer and Chrome-trace export."""

import json

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NOOP_SPAN, Tracer


class TestDisabled:
    def test_span_is_shared_noop(self):
        tracer = Tracer()
        assert tracer.span("a.b") is NOOP_SPAN
        with tracer.span("a.b"):
            pass
        assert tracer.records == []

    def test_noop_span_reports_zero_duration(self):
        with Tracer().span("a.b") as sp:
            pass
        assert sp.duration == 0.0


class TestSpans:
    def test_records_duration(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("a.b") as sp:
            pass
        assert sp.duration >= 0.0
        (record,) = tracer.records
        assert record.name == "a.b"
        assert record.duration == sp.duration

    def test_nesting_depths(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {r.name: r for r in tracer.records}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        # Inner finishes first; completion order reflects that.
        assert tracer.records[0].name == "inner"

    def test_exception_safety(self):
        tracer = Tracer()
        tracer.enable()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("body failed")
        (record,) = tracer.records
        assert record.name == "boom"
        # The stack unwound: the next span sits at depth 0 again.
        with tracer.span("after"):
            pass
        assert tracer.last("after").depth == 0

    def test_labels_recorded(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("a.b", jobs=7):
            pass
        assert tracer.last("a.b").labels == {"jobs": 7}

    def test_decorator(self):
        tracer = Tracer()
        tracer.enable()

        @tracer.traced("work.unit")
        def work(x):
            return x + 1

        assert work(1) == 2
        assert {r.name for r in tracer.records} == {"work.unit"}

    def test_max_records_cap(self):
        tracer = Tracer(max_records=2)
        tracer.enable()
        for _ in range(5):
            with tracer.span("a.b"):
                pass
        assert len(tracer.records) == 2
        assert tracer.dropped == 3

    def test_reset(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("a.b"):
            pass
        tracer.reset()
        assert tracer.records == []
        assert tracer.dropped == 0


class TestRegistryBridge:
    def test_span_observes_latency_histogram(self):
        reg = MetricsRegistry()
        tracer = Tracer(registry=reg)
        tracer.enable()
        with tracer.span("stage.x"):
            pass
        hist = reg.histogram("stage.x.seconds")
        assert hist.count == 1
        assert hist.sum >= 0.0


class TestChromeExport:
    def test_export_is_loadable_complete_events(self, tmp_path):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("outer", kind="test"):
            with tracer.span("inner"):
                pass
        path = tmp_path / "trace.json"
        tracer.export_chrome(str(path))
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float)
            assert event["pid"] > 0
            assert event["tid"] > 0
        outer = next(e for e in events if e["name"] == "outer")
        assert outer["args"]["kind"] == "test"
        assert doc["otherData"]["dropped_spans"] == 0


class TestGlobalFacade:
    def test_enable_disable_round_trip(self):
        assert not obs.enabled()
        obs.enable()
        assert obs.enabled()
        with obs.span("x.y"):
            pass
        assert "x.y" in {r.name for r in obs.get_tracer().records}
        obs.disable()
        assert obs.get_tracer().span("z") is NOOP_SPAN

    def test_global_tracer_feeds_global_registry(self):
        obs.enable()
        with obs.span("x.y"):
            pass
        snap = obs.get_registry().snapshot()
        assert snap["histograms"]["x.y.seconds"]["count"] == 1
