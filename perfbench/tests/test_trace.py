"""Self-time arithmetic and the identity-based install/restore."""

import json

import pytest

from perfbench import layers
from perfbench.trace import Entry, Span, Tracer, self_times, write_chrome_trace


def test_self_time_is_duration_minus_direct_children():
    #  root 0..10
    #    a 1..6
    #      c 2..3
    #    b 6..9
    spans = [
        Span("root", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 6.0, 0, 1),
        Span("c", 2.0, 3.0, 1, 1),
        Span("b", 6.0, 9.0, 0, 1),
        # another thread's root must not disturb the first tree
        Span("w", 0.0, 4.0, -1, 2),
    ]
    self_times(spans)
    assert [s.self_time for s in spans] == [2.0, 4.0, 1.0, 3.0, 4.0]
    assert sum(s.self_time for s in spans[:4]) == spans[0].duration


def test_tracer_nests_counts_and_sums_to_the_root():
    tracer = Tracer()
    inner = tracer.wrap(
        lambda q, t: len(q) + len(t),
        Entry("m", "inner", "inner", count=lambda a, k: (1, len(a[0]) * len(a[1])),
              measure=lambda result: result),
    )
    outer = tracer.wrap(lambda: [inner("ab", "cde"), inner("a", "b")],
                        Entry("m", "outer", "outer"))
    assert tracer.call("root", outer) == [5, 2]
    spans = tracer.spans()
    assert [s.name for s in spans] == ["root", "outer", "inner", "inner"]
    assert [s.parent for s in spans] == [-1, 0, 1, 1]
    assert (spans[2].jobs, spans[2].cells, spans[2].out) == (1, 6, 5)
    total = sum(s.self_time for s in spans)
    assert total == pytest.approx(spans[0].duration, abs=1e-12)


def test_span_closes_when_the_wrapped_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap(boom, Entry("m", "boom", "boom"))
    with pytest.raises(KeyError):
        tracer.call("root", wrapped)
    assert tracer.call("root", lambda: 1) == 1
    assert [s.parent for s in tracer.spans()] == [-1, 0, -1]


def test_layer_rows_sum_to_wall_and_counts_come_from_the_boundary():
    spans = [
        Span("cli", 0.0, 10.0, -1, 1),
        Span("aligner.window", 1.0, 9.0, 0, 1),
        Span("seeding.seed", 1.0, 3.0, 1, 1, out=7),
        Span("kernels.extend", 3.0, 6.0, 1, 1, jobs=4, cells=400),
        # a fallback kernel call nested in the first: not a dispatch
        Span("kernels.extend", 4.0, 5.0, 3, 1, jobs=1, cells=100),
        Span("align.tbfill", 6.0, 8.0, 1, 1, jobs=2, cells=50),
    ]
    self_times(spans)
    snapshot = {"counters": {
        "seedex.extensions.total": 10,
        "seedex.check.outcome{outcome=pass_s2}": 8,
        "seedex.check.outcome{outcome=pass_checks}": 1,
        "seedex.check.outcome{outcome=fail_escore}": 1,
    }}
    values = layers.layer_metrics(spans, snapshot, records=2)
    assert values["trace.wall_s"] == 10.0
    assert sum(values[m] for m in layers.TIME_METRICS) == pytest.approx(10.0)
    assert values["cli.other_s"] == 2.0
    assert values["kernels.extend_s"] == 3.0
    assert values["kernels.extend_calls"] == 1
    assert values["kernels.extend_cells"] == 400
    assert values["seeding.seeds_per_read"] == 3.5
    assert values["align.tbfill_cells"] == 50
    assert values["core.pass_frac"] == 0.9
    assert values["core.rerun_frac"] == pytest.approx(0.1)


def test_served_window_charges_idle_time_to_other():
    spans = [
        Span("aligner.window", 0.5, 1.0, -1, 2),   # warm-up, before the window
        Span("aligner.window", 2.0, 3.0, -1, 2),
        Span("seeding.seed", 2.0, 2.4, 1, 2),
    ]
    self_times(spans)
    values = layers.layer_metrics(spans, {}, records=1, since=1.5, wall=4.0)
    assert values["trace.wall_s"] == 4.0
    assert values["aligner.glue_s"] == pytest.approx(0.6)
    assert values["cli.other_s"] == pytest.approx(3.0)
    assert sum(values[m] for m in layers.TIME_METRICS) == pytest.approx(4.0)


def test_chrome_trace_has_complete_events(tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace([Span("a", 1.0, 1.5, -1, 9, jobs=2)], path)
    (event,) = json.loads(path.read_text())["traceEvents"]
    assert event["ph"] == "X" and event["dur"] == 500000.0
    assert event["ts"] == 0.0 and event["tid"] == 9


def test_install_covers_from_imports_and_restore_undoes_it():
    pytest.importorskip("repro.cli")
    import repro.align.fullmatrix as fullmatrix
    import repro.aligner.pipeline as pipeline
    from repro.seeding.kmer_index import KmerIndex

    original = fullmatrix.fill_extension
    seed_read = KmerIndex.__dict__["seed_read"]
    assert pipeline.fill_extension is original
    tracer = Tracer()
    unresolved = tracer.install(
        layers.ENTRIES + [Entry("repro.align.fullmatrix", "no_such", "x")]
    )
    try:
        assert unresolved == ["repro.align.fullmatrix:no_such"]
        assert fullmatrix.fill_extension is not original
        # the ``from ... import`` binding was replaced by identity
        assert pipeline.fill_extension is fullmatrix.fill_extension
        assert KmerIndex.__dict__["seed_read"] is not seed_read
    finally:
        tracer.restore()
    assert fullmatrix.fill_extension is original
    assert pipeline.fill_extension is original
    assert KmerIndex.__dict__["seed_read"] is seed_read
