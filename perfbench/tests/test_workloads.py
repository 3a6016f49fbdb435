"""Generator determinism and the BENCHMARK.json contract."""

import json
from pathlib import Path

import numpy as np

from perfbench import layers, workloads

ROOT = Path(__file__).resolve().parents[2]


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, workloads.DEFAULT_SEED, tmp_path / "a" / name, 40)
        b = workloads.generate(name, workloads.DEFAULT_SEED, tmp_path / "b" / name, 40)
        c = workloads.generate(name, workloads.HELD_OUT_SEED, tmp_path / "c" / name, 40)
        assert a.digests == b.digests, name
        assert a.digests["reads.fastq"] != c.digests["reads.fastq"], name
        assert [r.pos for r in a.reads] == [r.pos for r in b.reads]


def test_serve_open_starts_with_the_short_batched_reads(tmp_path):
    batch = workloads.generate("short_batched", 5, tmp_path / "batch")
    served = workloads.generate("serve_open", 5, tmp_path / "serve", 30)
    assert len(served.reads) == 30
    assert len(served.warmup) == workloads.SERVE_WARMUP
    assert served.reads == batch.reads[:30]
    assert served.digests["reference.fasta"] == batch.digests["reference.fasta"]


def test_read_truth_matches_the_reference():
    rng = np.random.default_rng(11)
    reference, repeats = workloads.make_reference(rng)
    text = workloads.decode(reference)
    reads = workloads.short_reads(reference, repeats, rng, 300, 101, 0.0)
    clean = [r for r in reads if r.indel_span == 0]
    assert len(clean) > 200
    for read in clean:
        forward = (
            workloads.reverse_complement(read.sequence)
            if read.reverse else read.sequence
        )
        origin = text[read.pos : read.pos + 101]
        assert sum(a != b for a, b in zip(forward, origin)) <= 8
        for twin in read.alternatives:
            # at least the half inside the repeat is the same sequence
            other = text[twin : twin + 101]
            assert sum(a == b for a, b in zip(other, origin)) >= 51


def test_tiling_truth_and_clear_zones():
    fragments = workloads.tiling_fragments(np.random.default_rng(2), 6)
    truth = workloads.expected_overlaps(fragments)
    assert len(truth) == 5 + 4
    assert ("frag00000", 400, 150, 400, "frag00001", 400, 0, 250) in truth
    assert ("frag00000", 400, 300, 400, "frag00002", 400, 0, 100) in truth
    # the last bases of every true overlap agree exactly
    a, b = fragments[0].sequence, fragments[1].sequence
    assert a[390:400] == b[240:250]


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(layers.PER_LAYER)
    assert set(layers.SPAN_METRIC) >= {e.span for e in layers.ENTRIES}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert spec["paths"] == ["perfbench"]
