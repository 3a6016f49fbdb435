"""FaultInjector: determinism, rates, sites, corruption operators."""

import numpy as np
import pytest

from repro.faults.injector import (
    ALL_SITES,
    LINE_SITES,
    RECORD_SITES,
    FaultInjector,
)
from repro.faults.wire import pack_job
from repro.genome.synth import ExtensionJob

pytestmark = pytest.mark.chaos
"""Chaos tier: selected by the CI chaos job via ``-m chaos``."""


def _lines(n_chars=250):
    q = np.zeros(101, dtype=np.uint8)
    t = np.arange(n_chars - 101, dtype=np.uint8) % 4
    return pack_job(ExtensionJob(query=q, target=t.astype(np.uint8), h0=25))


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = FaultInjector(rate=0.3, seed=42)
        b = FaultInjector(rate=0.3, seed=42)
        assert [a.draw() for _ in range(200)] == [
            b.draw() for _ in range(200)
        ]

    def test_different_seeds_diverge(self):
        a = FaultInjector(rate=0.3, seed=1)
        b = FaultInjector(rate=0.3, seed=2)
        assert [a.draw() for _ in range(200)] != [
            b.draw() for _ in range(200)
        ]

    def test_reset_restarts_the_stream(self):
        inj = FaultInjector(rate=0.3, seed=7)
        first = [inj.draw() for _ in range(50)]
        counted = dict(inj.injected)
        inj.reset()
        assert inj.injected == {}
        assert [inj.draw() for _ in range(50)] == first
        assert inj.injected == counted


class TestRatesAndSites:
    def test_zero_rate_never_fires(self):
        inj = FaultInjector(rate=0.0, seed=0)
        assert all(inj.draw() is None for _ in range(500))
        assert inj.total_injected == 0

    def test_rate_one_always_fires_first_site(self):
        inj = FaultInjector(rate=1.0, seed=0)
        assert inj.draw() == ALL_SITES[0]

    def test_observed_rate_tracks_configured_rate(self):
        inj = FaultInjector(rate=0.05, seed=3)
        n = 4000
        hits = sum(inj.draw() is not None for _ in range(n))
        # P(any site) = 1 - (1-rate)^len(sites) ~ 0.37 for 9 sites.
        expected = 1.0 - (1.0 - 0.05) ** len(ALL_SITES)
        assert abs(hits / n - expected) < 0.05

    def test_site_restriction_honored(self):
        inj = FaultInjector(rate=0.5, seed=5, sites=("line.bitflip",))
        drawn = {inj.draw() for _ in range(200)}
        assert drawn <= {None, "line.bitflip"}

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(sites=("line.bitflip", "bogus.site"))

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(rate=1.5)

    def test_every_injection_is_counted(self):
        inj = FaultInjector(rate=0.4, seed=9)
        drawn = [s for s in (inj.draw() for _ in range(300)) if s]
        assert inj.total_injected == len(drawn)
        assert set(inj.injected) <= set(ALL_SITES)


class TestCorruptionOperators:
    def test_bitflip_changes_exactly_one_bit(self):
        inj = FaultInjector(rate=1.0, seed=1)
        lines = _lines()
        out = inj.corrupt_lines("line.bitflip", lines)
        diffs = [
            bin(a ^ b).count("1")
            for la, lb in zip(lines, out)
            for a, b in zip(la, lb)
        ]
        assert sum(diffs) == 1

    def test_truncate_shortens_a_line(self):
        inj = FaultInjector(rate=1.0, seed=2)
        lines = _lines()
        out = inj.corrupt_lines("line.truncate", lines)
        assert sum(len(line) for line in out) < sum(
            len(line) for line in lines
        )

    def test_drop_removes_a_line(self):
        inj = FaultInjector(rate=1.0, seed=3)
        lines = _lines()
        assert len(inj.corrupt_lines("line.drop", lines)) == len(lines) - 1

    def test_reorder_single_line_is_tolerated(self):
        inj = FaultInjector(rate=1.0, seed=4)
        lines = _lines(30)[:1]
        assert inj.corrupt_lines("stream.reorder", lines) == lines
        assert inj.tolerated.get("stream.reorder") == 1

    def test_reorder_identical_lines_is_tolerated(self):
        inj = FaultInjector(rate=1.0, seed=4)
        lines = [b"\x00" * 64, b"\x00" * 64]
        assert inj.corrupt_lines("stream.reorder", lines) == lines
        assert inj.tolerated.get("stream.reorder") == 1

    def test_record_sites(self):
        inj = FaultInjector(rate=1.0, seed=6)
        blob = bytes(range(12))
        flipped = inj.corrupt_record("record.bitflip", blob)
        assert flipped != blob and len(flipped) == len(blob)
        assert len(inj.corrupt_record("record.truncate", blob)) < 12
        assert inj.corrupt_record("record.drop", blob) is None

    def test_wrong_site_class_rejected(self):
        inj = FaultInjector()
        with pytest.raises(ValueError):
            inj.corrupt_lines("record.bitflip", _lines())
        with pytest.raises(ValueError):
            inj.corrupt_record("line.bitflip", b"x" * 12)

    def test_site_classes_partition_the_datapath(self):
        assert LINE_SITES.isdisjoint(RECORD_SITES)
        assert LINE_SITES | RECORD_SITES < set(ALL_SITES)


class TestSinkMirroring:
    class _Sink:
        def __init__(self):
            self.events = []

        def record_injected(self, site):
            self.events.append(("injected", site))

        def record_tolerated(self, site):
            self.events.append(("tolerated", site))

    def test_sink_sees_every_injection(self):
        sink = self._Sink()
        inj = FaultInjector(rate=0.5, seed=11, sink=sink)
        for _ in range(100):
            inj.draw()
        injected = [e for e in sink.events if e[0] == "injected"]
        assert len(injected) == inj.total_injected > 0
