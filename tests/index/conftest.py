"""Shared fixtures: one reference, one built artifact per module."""

from __future__ import annotations

import numpy as np
import pytest

from repro.genome.synth import ReadSimulator, synthesize_reference
from repro.index.build import build_index


@pytest.fixture(scope="module")
def reference():
    """A repeat-bearing synthetic reference (module-scoped: read-only)."""
    rng = np.random.default_rng(41)
    return synthesize_reference(15_000, rng, repeat_fraction=0.05)


@pytest.fixture(scope="module")
def reads(reference):
    """A small Platinum-like corpus over the module reference."""
    sim = ReadSimulator(reference, seed=42)
    return [(r.name, r.codes) for r in sim.simulate(16)]


@pytest.fixture(scope="module")
def artifact(reference, tmp_path_factory):
    """One built artifact, shared read-only by a module's tests."""
    path = tmp_path_factory.mktemp("index") / "ref.rpidx"
    loaded = build_index(reference, path)
    return path, loaded
