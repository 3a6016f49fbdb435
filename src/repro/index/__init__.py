"""Persistent, CRC-verified, memory-mapped reference index store.

Seeding structures (suffix array, FM-index tables, k-mer index) are
expensive to build and were previously recomputed by every process on
every run.  This package serializes them once into a single versioned
artifact — ``repro index build`` — and loads them back zero-copy via
``numpy.memmap``, so shard workers and the resident server all share
one set of page-cache pages under both fork and spawn start methods.

Safety before speed: every load climbs a ladder of integrity checks
(magic/schema → header CRC → per-section CRC → fingerprint/drift
pins) and fails with a *typed* error rather than ever serving seeds
from damaged or mismatched bytes.  See ``docs/index.md`` for the
artifact format and the drift rules.
"""
