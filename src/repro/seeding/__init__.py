"""Seeding substrate: suffix array, FM-index, MEMs, k-mers, chaining."""
