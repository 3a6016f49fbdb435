"""Workload analysis and experiment harness helpers."""
