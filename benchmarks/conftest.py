"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's result artifacts (or a
supplementary ablation from DESIGN.md §4) inside a ``pytest-benchmark``
measurement. Absolute numbers live in ``benchmark.extra_info`` so the JSON
output of ``pytest benchmarks/ --benchmark-json=...`` carries the full
paper-vs-measured record.
"""

from __future__ import annotations


def record_rows(benchmark, rows: dict) -> None:
    """Attach regenerated table rows (sim-derived, virtual-time metrics)
    to the benchmark record."""
    benchmark.extra_info.update(rows)
