"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's result artifacts (or a
supplementary ablation from DESIGN.md §4) inside a ``pytest-benchmark``
measurement. Absolute numbers live in ``benchmark.extra_info`` so the JSON
output of ``pytest benchmarks/ --benchmark-json=...`` carries the full
paper-vs-measured record.

When ``REPRO_BENCH_OUT`` names a directory, :func:`record_rows`
additionally writes each benchmark's rows as a schema-versioned
``BENCH_<name>.json`` record (``repro.bench.continuous``), so a pytest
bench run produces the same artifact shape as ``repro bench`` — the
continuous-benchmark gate can diff either.
"""

from __future__ import annotations

from pathlib import Path


def require_fresh_baseline(name: str) -> None:
    """Fail loudly when the committed baseline is stale.

    A ``BENCH_<name>.json`` whose schema version predates the current
    ``BENCH_SCHEMA_VERSION`` means the baseline was simply never
    regenerated after a schema bump — silently benchmarking alongside it
    would let the gate rot.
    """
    from repro.bench.continuous import BENCH_SCHEMA_VERSION, load_bench

    baseline_dir = Path(__file__).parent / "baselines"
    try:
        baseline = load_bench(baseline_dir, name)
    except FileNotFoundError:
        return
    if baseline.schema_version < BENCH_SCHEMA_VERSION:
        raise RuntimeError(
            f"stale baseline {baseline_dir / f'BENCH_{name}.json'}: schema "
            f"v{baseline.schema_version} predates current "
            f"v{BENCH_SCHEMA_VERSION} — regenerate it with: "
            "repro bench --out benchmarks/baselines"
        )


def record_rows(benchmark, rows: dict) -> None:
    """Attach regenerated table rows to the benchmark record.

    Rows are sim-derived (virtual-time) metrics and therefore land in the
    byte-exact ``sim`` object of the exported bench record.
    """
    benchmark.extra_info.update(rows)
    name = benchmark.name.removeprefix("bench_")
    require_fresh_baseline(name)
    from repro.util.flags import flag_value

    out = flag_value("REPRO_BENCH_OUT")
    if not out:
        return
    from repro.bench.continuous import BenchRecord, write_bench

    record = BenchRecord(name=name)
    record.sim = {key: rows[key] for key in sorted(rows)}
    write_bench(record, Path(out))
