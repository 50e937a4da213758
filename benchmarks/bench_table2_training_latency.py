"""EXP-T2 — regenerate Table II: sensing->training latency vs sampling rate.

Paper (Table II, ms):

    rate  avg       max
    5     58.969    357.619
    10    60.904    360.761
    20    232.944   419.513
    40    1123.317  1482.500
    80    1636.907  1913.752

Acceptance is on *shape* (see EXPERIMENTS.md): flat and low at 5-10 Hz,
knee between 20 and 40 Hz, saturated-but-monotone at 40/80 Hz, warm-up
spikes dominating the low-rate max column.
"""

from __future__ import annotations

from repro.bench import (
    PAPER_TABLE2_TRAINING,
    format_comparison_table,
    run_rate_sweep,
)
from repro.bench.calibration import PAPER_RATES_HZ


def bench_table2_training_latency(benchmark):
    results = benchmark.pedantic(
        lambda: run_rate_sweep(PAPER_RATES_HZ, seed=1), rounds=1, iterations=1
    )
    print()
    print(
        format_comparison_table(
            results,
            PAPER_TABLE2_TRAINING,
            "training",
            "Table II — sensing->training latency (ms)",
        )
    )
    rows = {f"{int(r.rate_hz)}Hz": r.row("training") for r in results}
    benchmark.extra_info.update(rows)

    by_rate = {int(r.rate_hz): r.training for r in results}
    # Real-time regime at 5-10 Hz: low and flat.
    assert by_rate[5].average < 150.0
    assert by_rate[10].average < 150.0
    assert abs(by_rate[10].average - by_rate[5].average) < 50.0
    # Knee between 20 and 40 Hz: 20 Hz is elevated but sub-second, 40 Hz is not.
    assert by_rate[20].average < 600.0
    assert by_rate[40].average > 4 * by_rate[20].average
    assert by_rate[40].average > 800.0
    # Saturated regime stays monotone in rate.
    assert by_rate[80].average > by_rate[40].average
    # Warm-up dominates the max column at low rates (paper: max ~6x avg).
    assert by_rate[5].maximum > 3 * by_rate[5].average
    # At saturation max/avg tightens (paper: ~1.2-1.3x).
    assert by_rate[80].maximum < 2.5 * by_rate[80].average
