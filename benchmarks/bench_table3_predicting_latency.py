"""EXP-T3 — regenerate Table III: sensing->predicting latency vs rate.

Paper (Table III, ms):

    rate  avg       max
    5     58.969    346.142
    10    59.020    334.501
    20    74.747    373.992
    40    744.535   819.748
    80    1144.580  1249.122

Shape: predicting is cheaper than training at every saturated rate, its
knee arrives later (20 Hz is still near-flat), and the saturated rows stay
monotone in rate.
"""

from __future__ import annotations

from repro.bench import (
    PAPER_TABLE3_PREDICTING,
    format_comparison_table,
    run_rate_sweep,
)
from repro.bench.calibration import PAPER_RATES_HZ


def bench_table3_predicting_latency(benchmark):
    results = benchmark.pedantic(
        lambda: run_rate_sweep(PAPER_RATES_HZ, seed=1), rounds=1, iterations=1
    )
    print()
    print(
        format_comparison_table(
            results,
            PAPER_TABLE3_PREDICTING,
            "predicting",
            "Table III — sensing->predicting latency (ms)",
        )
    )
    rows = {f"{int(r.rate_hz)}Hz": r.row("predicting") for r in results}
    benchmark.extra_info.update(rows)

    predict = {int(r.rate_hz): r.predicting for r in results}
    train = {int(r.rate_hz): r.training for r in results}
    # Real-time at 5-20 Hz: the predict path's knee comes after 20 Hz.
    assert predict[5].average < 150.0
    assert predict[20].average < 2 * predict[5].average
    # Saturation at 40 Hz and beyond, monotone.
    assert predict[40].average > 5 * predict[20].average
    assert predict[80].average > predict[40].average
    # Predicting is cheaper than training wherever the system saturates.
    for rate in (40, 80):
        assert predict[rate].average < train[rate].average
    # Warm-up shows in the low-rate max.
    assert predict[5].maximum > 3 * predict[5].average
