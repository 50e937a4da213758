"""EXP-S1 — fine-grained rate sweep locating the real-time breakdown.

§V-C claims: "In the case of low sensing rate such as 10 and 20Hz, IFoT
middleware could realize low-latency (i.e., real-time) processing. When
sensing rate is 20 to 40Hz, the delay time increased and real-time
processing was no longer possible."

This bench sweeps more rates than the paper's five and locates the knee —
the first rate where average sensing->training latency exceeds half a
second, a generous bound on "real-time" for interactive IoT feedback —
asserting it falls strictly between 20 and 40 Hz, as it does in the
paper's Table II (their 20 Hz row is 233 ms, their 40 Hz row 1123 ms).
"""

from __future__ import annotations

from repro.bench import run_rate_sweep


RATES = (5, 10, 15, 20, 25, 30, 35, 40, 50, 60, 80)


def bench_saturation_sweep(benchmark):
    results = benchmark.pedantic(
        lambda: run_rate_sweep(RATES, seed=2), rounds=1, iterations=1
    )
    series = {int(r.rate_hz): r.training.average for r in results}
    print("\nrate(Hz) -> sensing->training avg (ms)")
    for rate in RATES:
        bar = "#" * min(80, int(series[rate] / 25))
        print(f"  {rate:>3} | {series[rate]:9.1f} {bar}")
    benchmark.extra_info.update({f"{rate}Hz_avg_ms": series[rate] for rate in RATES})

    REAL_TIME_MS = 500.0
    knee = next(
        (rate for rate in RATES if series[rate] > REAL_TIME_MS), None
    )
    print(f"  knee (first rate beyond {REAL_TIME_MS:.0f} ms): {knee} Hz")
    benchmark.extra_info["knee_hz"] = knee
    assert knee is not None
    assert 20 < knee <= 40, f"knee at {knee} Hz, paper places it in (20, 40]"
    # Beyond the knee the latency keeps growing.
    assert series[80] > series[50] > series[40]
    # At and below 20 Hz the middleware is still real-time.
    for rate in (5, 10, 15, 20):
        assert series[rate] < REAL_TIME_MS
