"""EXP-S8 — chaos matrix: every fault scenario x several seeds (supplementary).

The paper's future work names "IoT devices that can dynamically join /
leave the network"; ``repro.chaos`` turns that into a checked contract.
This bench runs the full scenario registry (partition-and-heal, module
crash, amnesia restart, broker power-cycle, bursty WLAN, sensor flap)
across a seed sweep and asserts the end-to-end invariants on every cell:

* no silent QoS 1 loss (every forwarded message delivered, given up,
  dropped-with-reason, or still pending),
* effectively-once input into learning (dedup holds under redelivery),
* bounded recovery (module crash re-placed within
  ``2 x keep-alive + sweep``; each scenario carries its own bound),
* directory convergence after the dust settles.

Aggregate recovery times land in ``benchmark.extra_info``.
"""

from __future__ import annotations

from repro.chaos import run_scenario
from repro.registry import fault_scenarios

from conftest import record_rows

SEEDS = (0, 1, 2)


def run_matrix() -> tuple[dict, list[str]]:
    rows: dict[str, float] = {}
    failures: list[str] = []
    for name in fault_scenarios():
        worst_recovery = 0.0
        for seed in SEEDS:
            result = run_scenario(name, seed=seed)
            if not result.report.ok:
                failures.extend(
                    f"{name}[seed={seed}] {check.name}: {check.detail}"
                    for check in result.report.failed()
                )
            for key, value in result.report.metrics.items():
                if key.startswith("recovery_s:"):
                    worst_recovery = max(worst_recovery, value)
        rows[f"{name}_worst_recovery_s"] = round(worst_recovery, 4)
    return rows, failures


def bench_chaos_matrix_invariants(benchmark):
    rows, failures = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    record_rows(benchmark, rows)
    assert not failures, "invariant failures:\n" + "\n".join(failures)
