"""EXP-S4 — scalability in module count.

The paper's conclusion names scalability as the next step. This bench
grows the cluster from 1 to 8 sensor groups (each group = one 10 Hz sensor
module plus one analysis module running its own judge pipeline) and
measures how end-to-end judge latency behaves:

* with **proportional resources** (one analysis module per sensor) the
  per-flow latency must stay essentially flat — the PO3 architecture
  scales horizontally because flows are independent;
* the shared broker and WLAN are the coupling points: the bench records
  broker CPU utilization so the eventual ceiling is visible in the output.
"""

from __future__ import annotations

from repro.bench.calibration import PI_QUEUE_LIMIT, pi_cost_model, pi_wlan_config
from repro.core import IFoTCluster, Recipe, TaskSpec
from repro.runtime import SimRuntime
from repro.sensors import FixedPayloadModel
from repro.util.stats import LatencyRecorder


GROUP_COUNTS = (1, 2, 4, 8)
RATE_HZ = 10.0


def build_recipe(groups: int) -> Recipe:
    tasks = []
    for i in range(groups):
        tasks.append(
            TaskSpec(
                f"sense-{i}",
                "sensor",
                outputs=[f"raw-{i}"],
                params={"device": "sample", "rate_hz": RATE_HZ},
                pin_to=f"pi-sense-{i}",
                capabilities=["sensor:sample"],
            )
        )
        tasks.append(
            TaskSpec(
                f"judge-{i}",
                "predict",
                inputs=[f"raw-{i}"],
                params={
                    "model": "classifier",
                    "label_key": "label",
                    "train_on_stream": True,
                },
                pin_to=f"pi-analysis-{i}",
            )
        )
    return Recipe("scale", tasks)


def run_at_scale(groups: int, seed: int = 8) -> dict:
    runtime = SimRuntime(
        seed=seed, wlan_config=pi_wlan_config(), cost_model=pi_cost_model()
    )
    runtime.tracer.enabled = False
    cluster = IFoTCluster(runtime)
    for i in range(groups):
        sensor_module = cluster.add_module(
            f"pi-sense-{i}", queue_limit=PI_QUEUE_LIMIT
        )
        sensor_module.attach_sensor("sample", FixedPayloadModel())
        cluster.add_module(f"pi-analysis-{i}", queue_limit=PI_QUEUE_LIMIT)
    latencies = LatencyRecorder(f"groups={groups}")
    runtime.tracer.tap("ml.judged", lambda r: latencies.add(r["latency_s"] * 1000.0))
    cluster.settle(2.0)
    app = cluster.submit(build_recipe(groups))
    cluster.settle(2.0)
    start = runtime.now
    runtime.run(until=runtime.now + 15.0)
    broker_cpu = runtime.nodes["broker-node"].cpu
    broker_util = broker_cpu.stats.busy_time / (runtime.now - 0.0)
    app.stop()
    return {
        "groups": groups,
        "avg_ms": latencies.average,
        "p95_ms": latencies.percentile(95),
        "judged": latencies.count,
        "broker_util": broker_util,
        "wlan_util": runtime.wlan.utilization(),
    }


def bench_scalability(benchmark):
    rows = benchmark.pedantic(
        lambda: [run_at_scale(g) for g in GROUP_COUNTS], rounds=1, iterations=1
    )
    print("\ngroups | judge avg (ms) | p95 (ms) | broker util | wlan util")
    for row in rows:
        print(
            f"{row['groups']:>6} | {row['avg_ms']:14.2f} | {row['p95_ms']:8.2f} | "
            f"{row['broker_util']:11.3f} | {row['wlan_util']:9.3f}"
        )
    benchmark.extra_info.update({f"groups_{r['groups']}_avg_ms": r["avg_ms"] for r in rows})
    by_groups = {r["groups"]: r for r in rows}
    # Horizontal scaling: per-flow latency stays flat (< 1.5x the 1-group
    # figure even at 8 groups) because each group brings its own compute.
    assert by_groups[8]["avg_ms"] < 1.5 * by_groups[1]["avg_ms"]
    # Throughput actually scales: 8 groups judge ~8x the records.
    assert by_groups[8]["judged"] > 6 * by_groups[1]["judged"]
    # The shared broker's load grows with cluster size (the ceiling the
    # paper's future-work scalability concern is about).
    assert by_groups[8]["broker_util"] > 3 * by_groups[1]["broker_util"]
