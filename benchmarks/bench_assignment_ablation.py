"""EXP-S2 — task-assignment strategy ablation.

§V-C closes: "in order to realize the real-time processing in a larger-
scale environment, it is necessary to add further parallelization /
decentralization of processing tasks according to available resources."
This bench quantifies that: one recipe with seven independent analysis
pipelines is placed over five heterogeneous modules (two Pi-class, two
2x-faster) by each assignment strategy, and end-to-end judge latency is
compared. Load-aware placement, which weighs both predicted load and
module capacity, must beat blind round-robin. The second bench places the
paper's own Fig. 5 application (Pi calibration) with each strategy.
"""

from __future__ import annotations

from repro.bench.calibration import PI_QUEUE_LIMIT, pi_cost_model, pi_wlan_config
from repro.bench.scenarios import FIG5
from repro.core import IFoTCluster, Recipe, TaskSpec
from repro.runtime import SimRuntime
from repro.sensors import FixedPayloadModel
from repro.util.stats import LatencyRecorder


PIPELINES = 7
RATE_HZ = 25.0


def build_recipe() -> Recipe:
    """One sensor fanning out into six independent judge pipelines."""
    tasks = [
        TaskSpec(
            "sense",
            "sensor",
            outputs=["raw"],
            params={"device": "sample", "rate_hz": RATE_HZ},
            capabilities=["sensor:sample"],
        )
    ]
    for i in range(PIPELINES):
        tasks.append(
            TaskSpec(
                f"judge-{i}",
                "predict",
                inputs=["raw"],
                params={
                    "model": "classifier",
                    "label_key": "label",
                    "train_on_stream": True,
                },
            )
        )
    return Recipe("ablation", tasks)


def run_with_strategy(strategy: str, seed: int = 6) -> tuple[LatencyRecorder, dict]:
    runtime = SimRuntime(
        seed=seed, wlan_config=pi_wlan_config(), cost_model=pi_cost_model()
    )
    runtime.tracer.enabled = False
    cluster = IFoTCluster(runtime, broker_kwargs={"cpu_speed": 8.0})
    sensor_module = cluster.add_module("pi-sense", queue_limit=PI_QUEUE_LIMIT)
    sensor_module.attach_sensor("sample", FixedPayloadModel())
    # Heterogeneous worker pool: two slow Pi-class, two 2x-faster modules.
    for name, speed in (
        ("pi-slow-1", 1.0),
        ("pi-slow-2", 1.0),
        ("pi-fast-1", 2.0),
        ("pi-fast-2", 2.0),
    ):
        cluster.add_module(name, cpu_speed=speed, queue_limit=PI_QUEUE_LIMIT)
    latencies = LatencyRecorder(strategy)
    runtime.tracer.tap(
        "ml.judged", lambda r: latencies.add(r["latency_s"] * 1000.0)
    )
    cluster.settle(2.0)
    app = cluster.submit(build_recipe(), strategy=strategy)
    cluster.settle(2.0)
    runtime.run(until=runtime.now + 20.0)
    placements = dict(app.assignment.placements)
    app.stop()
    return latencies, placements


def bench_assignment_strategies(benchmark):
    def run():
        return {
            strategy: run_with_strategy(strategy)
            for strategy in ("round_robin", "load_aware", "capability_aware")
        }

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for strategy, (latencies, placements) in outcomes.items():
        spread = len(set(placements.values()))
        print(
            f"{strategy:>17}: judge avg {latencies.average:8.2f} ms, "
            f"p95 {latencies.percentile(95):8.2f} ms, modules used {spread}"
        )
    benchmark.extra_info.update(
        {
            f"{strategy}_avg_ms": latencies.average
            for strategy, (latencies, _p) in outcomes.items()
        },
    )
    round_robin = outcomes["round_robin"][0]
    load_aware = outcomes["load_aware"][0]
    capability_aware = outcomes["capability_aware"][0]
    assert load_aware.count > 50 and round_robin.count > 50
    # Capacity-aware strategies must not lose to blind cycling.
    assert load_aware.average <= round_robin.average
    assert capability_aware.average <= round_robin.average * 1.05


def run_fig5_with_strategy(strategy: str, sim_s: float = 60.0) -> tuple[LatencyRecorder, float]:
    """``fig5`` (seed 55, Pi model) placed by ``strategy``: judging
    latency and the busiest module's CPU utilization over ``sim_s``."""
    runtime, cluster = FIG5.build(seed=FIG5.seed, prepare=None)
    latencies = LatencyRecorder(strategy)
    runtime.tracer.tap("ml.judged", lambda r: latencies.add(r["latency_s"] * 1000.0))
    submitted = runtime.now
    app = cluster.submit(FIG5.recipe(), strategy=strategy)
    runtime.run(until=submitted + sim_s)
    app.stop()
    rho = max(
        cluster.module(name).node.cpu.stats.utilization(sim_s)
        for name in cluster.modules
    )
    return latencies, rho


def bench_fig5_strategies(benchmark):
    strategies = ("round_robin", "capability_aware", "load_aware")
    outcomes = benchmark.pedantic(
        lambda: {s: run_fig5_with_strategy(s) for s in strategies},
        rounds=1,
        iterations=1,
    )
    print()
    rows = {}
    for strategy, (latencies, rho) in outcomes.items():
        p50, p99 = latencies.percentile(50), latencies.percentile(99)
        print(
            f"{strategy:>17}: judge p50 {p50:9.2f} ms, p99 {p99:9.2f} ms, "
            f"max rho {rho:.3f}"
        )
        rows |= {f"{strategy}_p50_ms": p50, f"{strategy}_p99_ms": p99, f"{strategy}_max_rho": rho}
    benchmark.extra_info.update(rows)
    latencies, rho = outcomes["load_aware"]
    # Placed by predicted load the application is a service level: no
    # module near saturation, judging within a second at the tail.
    assert rho < 0.95 and latencies.percentile(99) < 1000.0
