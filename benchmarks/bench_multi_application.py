"""EXP-S9 — multiple applications sharing one cluster (paper §VI goals).

The paper's conclusion states the middleware aims to realize "(a) multiple
applications run on IoT devices while sharing their resources and (b)
contents composed by processing / analyzing / merging data streams in each
application can be distributed for secondary / tertiary use in real-time."

Two benches:

* **resource sharing** — a monitoring application's judge latency is
  measured alone, then with a second, unrelated application co-resident
  on the same modules. Load-aware placement must keep the interference
  bounded (< 2x) while both applications make full progress.
* **secondary use** — a consumer application subscribes to the first
  application's *curated* (judged) stream via an external reference and
  actuates on it; measured is the extra hop's latency from sensing to the
  secondary application's actuator.
"""

from __future__ import annotations

from repro.bench.calibration import PI_QUEUE_LIMIT, pi_cost_model, pi_wlan_config
from repro.core import IFoTCluster, Recipe, TaskSpec
from repro.runtime import SimRuntime
from repro.sensors import AlertActuator, FixedPayloadModel
from repro.util.stats import LatencyRecorder


def primary_recipe(rate_hz=10.0) -> Recipe:
    return Recipe(
        "monitor",
        [
            TaskSpec(
                "sense",
                "sensor",
                outputs=["raw"],
                params={"device": "sample", "rate_hz": rate_hz},
                capabilities=["sensor:sample"],
            ),
            TaskSpec(
                "judge",
                "predict",
                inputs=["raw"],
                outputs=["curated"],
                params={
                    "model": "classifier",
                    "label_key": "label",
                    "train_on_stream": True,
                },
            ),
        ],
    )


def background_recipe(rate_hz=10.0) -> Recipe:
    """An unrelated training application sharing the same modules."""
    return Recipe(
        "background",
        [
            TaskSpec(
                "sense2",
                "sensor",
                outputs=["raw2"],
                params={"device": "sample", "rate_hz": rate_hz},
                capabilities=["sensor:sample"],
            ),
            TaskSpec(
                "train2",
                "train",
                inputs=["raw2"],
                params={"model": "classifier", "label_key": "label"},
            ),
        ],
    )


def consumer_recipe() -> Recipe:
    return Recipe(
        "consumer",
        [
            TaskSpec(
                "alerting",
                "command",
                inputs=["monitor:curated"],
                outputs=["cmds"],
                params={
                    "rules": [
                        {
                            "when": {"key": "label", "eq": "hi"},
                            "command": {"message": "hi"},
                        }
                    ]
                },
            ),
            TaskSpec(
                "pager",
                "actuator",
                inputs=["cmds"],
                params={"device": "pager"},
                capabilities=["actuator:pager"],
            ),
        ],
    )


def build_cluster(seed: int):
    runtime = SimRuntime(
        seed=seed, wlan_config=pi_wlan_config(), cost_model=pi_cost_model()
    )
    runtime.tracer.enabled = False
    cluster = IFoTCluster(runtime)
    sensor_module = cluster.add_module("pi-sense", queue_limit=PI_QUEUE_LIMIT)
    sensor_module.attach_sensor("sample", FixedPayloadModel())
    cluster.add_module("pi-w1", queue_limit=PI_QUEUE_LIMIT)
    cluster.add_module("pi-w2", queue_limit=PI_QUEUE_LIMIT)
    pager_module = cluster.add_module("pi-act", queue_limit=PI_QUEUE_LIMIT)
    pager = AlertActuator()
    pager_module.attach_actuator("pager", pager)
    cluster.settle(2.0)
    return runtime, cluster, pager


def measure_judge_latency(with_background: bool, seed: int = 14) -> LatencyRecorder:
    runtime, cluster, _pager = build_cluster(seed)
    latencies = LatencyRecorder("judge")
    runtime.tracer.tap("ml.judged", lambda r: latencies.add(r["latency_s"] * 1000.0))
    cluster.submit(primary_recipe())
    if with_background:
        cluster.settle(1.0)
        cluster.submit(background_recipe())
    cluster.settle(2.0)
    runtime.run(until=runtime.now + 10.0)
    return latencies


def bench_resource_sharing(benchmark):
    def run():
        alone = measure_judge_latency(with_background=False)
        shared = measure_judge_latency(with_background=True)
        return alone, shared

    alone, shared = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nmonitor judge latency alone:  {alone.average:7.2f} ms "
        f"({alone.count} records)"
    )
    print(
        f"monitor judge latency shared: {shared.average:7.2f} ms "
        f"({shared.count} records)"
    )
    benchmark.extra_info.update(
        {"alone_avg_ms": alone.average, "shared_avg_ms": shared.average},
    )
    # Both deployments make full progress...
    assert shared.count >= alone.count * 0.9
    # ...and load-aware placement bounds cross-application interference.
    assert shared.average < 2.0 * alone.average


def bench_secondary_use(benchmark):
    def run():
        runtime, cluster, pager = build_cluster(seed=15)
        end_to_end = LatencyRecorder("secondary")
        runtime.tracer.tap(
            "actuator.applied", lambda r: end_to_end.add(r["latency_s"] * 1000.0)
        )
        judge_latency = LatencyRecorder("judge")
        runtime.tracer.tap(
            "ml.judged", lambda r: judge_latency.add(r["latency_s"] * 1000.0)
        )
        cluster.submit(primary_recipe())
        cluster.settle(1.0)
        cluster.submit(consumer_recipe())
        cluster.settle(2.0)
        runtime.run(until=runtime.now + 10.0)
        return end_to_end, judge_latency, pager

    end_to_end, judge_latency, pager = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    extra = end_to_end.average - judge_latency.average
    print(
        f"\nsensing -> primary judge:        {judge_latency.average:7.2f} ms"
    )
    print(
        f"sensing -> secondary actuator:   {end_to_end.average:7.2f} ms "
        f"(+{extra:.2f} ms for the tertiary hop)"
    )
    benchmark.extra_info.update(
        {
            "judge_avg_ms": judge_latency.average,
            "secondary_actuator_avg_ms": end_to_end.average,
        },
    )
    assert len(pager.alerts) > 20
    # The secondary hop adds network + rules + actuation: bounded tens of ms.
    assert 0.0 < extra < 60.0
