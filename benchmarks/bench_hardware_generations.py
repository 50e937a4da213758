"""EXP-S6 — hardware-generation sweep (supplementary).

The paper's premise (§I): "Assuming that computation power and memory
capacity of IoT devices increase year by year, we think IoT data streams
should be processed near their sources." This bench quantifies that
assumption on the reproduction: the same Fig. 7/9 experiment at 40 Hz —
firmly beyond the Pi 2 testbed's knee — re-run on faster device
generations (uniform CPU speed-ups over the calibrated Pi 2 profile).

Claim checked: each hardware generation pushes the saturation knee right,
and roughly Pi-3-class hardware (~2x) already makes the paper's worst
measured rate real-time again.
"""

from __future__ import annotations

from repro.bench.calibration import PI_QUEUE_LIMIT, pi_cost_model, pi_wlan_config
from repro.bench.scenarios import (
    BROKER_MODULE,
    PREDICT_MODULE,
    SENSOR_MODULES,
    TRAIN_MODULE,
    build_paper_recipe,
)
from repro.core.middleware import IFoTCluster
from repro.runtime.sim import SimRuntime
from repro.sensors.devices import FixedPayloadModel
from repro.util.stats import LatencyRecorder


#: Rough single-core speed-ups relative to the Pi 2 of the paper.
GENERATIONS = {"pi2-1x": 1.0, "pi3-2x": 2.0, "pi4-4x": 4.0, "pi5-8x": 8.0}
RATE_HZ = 40.0


def run_generation(speed: float, seed: int = 11) -> LatencyRecorder:
    runtime = SimRuntime(
        seed=seed, wlan_config=pi_wlan_config(), cost_model=pi_cost_model()
    )
    runtime.tracer.enabled = False
    cluster = IFoTCluster(
        runtime,
        broker_node_name=BROKER_MODULE,
        broker_kwargs={"queue_limit": PI_QUEUE_LIMIT, "cpu_speed": speed},
        node_kwargs={"cpu_speed": 8.0},
    )
    for name in SENSOR_MODULES:
        module = cluster.add_module(
            name, cpu_speed=speed, queue_limit=PI_QUEUE_LIMIT
        )
        module.attach_sensor("sample", FixedPayloadModel(values=3))
    cluster.add_module(TRAIN_MODULE, cpu_speed=speed, queue_limit=PI_QUEUE_LIMIT)
    cluster.add_module(PREDICT_MODULE, cpu_speed=speed, queue_limit=PI_QUEUE_LIMIT)
    latencies = LatencyRecorder(f"speed={speed}")
    runtime.tracer.tap("ml.trained", lambda r: latencies.add(r["latency_s"] * 1000.0))
    cluster.settle(2.0)
    cluster.submit(build_paper_recipe(RATE_HZ))
    cluster.settle(2.0)
    runtime.run(until=runtime.now + 2.5)
    return latencies


def bench_hardware_generations(benchmark):
    results = benchmark.pedantic(
        lambda: {name: run_generation(speed) for name, speed in GENERATIONS.items()},
        rounds=1,
        iterations=1,
    )
    print(f"\nsensing->training at {RATE_HZ:.0f} Hz by device generation:")
    for name, latencies in results.items():
        print(
            f"  {name:>8}: avg {latencies.average:8.1f} ms, "
            f"max {latencies.maximum:8.1f} ms, batches {latencies.count}"
        )
    benchmark.extra_info.update(
        {name: results[name].average for name in GENERATIONS}
    )
    averages = [results[name].average for name in GENERATIONS]
    # Strictly monotone improvement across generations.
    assert all(a > b for a, b in zip(averages, averages[1:]))
    # Pi-2-class saturates at 40 Hz (the paper's Table II row)...
    assert averages[0] > 800.0
    # ...while 2x-class hardware already restores real-time processing.
    assert results["pi3-2x"].average < 500.0
    assert results["pi4-4x"].average < 150.0
