"""EXP-S8 — aggregation-window ablation (supplementary).

The paper's module E/F aggregate the three sensor flows into ``[data]``
batches; *how* to window is a design choice DESIGN.md calls out. This
bench compares the three window modes at a comfortable 10 Hz:

* ``align`` (one record per source) — what the reproduction uses for the
  tables: lowest latency per complete batch, emits at the sensor rate;
* ``count`` (every 3 records regardless of source) — same batch size but
  source-blind, so batches can double-count one sensor;
* ``time`` (100 ms windows) — latency floor includes up to a full window.

Claims checked: align and count emit at the source rate with similar
latency; time-mode latency carries the extra window residence (≈ half a
window for the mean over members plus the flush bound); align never mixes
two records of one source in a batch.
"""

from __future__ import annotations

from repro.bench.calibration import pi_cost_model, pi_wlan_config
from repro.core import IFoTCluster, Recipe, TaskSpec
from repro.core.flow import FlowRecord, topic_for_stream
from repro.runtime import SimRuntime
from repro.sensors import FixedPayloadModel
from repro.util.stats import LatencyRecorder


RATE_HZ = 10.0
SENSORS = ("pi-s1", "pi-s2", "pi-s3")


def window_params(mode: str) -> dict:
    if mode == "align":
        return {"mode": "align", "sources": list(SENSORS)}
    if mode == "count":
        return {"mode": "count", "count": 3}
    return {"mode": "time", "interval_s": 0.1}


def run_mode(mode: str, seed: int = 12) -> dict:
    runtime = SimRuntime(
        seed=seed, wlan_config=pi_wlan_config(), cost_model=pi_cost_model()
    )
    runtime.tracer.enabled = False
    cluster = IFoTCluster(runtime)
    for name in SENSORS:
        module = cluster.add_module(name)
        module.attach_sensor("sample", FixedPayloadModel())
    gather_host = cluster.add_module("pi-gather")

    batches: list[FlowRecord] = []
    latencies = LatencyRecorder(mode)
    probe = gather_host.client

    def on_batch(_topic, payload, _packet):
        record = FlowRecord.from_payload(payload)
        batches.append(record)
        latencies.add((runtime.now - record.sensed_at) * 1000.0)

    probe.subscribe(topic_for_stream("win-ablation", "batch"), on_batch)

    tasks = [
        TaskSpec(
            f"sense-{name}",
            "sensor",
            outputs=[f"raw-{name}"],
            params={"device": "sample", "rate_hz": RATE_HZ},
            pin_to=name,
            capabilities=["sensor:sample"],
        )
        for name in SENSORS
    ]
    tasks.append(
        TaskSpec(
            "gather",
            "window",
            inputs=[f"raw-{name}" for name in SENSORS],
            outputs=["batch"],
            params=window_params(mode),
            pin_to="pi-gather",
        )
    )
    cluster.settle(2.0)
    cluster.submit(Recipe("win-ablation", tasks))
    cluster.settle(2.0)
    runtime.run(until=runtime.now + 10.0)
    sizes = [len(b.merged_ids) for b in batches]
    per_source_max = max(
        (max((sum(1 for m in b.merged_ids if name in m) for name in SENSORS))
         for b in batches),
        default=0,
    )
    return {
        "mode": mode,
        "batches": len(batches),
        "avg_latency_ms": latencies.average,
        "avg_batch_size": sum(sizes) / len(sizes) if sizes else 0.0,
        "max_same_source_in_batch": per_source_max,
    }


def bench_window_modes(benchmark):
    rows = benchmark.pedantic(
        lambda: [run_mode(m) for m in ("align", "count", "time")],
        rounds=1,
        iterations=1,
    )
    print("\nmode   | batches | avg size | avg latency (ms) | max same-source/batch")
    for row in rows:
        print(
            f"{row['mode']:>6} | {row['batches']:7d} | {row['avg_batch_size']:8.2f} | "
            f"{row['avg_latency_ms']:16.2f} | {row['max_same_source_in_batch']:5d}"
        )
    benchmark.extra_info.update({r["mode"]: r["avg_latency_ms"] for r in rows})
    by_mode = {r["mode"]: r for r in rows}
    # All modes keep up with the source rate (~10 batches/s for 10 s).
    for row in rows:
        assert row["batches"] > 80
    # Align guarantees one record per source per batch; count does not.
    assert by_mode["align"]["max_same_source_in_batch"] == 1
    assert by_mode["align"]["avg_batch_size"] == 3.0
    # Time windows pay extra residence latency over align.
    assert (
        by_mode["time"]["avg_latency_ms"]
        > by_mode["align"]["avg_latency_ms"] + 20.0
    )
    # Align and count see similar latency at a uniform rate.
    assert abs(
        by_mode["align"]["avg_latency_ms"] - by_mode["count"]["avg_latency_ms"]
    ) < 25.0
