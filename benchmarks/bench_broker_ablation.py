"""EXP-S3 — broker placement and QoS level ablation.

Two design choices of the prototype are probed at a rate near the knee
(30 Hz), where queueing is sensitive:

* **broker placement** — the paper runs Mosquitto on a Raspberry Pi
  (module D). Moving the broker to laptop-class hardware (8x CPU) should
  cut end-to-end latency, quantifying how much of the delay the Pi-hosted
  broker contributes.
* **QoS level** — raising the flow QoS from 0 to 1 doubles control traffic
  (PUBACKs) and adds broker-side retransmission state; latency must rise,
  never fall.
"""

from __future__ import annotations

from repro.bench.harness import run_paper_experiment


RATE_HZ = 30


def bench_broker_placement(benchmark):
    def run():
        pi = run_paper_experiment(RATE_HZ, seed=4, broker_cpu_speed=1.0)
        laptop = run_paper_experiment(RATE_HZ, seed=4, broker_cpu_speed=8.0)
        return pi, laptop

    pi, laptop = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nbroker on Pi:     train avg {pi.training.average:8.1f} ms, "
        f"predict avg {pi.predicting.average:8.1f} ms"
    )
    print(
        f"broker on laptop: train avg {laptop.training.average:8.1f} ms, "
        f"predict avg {laptop.predicting.average:8.1f} ms"
    )
    benchmark.extra_info.update(
        {
            "pi_train_avg_ms": pi.training.average,
            "laptop_train_avg_ms": laptop.training.average,
            "pi_predict_avg_ms": pi.predicting.average,
            "laptop_predict_avg_ms": laptop.predicting.average,
        },
    )
    # A faster broker host must not be slower end to end.
    assert laptop.training.average <= pi.training.average * 1.05
    assert laptop.predicting.average <= pi.predicting.average * 1.05


def bench_qos_level(benchmark):
    def run():
        qos0 = run_paper_experiment(RATE_HZ, seed=5, qos=0)
        qos1 = run_paper_experiment(RATE_HZ, seed=5, qos=1)
        return qos0, qos1

    qos0, qos1 = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nQoS 0: train avg {qos0.training.average:8.1f} ms "
        f"(batches {qos0.batches_trained})"
    )
    print(
        f"QoS 1: train avg {qos1.training.average:8.1f} ms "
        f"(batches {qos1.batches_trained})"
    )
    benchmark.extra_info.update(
        {
            "qos0_train_avg_ms": qos0.training.average,
            "qos1_train_avg_ms": qos1.training.average,
        },
    )
    # At-least-once delivery costs latency near the knee.
    assert qos1.training.average >= qos0.training.average
    # Both configurations still deliver batches.
    assert qos1.batches_trained > 0
