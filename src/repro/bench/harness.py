"""Experiment driver: run the testbed, collect sensing-to-X latencies.

The paper "measured the processing time until completing each process
((1) learning process, (2) predicting process) from sensing time" (§V-B).
We reproduce that measurement literally: every sample carries its
``sensed_at`` timestamp end-to-end, the Learning/Judging classes emit
``ml.trained`` / ``ml.judged`` trace events on completion, and the harness
taps those events into latency recorders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.bench.scenarios import paper_scenario
from repro.scenario import run
from repro.util.stats import LatencyRecorder

__all__ = ["ExperimentResult", "run_paper_experiment", "run_rate_sweep"]


@dataclass
class ExperimentResult:
    """Outcome of one testbed run at one sensing rate."""

    rate_hz: float
    duration_s: float
    training = None  # set in __post_init__ (dataclass default quirk)
    predicting = None
    samples_sensed: int = 0
    batches_trained: int = 0
    batches_judged: int = 0
    jobs_dropped: dict[str, int] = field(default_factory=dict)
    wlan_utilization: float = 0.0
    #: The run's :class:`~repro.prof.Profiler` when run with
    #: ``profile=True``, else None.
    profiler: Any = None
    #: Per-node CPU busy share over the measured window (``profile=True``).
    cpu_utilization: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.training = LatencyRecorder("sensing-training")
        self.predicting = LatencyRecorder("sensing-predicting")

    def row(self, which: str) -> dict[str, float]:
        """Paper-style table row (avg/max in ms) for 'training' or
        'predicting'."""
        recorder = self.training if which == "training" else self.predicting
        return {
            "rate_hz": self.rate_hz,
            "avg_ms": recorder.average,
            "max_ms": recorder.maximum,
            "count": float(recorder.count),
        }

    def summary(self) -> dict[str, Any]:
        return {
            "rate_hz": self.rate_hz,
            "duration_s": self.duration_s,
            "samples_sensed": self.samples_sensed,
            "training": self.training.summary(),
            "predicting": self.predicting.summary(),
            "jobs_dropped": dict(self.jobs_dropped),
            "wlan_utilization": self.wlan_utilization,
        }


def run_paper_experiment(
    rate_hz: float,
    duration_s: float = 2.5,
    seed: int = 0,
    qos: int = 0,
    broker_cpu_speed: float = 1.0,
    profile: bool = False,
) -> ExperimentResult:
    """Run the Fig. 7/9 experiment at one sensing rate.

    ``duration_s`` of measured sensing follows 2 s of deployment settling.
    Latency samples cover every batch completed during the run,
    including the cold-start ones — the paper's max column clearly includes
    warm-up (max is ~6x the average at 5 Hz), so ours does too. The default
    window is short (2.5 s): the paper's overloaded rows are transient
    buffer-fill measurements, and their 80/40 Hz latency ratio (~1.46) pins
    the observation window to a few seconds of saturated operation.

    ``profile=True`` attaches the run pipeline's profiler and fills
    ``result.cpu_utilization`` with each node's busy share over the
    *measured* window — the numbers behind the paper's §V-C capacity
    story (training saturates its node between 20 and 40 Hz).
    """
    result = ExperimentResult(rate_hz=rate_hz, duration_s=duration_s)
    sensed = {"count": 0}

    def install_taps(runtime: Any) -> None:
        runtime.tracer.tap(
            "sensor.sample",
            lambda record: sensed.__setitem__("count", sensed["count"] + 1),
        )
        runtime.tracer.tap(
            "ml.trained",
            lambda record: result.training.add(record["latency_s"] * 1000.0),
        )
        runtime.tracer.tap(
            "ml.judged",
            lambda record: result.predicting.add(record["latency_s"] * 1000.0),
        )

    outcome = run(
        paper_scenario(rate_hz, qos=qos, broker_cpu_speed=broker_cpu_speed),
        seed=seed,
        duration_s=duration_s,
        profile=profile,
        prepare=install_taps,
    )
    runtime = outcome.runtime
    profiler = runtime.prof
    if profiler is not None:
        result.profiler = profiler
        result.cpu_utilization = {
            node: round(
                profiler.cpu_utilization(node, since=outcome.measure_from), 9
            )
            for node in profiler.cpu_nodes()
        }
    result.samples_sensed = sensed["count"]
    result.batches_trained = result.training.count
    result.batches_judged = result.predicting.count
    for name, node in sorted(runtime.nodes.items()):
        if node.cpu is not None and node.cpu.stats.jobs_dropped:
            result.jobs_dropped[name] = node.cpu.stats.jobs_dropped
    result.wlan_utilization = runtime.wlan.utilization()
    return result


def run_rate_sweep(
    rates_hz: tuple[float, ...] | list[float],
    duration_s: float = 2.5,
    seed: int = 0,
) -> list[ExperimentResult]:
    """One experiment per rate (fresh testbed each — no cross-talk)."""
    return [
        run_paper_experiment(rate, duration_s=duration_s, seed=seed)
        for rate in rates_hz
    ]
