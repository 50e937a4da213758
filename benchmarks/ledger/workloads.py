"""The ledger's seven workloads.

Each workload has ``build(seed)`` (import → build testbed → connect or
deploy → settle; timed by the caller as ``setup_s``) and
``run(ctx, seconds, tracing)`` (the timed window). ``seconds`` scales a
*fixed amount of work* — simulated seconds, scenario seeds or messages —
sized so that ``seconds`` wall seconds pass at the commit that added the
benchmark on the 2-core reference host; the work for a given ``seconds``
is the same on every commit.

The program only ever receives generated inputs (a runtime seed, sensor
models, payloads); no workload name reaches it.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

import hostspeed
from repro.bench.calibration import pi_cost_model
from repro.bench.scenarios import (
    FIG5_FALL_AT,
    FIG5_RECIPE_PATH,
    build_fig5_testbed,
    build_paper_testbed,
)
from repro.chaos.scenarios import (
    build_chaos_cluster,
    build_chaos_recipe,
    run_scenario,
)
from repro.core.analysis import JudgingClass, LearningClass
from repro.core.dsl import parse_recipe
from repro.core.integration import SensorClass
from repro.core.operators import StreamOperator
from repro.mqtt import Broker, MqttClient
from repro.runtime.component import PeriodicTimer
from repro.runtime.real import AsyncioRuntime
from repro.runtime.sim import SimRuntime

__all__ = ["SEGMENTS", "WORKLOADS", "Window", "COUNTER_NAMES"]

#: Every window is cut into this many equal consecutive segments.
SEGMENTS = 5
#: Each segment is timed in this many slices, every one bracketed by the
#: host-speed kernel: the scaling follows the host at 0.3 s grain, and a
#: segment's figure rests on ten kernel samples, not two.
SLICES = 5

#: Counters read from the program's public stats after the untraced run.
COUNTER_NAMES = (
    "sim.cpu.jobs", "sim.cpu.jobs_dropped", "sim.cpu.queue_peak",
    "sim.cpu.utilization_max", "net.wlan.frames", "net.wlan.frames_lost",
    "net.wlan.utilization", "net.inproc.frames", "mqtt.broker.publishes_in",
    "mqtt.broker.publishes_out", "mqtt.broker.fanout_ratio",
    "mqtt.broker.retransmissions", "mqtt.broker.drops_give_up",
    "mqtt.client.publishes_abandoned", "mqtt.client.duplicates_received",
    "core.operator.records_in", "core.operator.records_out", "sensors.samples",
    "ml.records_trained", "ml.records_judged", "core.mgmt.failover_moves",
    "core.mgmt.migrations_done",
)


@dataclass
class Window:
    """What one timed window produced."""

    #: Per segment: reference seconds (wall seconds scaled by host speed,
    #: see ``hostspeed``), substrate events, messages delivered.
    seg_wall: list[float] = field(default_factory=lambda: [0.0] * SEGMENTS)
    seg_events: list[int] = field(default_factory=lambda: [0] * SEGMENTS)
    seg_msgs: list[int] = field(default_factory=lambda: [0] * SEGMENTS)
    #: Unscaled wall seconds of the whole window.
    raw_wall_s: float = 0.0
    #: Flow latency samples in ms on the runtime's clock, per segment (wall
    #: latencies scaled like ``seg_wall``).
    seg_latency_ms: list[list[float]] = field(
        default_factory=lambda: [[] for _ in range(SEGMENTS)]
    )
    #: ``True`` when the latencies are simulated time (pooled, exact);
    #: ``False`` for wall time (median of per-segment percentiles).
    latency_exact: bool = True
    counters: dict[str, float] = field(default_factory=lambda: dict.fromkeys(COUNTER_NAMES, 0))
    #: Workload-specific end-to-end results (``sustainable_rate_hz``,
    #: ``recovery_s``, overload counts): simulated time, exact.
    extra: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Output checks that did not hold; any entry makes the run incorrect.
    errors: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.seg_wall)


def _timed(tracing: Any, fn: Callable[..., Any], *args: Any) -> tuple[float, float, Any]:
    """``(reference seconds, wall seconds, result)`` of ``fn(*args)``,
    with spans recorded while it runs when traced."""
    if tracing is not None:
        tracing.resume()
    try:
        return hostspeed.timed(fn, *args)
    finally:
        if tracing is not None:
            tracing.pause()


def _components(runtime: Any) -> Iterator[Any]:
    for name in sorted(runtime.nodes):
        yield from runtime.nodes[name].components


def _delivered(runtime: Any) -> int:
    """Application messages handed to subscribers so far."""
    return sum(c.messages_received for c in _components(runtime) if isinstance(c, MqttClient))


def _add_counters(total: dict[str, float], runtime: Any) -> None:
    """Fold ``runtime``'s public stats into ``total`` (sums; peaks as max)."""
    elapsed = runtime.now
    for name in sorted(runtime.nodes):
        cpu = runtime.nodes[name].cpu
        if cpu is None:
            continue
        total["sim.cpu.jobs"] += cpu.stats.jobs_submitted
        total["sim.cpu.jobs_dropped"] += cpu.stats.jobs_dropped
        total["sim.cpu.queue_peak"] = max(
            total["sim.cpu.queue_peak"], cpu.stats.max_queue_length
        )
        total["sim.cpu.utilization_max"] = max(
            total["sim.cpu.utilization_max"], round(cpu.stats.utilization(elapsed), 9)
        )
    wlan = getattr(runtime, "wlan", None)
    if wlan is not None:
        total["net.wlan.frames"] += wlan.frames_transmitted
        total["net.wlan.frames_lost"] += wlan.frames_lost
        total["net.wlan.utilization"] = max(
            total["net.wlan.utilization"], round(wlan.utilization(), 9)
        )
    network = getattr(runtime, "network", None)
    if network is not None:
        total["net.inproc.frames"] += network.frames_transmitted
    for component in _components(runtime):
        if isinstance(component, Broker):
            stats = component.stats
            total["mqtt.broker.publishes_in"] += stats.publishes_in
            total["mqtt.broker.publishes_out"] += stats.publishes_out
            total["mqtt.broker.retransmissions"] += stats.retransmissions
            total["mqtt.broker.drops_give_up"] += stats.drops_give_up
        elif isinstance(component, MqttClient):
            total["mqtt.client.publishes_abandoned"] += component.publishes_abandoned
        elif isinstance(component, StreamOperator):
            total["core.operator.records_in"] += component.records_in
            total["core.operator.records_out"] += component.records_out
            if isinstance(component, SensorClass):
                total["sensors.samples"] += component.samples_taken
            elif isinstance(component, LearningClass):
                total["ml.records_trained"] += component.records_trained
            elif isinstance(component, JudgingClass):
                total["ml.records_judged"] += component.records_judged
    if total["mqtt.broker.publishes_in"]:
        total["mqtt.broker.fanout_ratio"] = round(
            total["mqtt.broker.publishes_out"] / total["mqtt.broker.publishes_in"], 9
        )


def _middleware_failures(counters: dict[str, float]) -> int:
    return int(
        counters["sim.cpu.jobs_dropped"]
        + counters["mqtt.broker.drops_give_up"]
        + counters["mqtt.client.publishes_abandoned"]
    )


def _cpu_jobs(runtime: SimRuntime) -> tuple[int, int]:
    """``(submitted, dropped)`` CPU jobs over all nodes so far."""
    stats = [runtime.nodes[name].cpu.stats for name in sorted(runtime.nodes)]
    return sum(s.jobs_submitted for s in stats), sum(s.jobs_dropped for s in stats)


def _run_segments(
    runtime: SimRuntime, duration_s: float, window: Window, tracing: Any,
    latencies_s: list[float] | None,
) -> None:
    """Advance ``runtime`` by ``duration_s`` in :data:`SEGMENTS` timed
    steps, adding each step to the matching segment of ``window`` (so a
    window made of several runtimes sums segment by segment).
    ``latencies_s`` is the tap-fed list whose growth is the segment's
    latency samples; ``None`` records none."""
    kernel = runtime.kernel
    started = runtime.now
    for k in range(SEGMENTS):
        events, msgs = kernel.events_processed, _delivered(runtime)
        taken = len(latencies_s) if latencies_s is not None else 0
        for j in range(SLICES):
            until = started + duration_s * (k * SLICES + j + 1) / (SEGMENTS * SLICES)
            seconds, wall, _ = _timed(tracing, runtime.run, until)
            window.seg_wall[k] += seconds
            window.raw_wall_s += wall
        window.seg_events[k] += kernel.events_processed - events
        window.seg_msgs[k] += _delivered(runtime) - msgs
        if latencies_s is not None:
            window.seg_latency_ms[k].extend(v * 1000.0 for v in latencies_s[taken:])


# ---------------------------------------------------------------------------
# sim_fig5 / sim_fig5_observed
# ---------------------------------------------------------------------------


class SimFig5:
    """The paper's Fig. 5 application under the Pi calibration."""

    #: Simulated seconds per requested wall second (240 sim-s at 8).
    SIM_S_PER_SECOND = 30.0

    def __init__(self, name: str, observed: bool) -> None:
        self.name = name
        self.observed = observed

    def build(self, seed: int) -> dict[str, Any]:
        prepare = None
        if self.observed:
            # Imported here: the plain workload never loads the profiler or the SLO engine.
            from repro.prof import enable_profiling

            prepare = enable_profiling
        runtime, cluster = build_fig5_testbed(
            seed=seed, observe=self.observed, prepare=prepare,
            cost_model=pi_cost_model(),
        )
        # The builder leaves trace storage on; the ledger runs with it off.
        runtime.tracer.enabled = False
        recipe = parse_recipe(FIG5_RECIPE_PATH.read_text())
        if self.observed:
            from repro.obs.slo import enable_slo

            enable_slo(runtime, recipe=recipe, cluster=cluster)
        judged: list[float] = []
        applied: list[float] = []
        runtime.tracer.tap("ml.judged", lambda r: judged.append(r["latency_s"]))
        runtime.tracer.tap("actuator.applied", lambda r: applied.append(r.time))
        cluster.submit(recipe)
        cluster.settle(2.0)
        return {"runtime": runtime, "judged": judged, "applied": applied}

    def run(self, ctx: dict[str, Any], seconds: float, tracing: Any) -> Window:
        runtime = ctx["runtime"]
        window = Window()
        _run_segments(
            runtime, self.SIM_S_PER_SECOND * seconds, window, tracing, ctx["judged"]
        )
        _add_counters(window.counters, runtime)
        window.attempted = int(window.counters["sim.cpu.jobs"])
        window.failed = _middleware_failures(window.counters)
        # The fall is planted at t = 20 s and the alert path is backlogged
        # under the Pi calibration, so only a window that runs well past it
        # can be held to raising the alert.
        if runtime.now >= FIG5_FALL_AT + 40.0 and not any(
            t >= FIG5_FALL_AT for t in ctx["applied"]
        ):
            window.errors.append("no actuator.applied after the planted fall")
        if not ctx["judged"]:
            window.errors.append("no ml.judged record in the window")
        return window


# ---------------------------------------------------------------------------
# sim_saturation
# ---------------------------------------------------------------------------


class SimSaturation:
    """The paper's Tables II/III rate ladder on the six-Pi testbed."""

    name = "sim_saturation"
    RATES_HZ = (5, 10, 20, 30, 40)
    #: Rungs that overload the training Pi by design; their dropped jobs
    #: are reported as a count, not as failures.
    OVERLOAD_HZ = (30, 40)
    #: The rung whose training latency is the workload's ``flow_*``.
    REFERENCE_HZ = 20
    DEADLINE_MS = 3000.0
    #: Simulated seconds per rung per requested wall second (60 at 8).
    SIM_S_PER_SECOND = 7.5

    def build(self, seed: int, rate_hz: float = RATES_HZ[0]) -> dict[str, Any]:
        testbed = build_paper_testbed(rate_hz, seed=seed)
        runtime = testbed.runtime
        trained: list[float] = []
        trained_at: list[float] = []
        sensed = [0]

        def on_trained(record: Any) -> None:
            trained.append(record["latency_s"])
            trained_at.append(record.time)

        def on_sample(_record: Any) -> None:
            sensed[0] += 1

        runtime.tracer.tap("ml.trained", on_trained)
        runtime.tracer.tap("sensor.sample", on_sample)
        testbed.submit()
        testbed.cluster.settle(2.0)
        return {
            "runtime": runtime, "seed": seed, "trained": trained,
            "trained_at": trained_at, "sensed": sensed,
        }

    def run(self, ctx: dict[str, Any], seconds: float, tracing: Any) -> Window:
        window = Window()
        duration = self.SIM_S_PER_SECOND * seconds
        seed = ctx["seed"]
        sustainable = 0.0
        climbing = True  # every rung so far sustained its rate
        overload_drops = 0
        for rate in self.RATES_HZ:
            # The first rung reuses the testbed the caller built and timed.
            rung = ctx if rate == self.RATES_HZ[0] else self.build(seed, rate)
            runtime = rung["runtime"]
            started = runtime.now
            jobs_before, dropped_before = _cpu_jobs(runtime)
            _run_segments(
                runtime, duration, window, tracing,
                rung["trained"] if rate == self.REFERENCE_HZ else None,
            )
            _add_counters(window.counters, runtime)
            jobs, dropped = _cpu_jobs(runtime)
            jobs -= jobs_before
            dropped -= dropped_before
            latencies_ms = np.array(rung["trained"]) * 1000.0
            stamps = np.array(rung["trained_at"])
            in_window = stamps >= started
            climbing = climbing and self._sustains(
                latencies_ms[in_window], stamps[in_window], started, duration
            )
            if rate in self.OVERLOAD_HZ:
                overload_drops += dropped
            else:
                window.attempted += jobs
                window.failed += dropped
            if climbing:
                sustainable = float(rate)
                # Three sensors feed one aligned batch: every full round of
                # samples must have been trained, give or take the rounds
                # still in flight when the window closed.
                expected = rung["sensed"][0] // 3
                slack = max(3, int(rate))
                if abs(len(rung["trained"]) - expected) > slack:
                    window.errors.append(
                        f"{rate} Hz: trained {len(rung['trained'])} batches, "
                        f"expected {expected} ± {slack}"
                    )
        window.extra = {
            "sustainable_rate_hz": sustainable,
            "overload_jobs_dropped": float(overload_drops),
        }
        if not any(window.seg_latency_ms):
            window.errors.append(f"no ml.trained record at {self.REFERENCE_HZ} Hz")
        return window

    def _sustains(
        self, latencies_ms: np.ndarray, stamps: np.ndarray, started: float, duration: float
    ) -> bool:
        """p99 within the recipe's deadline and no growing backlog: the
        second half's median latency within 1.2× the first half's."""
        if len(latencies_ms) < 4:
            return False
        if float(np.percentile(latencies_ms, 99)) > self.DEADLINE_MS:
            return False
        first = latencies_ms[stamps < started + duration / 2]
        second = latencies_ms[stamps >= started + duration / 2]
        if len(first) == 0 or len(second) == 0:
            return False
        return float(np.median(second)) <= 1.2 * float(np.median(first))


# ---------------------------------------------------------------------------
# sim_fanout_qos1
# ---------------------------------------------------------------------------


class SimFanoutQos1:
    """Bare broker fan-out at QoS 1 over a lossy WLAN: no operators, no
    ML, no sensors, no cost model."""

    name = "sim_fanout_qos1"
    PUBLISHERS = 4
    SUBSCRIBERS = 16
    PUBLISH_HZ = 4.0
    LOSS_RATE = 0.02
    DRAIN_S = 30.0
    #: Simulated seconds per requested wall second (300 at 8).
    SIM_S_PER_SECOND = 37.5

    def build(self, seed: int) -> dict[str, Any]:
        runtime = SimRuntime(seed=seed)
        runtime.tracer.enabled = False
        broker = Broker(runtime.add_node("broker"))
        publishers = [
            MqttClient(runtime.add_node(f"pub-{i}"), broker.address, client_id=f"pub-{i}")
            for i in range(self.PUBLISHERS)
        ]
        #: (subscriber, publisher, sequence number) -> deliveries.
        seen: dict[tuple[int, int, int], int] = {}
        latencies: list[float] = []

        def subscriber_callback(index: int) -> Callable[[str, Any, Any], None]:
            def on_message(_topic: str, payload: Any, _packet: Any) -> None:
                key = (index, payload["pub"], payload["seq"])
                seen[key] = seen.get(key, 0) + 1
                latencies.append(runtime.now - payload["ts"])

            return on_message

        subscribers = []
        for i in range(self.SUBSCRIBERS):
            client = MqttClient(
                runtime.add_node(f"sub-{i}"), broker.address, client_id=f"sub-{i}"
            )
            # Half single-level, half multi-level wildcards.
            topic_filter = "bench/+/v" if i < self.SUBSCRIBERS // 2 else "bench/#"
            client.connect()
            client.subscribe(topic_filter, subscriber_callback(i), qos=1)
            subscribers.append(client)
        for client in publishers:
            client.connect()
        runtime.run(until=2.0)
        return {
            "runtime": runtime, "broker": broker, "publishers": publishers,
            "subscribers": subscribers, "seen": seen, "latencies": latencies,
            "values": random.Random(seed),
        }

    def run(self, ctx: dict[str, Any], seconds: float, tracing: Any) -> Window:
        runtime, broker, seen = ctx["runtime"], ctx["broker"], ctx["seen"]
        values: random.Random = ctx["values"]
        window = Window()
        clients = ctx["publishers"] + ctx["subscribers"]
        if broker.subscription_count() != self.SUBSCRIBERS or not all(
            c.connected for c in clients
        ):
            window.errors.append(
                f"set-up incomplete: {broker.subscription_count()} subscriptions, "
                f"{sum(c.connected for c in clients)} of {len(clients)} clients connected"
            )
            return window
        duration = self.SIM_S_PER_SECOND * seconds
        # Connect and subscribe ran on a clean channel; the loss applies to
        # the measured window only, so no seed can lose a SUBSCRIBE (which
        # the client never retries) and void the run.
        runtime.wlan.schedule_interference(runtime.now, duration, self.LOSS_RATE)
        sent = [0] * self.PUBLISHERS

        def publish(index: int) -> None:
            ctx["publishers"][index].publish(
                f"bench/{index}/v",
                {
                    "pub": index, "seq": sent[index], "ts": runtime.now,
                    "v": [round(values.uniform(-1.0, 1.0), 4) for _ in range(3)],
                },
                qos=1,
            )
            sent[index] += 1

        # Open loop: the timers fire on the simulated clock whatever the
        # backlog; phases are spread so publishers do not share an instant.
        period = 1.0 / self.PUBLISH_HZ
        timers = [
            PeriodicTimer(
                runtime, period, lambda i=i: publish(i),
                start_delay=period * i / self.PUBLISHERS,
            )
            for i in range(self.PUBLISHERS)
        ]
        _run_segments(runtime, duration, window, tracing, ctx["latencies"])
        for timer in timers:
            timer.cancel()
        _add_counters(window.counters, runtime)
        runtime.run(until=runtime.now + self.DRAIN_S)
        pairs = sum(sent) * self.SUBSCRIBERS
        missing = pairs - len(seen)
        duplicates = sum(seen.values()) - len(seen)
        window.counters["mqtt.client.duplicates_received"] = duplicates
        window.attempted = pairs
        window.failed = missing + _middleware_failures(window.counters)
        if missing:
            window.errors.append(
                f"{missing} of {pairs} (subscriber, message) pairs never delivered"
            )
        return window


# ---------------------------------------------------------------------------
# sim_failover
# ---------------------------------------------------------------------------


class SimFailover:
    """The ``failover`` chaos scenario, as a batch of consecutive seeds."""

    name = "sim_failover"
    #: Scenario runs per requested wall second (40 at 8).
    SEEDS_PER_SECOND = 5.0

    def build(self, seed: int) -> dict[str, Any]:
        # What every scenario run does before the faults are injected.
        runtime, cluster = build_chaos_cluster(seed)
        cluster.submit(build_chaos_recipe())
        cluster.settle(2.0)
        return {"runtime": runtime, "seed": seed}

    def run(self, ctx: dict[str, Any], seconds: float, tracing: Any) -> Window:
        window = Window()
        per_segment = max(1, round(self.SEEDS_PER_SECOND * seconds / SEGMENTS))
        base = ctx["seed"] * 1000
        recoveries: list[float] = []
        for k in range(SEGMENTS):
            wall = 0.0
            events = msgs = 0
            latencies: list[float] = []
            for j in range(per_segment):
                seed = base + k * per_segment + j
                captured: list[SimRuntime] = []
                seconds_, raw, result = _timed(
                    tracing,
                    lambda: run_scenario("failover", seed=seed, prepare=captured.append),
                )
                runtime = captured[0]
                wall += seconds_
                window.raw_wall_s += raw
                events += runtime.kernel.events_processed
                metrics = result.report.metrics
                msgs += int(metrics.get("qos1_delivered", 0))
                latencies.extend(
                    r["latency_s"] * 1000.0 for r in result.tracer.select(event="ml.trained")
                )
                _add_counters(window.counters, runtime)
                window.counters["mqtt.client.duplicates_received"] += int(
                    metrics.get("qos1_duplicate_deliveries", 0)
                )
                window.counters["core.mgmt.failover_moves"] += len(
                    result.tracer.select(event="mgmt.failover_moved")
                )
                window.counters["core.mgmt.migrations_done"] += len(
                    result.tracer.select(event="migrate.done")
                )
                recoveries.append(metrics.get("recovery_s:node_crash", 0.0))
                unaccounted = int(metrics.get("qos1_unaccounted", 0))
                window.attempted += int(metrics.get("qos1_forwarded", 0))
                window.failed += unaccounted + len(result.report.failed())
                if not result.report.ok:
                    window.errors.append(f"seed {seed}: invariants failed")
                if unaccounted:
                    window.errors.append(f"seed {seed}: {unaccounted} QoS 1 unaccounted")
            window.seg_wall[k] = wall
            window.seg_events[k] = events
            window.seg_msgs[k] = msgs
            window.seg_latency_ms[k] = latencies
        window.extra = {"recovery_s": round(float(np.median(recoveries)), 6)}
        return window


# ---------------------------------------------------------------------------
# real_pubsub_qos0 / real_pubsub_qos1
# ---------------------------------------------------------------------------


class RealPubsub:
    """The asyncio backend: closed loop, 2 publisher→subscriber pairs, one
    outstanding publish per pair, through ``net.inproc``."""

    PAIRS = 2

    def __init__(self, name: str, qos: int, msgs_per_second: float) -> None:
        self.name = name
        self.qos = qos
        #: Messages per requested wall second (QoS 0: 100 k at 8).
        self.msgs_per_second = msgs_per_second

    def build(self, seed: int) -> dict[str, Any]:
        runtime = AsyncioRuntime(seed=seed)
        runtime.tracer.enabled = False
        broker = Broker(runtime.add_node("broker"))
        ctx: dict[str, Any] = {
            "runtime": runtime, "broker": broker, "publishers": [], "subscribers": [],
            "on_message": [None] * self.PAIRS, "close": runtime.close,
        }
        for i in range(self.PAIRS):
            publisher = MqttClient(
                runtime.add_node(f"pub-{i}"), broker.address, client_id=f"pub-{i}"
            )
            subscriber = MqttClient(
                runtime.add_node(f"sub-{i}"), broker.address, client_id=f"sub-{i}"
            )

            def deliver(topic: str, payload: Any, packet: Any, i: int = i) -> None:
                ctx["on_message"][i](payload)

            publisher.connect()
            subscriber.connect()
            subscriber.subscribe(f"bench/{i}/v", deliver, qos=self.qos)
            ctx["publishers"].append(publisher)
            ctx["subscribers"].append(subscriber)
        clients = ctx["publishers"] + ctx["subscribers"]

        async def settled() -> None:
            while not (
                all(c.connected for c in clients)
                and broker.subscription_count() == self.PAIRS
            ):
                await asyncio.sleep(0)

        _run_loop(runtime, asyncio.wait_for(settled(), timeout=30.0))
        rng = random.Random(seed)
        ctx["values"] = [
            [round(rng.uniform(-1.0, 1.0), 4) for _ in range(3)] for _ in range(1024)
        ]
        return ctx

    def run(self, ctx: dict[str, Any], seconds: float, tracing: Any) -> Window:
        runtime: AsyncioRuntime = ctx["runtime"]
        window = Window(latency_exact=False)
        per_pair_slice = max(
            1, round(self.msgs_per_second * seconds / (SEGMENTS * SLICES) / self.PAIRS)
        )
        values = ctx["values"]
        sent = [0] * self.PAIRS
        received = [0] * self.PAIRS
        sent_at = [0.0] * self.PAIRS
        latency_ms: list[float] = []
        #: The running slice: messages per pair to reach, future to resolve.
        segment: dict[str, Any] = {}

        def publish(i: int) -> None:
            payload = {"seq": sent[i], "v": values[sent[i] % len(values)]}
            sent[i] += 1
            sent_at[i] = perf_counter()
            ctx["publishers"][i].publish(f"bench/{i}/v", payload, qos=self.qos)

        def on_message(i: int) -> Callable[[Any], None]:
            def handle(payload: Any) -> None:
                latency_ms.append((perf_counter() - sent_at[i]) * 1000.0)
                if payload["seq"] != received[i]:
                    window.errors.append(
                        f"pair {i}: got seq {payload['seq']}, expected {received[i]}"
                    )
                received[i] += 1
                # Closed loop: the delivery releases the pair's next publish.
                if sent[i] < segment["goal"]:
                    publish(i)
                elif sum(received) == segment["goal"] * self.PAIRS:
                    segment["done"].set_result(None)

            return handle

        for i in range(self.PAIRS):
            ctx["on_message"][i] = on_message(i)

        async def drive() -> None:
            for i in range(self.PAIRS):
                publish(i)
            await asyncio.wait_for(segment["done"], timeout=150.0)

        def run_slice() -> None:
            if tracing is not None:
                tracing.span("runtime.loop", _run_loop, runtime, drive())
            else:
                _run_loop(runtime, drive())

        for k in range(SEGMENTS):
            for j in range(SLICES):
                segment["goal"] = per_pair_slice * (k * SLICES + j + 1)
                segment["done"] = runtime.loop.create_future()
                frames, taken = runtime.network.frames_transmitted, len(latency_ms)
                seconds_, wall, _ = _timed(tracing, run_slice)
                window.seg_wall[k] += seconds_
                window.raw_wall_s += wall
                window.seg_events[k] += runtime.network.frames_transmitted - frames
                window.seg_msgs[k] += len(latency_ms) - taken
                window.seg_latency_ms[k].extend(
                    v * seconds_ / wall for v in latency_ms[taken:]
                )
        _add_counters(window.counters, runtime)
        window.attempted = sum(sent)
        window.failed = sum(sent) - sum(received) + _middleware_failures(window.counters)
        if received != [per_pair_slice * SEGMENTS * SLICES] * self.PAIRS:
            window.errors.append(f"delivered {received}, sent {sent}")
        return window


def _run_loop(runtime: AsyncioRuntime, awaitable: Any) -> None:
    """Run the runtime's private loop until ``awaitable`` completes."""
    asyncio.set_event_loop(runtime.loop)
    try:
        runtime.loop.run_until_complete(awaitable)
    finally:
        asyncio.set_event_loop(None)


WORKLOADS: dict[str, Any] = {
    w.name: w
    for w in (
        SimFig5("sim_fig5", observed=False),
        SimFig5("sim_fig5_observed", observed=True),
        SimSaturation(),
        SimFanoutQos1(),
        SimFailover(),
        RealPubsub("real_pubsub_qos0", qos=0, msgs_per_second=12500.0),
        RealPubsub("real_pubsub_qos1", qos=1, msgs_per_second=6250.0),
    )
}
