"""Static end-to-end latency bounds: network-calculus abstract interpretation.

The fourth lint engine (``repro lint --deadline``). It answers, before a
single record flows, the question the paper's title poses: *will this
recipe process flows in real time?* RCP111 checks aggregate utilization;
this engine computes an actual worst-case **end-to-end latency bound**
per flow and a **backlog bound** per shared resource, then holds both
against deadlines declared on recipe sinks (``deadline_ms``) and — via
the soundness gate — against what the simulated system measurably did.

Curve model
-----------
Every flow is abstracted as a token-bucket *arrival curve*
``alpha(t) = b + r t`` (``b`` records of burst, ``r`` records/second from
:func:`repro.lint.rates.walk`); every shared resource as a
work-conserving unit-rate server. Three resource families exist:

* ``cpu:<module-or-task>`` — the hosting CPU; per-record work is the
  operator's steady-state service time from the calibrated
  :class:`~repro.runtime.costs.CostModel` (the same model the simulator
  charges), plus MQTT send/recv handling;
* ``cpu:broker`` — ``mqtt.route`` per publish and ``mqtt.forward`` per
  delivery;
* ``wlan`` — the shared 802.11 channel; per-frame work is the
  :meth:`~repro.net.wlan.WlanConfig.airtime` of a record-sized frame
  plus the full jitter allowance. QoS 1 streams have their network rate
  and burst multiplied by the retry amplification ``1/(1-p)`` for loss
  rate ``p`` (the chaos loss model).

Composition rule
----------------
Arrival curves are enforced at the *sources*: sensors are strictly
periodic, so every flow enters the network shaped to ``b + r t`` with the
burst its source task declares (``burst``, one record by default). Under
that shaping a work-conserving unit-rate server with total utilization
``U < 1``, aggregate source work-burst
``B = sum_f b_f * w_f`` and largest single job ``L`` empties every busy
period within ``(L + B) / (1 - U)`` seconds, and no FIFO record waits
longer than the busy period that contains it — that quotient is the
per-visit delay bound. The ``1/(1-U)`` factor is also what absorbs
in-network burst inflation (bursts grown inside a busy period are, by
definition, served within it), which is why bursts propagate through
the graph only via *deterministic* hold terms: window fill/align waits
(a merged record's trace root is its *oldest* contributor, so the
observed end-to-end latency includes the full alignment round) and
throttle intervals. Cold-start warm-up surcharges (``warmup_extra_s``)
are added once per hop — they dominate the observed *max* at low rates.
A flow's end-to-end bound is the sum of its hop delays, holds and
warm-ups along the critical (max) path. The model deliberately trades
tightness for simplicity; the soundness gate below exists precisely to
catch it if it ever trades away correctness.

Soundness-gate contract
-----------------------
A static bound is a falsifiable claim about the measured system.
``repro lint --deadline --validate`` holds the bounds against an observed
run of a registry scenario (its own seed and duration) or an ``obs.span``
trace dump: an observed **max** above the bound means the model is wrong —
RCP243, an error, same spirit as the cost-drift gate (RCP230); a bound
more than ``LOOSENESS_FACTOR`` x the observed **p99** (after removing
one-off warm-up/disruption allowances) is RCP244, a looseness warning.

Rules: RCP240 bound exceeds declared deadline (error) · RCP241 unstable
hop, arrival >= service (error) · RCP242 deadline declared but bound not
derivable (warning) · RCP243 soundness violation (error) · RCP244 bound
loose vs observation (warning).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.recipe import Recipe, TaskSpec
from repro.lint.rates import (
    DEFAULT_RECORD_BYTES,
    TaskFacts,
    default_cost_model,
    walk,
)
from repro.net.wlan import WlanConfig
from repro.runtime.costs import CostModel
from repro.util.validate import Diagnostic, Rule, Severity

__all__ = [
    "LATENCY_RULES",
    "LatencyContext",
    "ResourceBound",
    "FlowBound",
    "LatencyAnalysis",
    "analyze_latency",
    "check_deadlines",
    "check_bound_soundness",
    "flows_from_trace",
]

#: RCP244 threshold: steady-state bound more than this multiple of the
#: observed p99 is reported as loose.
LOOSENESS_FACTOR = 10.0


#: The latency-bound rule catalog (RCP24x), for ``--catalog`` and SARIF.
LATENCY_RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule(
            "RCP240",
            Severity.ERROR,
            "computed worst-case latency bound exceeds the deadline "
            "declared on the recipe sink",
        ),
        Rule(
            "RCP241",
            Severity.ERROR,
            "unstable hop: arrival work rate >= service rate at a shared "
            "resource, so backlog and latency are unbounded",
        ),
        Rule(
            "RCP242",
            Severity.WARNING,
            "deadline declared but no latency bound is derivable "
            "(unknown input rate or missing cost-model entry)",
        ),
        Rule(
            "RCP243",
            Severity.ERROR,
            "soundness violation: observed max latency in a scenario run or "
            "trace dump exceeds the static bound — the model is wrong",
        ),
        Rule(
            "RCP244",
            Severity.WARNING,
            "loose bound: static bound exceeds 10x the observed p99 "
            "latency",
        ),
    )
}


@dataclass(frozen=True)
class LatencyContext:
    """Everything the abstract interpretation needs beyond the recipe.

    ``loss_rate`` overrides the WLAN config's i.i.d. loss for QoS 1 retry
    amplification (pass a Gilbert–Elliott stationary loss for chaos
    scenarios). ``disruption_allowance_s`` is a one-off additive term for
    scenarios that deliberately take infrastructure down mid-run (the
    chaos failover scenario adds its module-recovery bound here) — it is
    excluded from the steady-state bound RCP244 judges.
    """

    cost_model: CostModel | None = None
    wlan: WlanConfig | None = None
    loss_rate: float | None = None
    disruption_allowance_s: float = 0.0


@dataclass(frozen=True)
class ResourceBound:
    """Load and bounds for one shared resource."""

    resource: str
    utilization: float  # work-seconds demanded per second
    backlog_s: float  # worst-case queued work (seconds); inf if unstable
    backlog_records: float  # worst-case queued records; inf if unstable
    delay_s: float  # per-visit delay bound T + B; inf if unstable

    @property
    def stable(self) -> bool:
        return self.utilization < 1.0


@dataclass(frozen=True)
class FlowBound:
    """Worst-case end-to-end latency for records finishing at ``task_id``."""

    task_id: str
    bound_s: float  # inf when an upstream resource is unstable
    steady_bound_s: float  # bound minus one-off warm-up / disruption terms
    deadline_s: float | None
    derivable: bool
    reasons: tuple[str, ...] = ()  # why not derivable
    resources: tuple[str, ...] = ()  # shared resources traversed


@dataclass(frozen=True)
class LatencyAnalysis:
    """Result of :func:`analyze_latency`."""

    flows: dict[str, FlowBound]
    resources: dict[str, ResourceBound]

    def sinks(self) -> dict[str, FlowBound]:
        """Flows for graph sinks only (tasks whose output nothing consumes)."""
        return {
            task_id: bound
            for task_id, bound in self.flows.items()
            if bound.task_id in self._sink_ids
        }

    # populated by analyze_latency; dataclass field to stay frozen-friendly
    _sink_ids: frozenset[str] = field(default_factory=frozenset)


# ---------------------------------------------------------------------------
# The abstract interpretation
# ---------------------------------------------------------------------------


@dataclass
class _Visit:
    """One flow traversing one resource."""

    resource: str
    rate_hz: float
    burst_records: float
    work_s: float


class _VisitLog:
    """Per-iteration registry of resource visits."""

    def __init__(self) -> None:
        self.visits: dict[str, list[_Visit]] = {}

    def add(self, resource: str, rate_hz: float, burst: float, work_s: float) -> None:
        self.visits.setdefault(resource, []).append(
            _Visit(resource, rate_hz, burst, work_s)
        )

    def delay_table(self) -> dict[str, float]:
        """Per-resource visit delay bound (inf when unstable)."""
        return {
            resource: bound.delay_s
            for resource, bound in self.resource_bounds().items()
        }

    def resource_bounds(self) -> dict[str, ResourceBound]:
        bounds: dict[str, ResourceBound] = {}
        for resource in sorted(self.visits):
            visits = self.visits[resource]
            utilization = sum(v.rate_hz * v.work_s for v in visits)
            if utilization >= 1.0:
                bounds[resource] = ResourceBound(
                    resource, utilization, math.inf, math.inf, math.inf
                )
                continue
            blocking = max((v.work_s for v in visits), default=0.0)
            backlog = sum(v.burst_records * v.work_s for v in visits)
            bounds[resource] = ResourceBound(
                resource=resource,
                utilization=utilization,
                backlog_s=backlog,
                backlog_records=sum(v.burst_records for v in visits),
                # Busy-period length bound: source-shaped work drains
                # within (L + B) / (1 - U), and a FIFO record never waits
                # past the busy period it arrived into.
                delay_s=(blocking + backlog) / (1.0 - utilization),
            )
        return bounds


def _cpu_key(task: TaskSpec, placement: Mapping[str, str]) -> str:
    """Shared-CPU identity: tasks pinned to or placed on one module share
    its CPU; an unplaced task is assumed a CPU of its own."""
    module = task.pin_to or placement.get(task.task_id)
    return f"cpu:{module}" if module else f"cpu:task:{task.task_id}"


def _warmup_cost(model: CostModel, op: str) -> float:
    entry = model.ops.get(op)
    if entry is None or entry.warmup_ops <= 0:
        return 0.0
    return entry.warmup_extra_s * model.scale


@dataclass
class _StreamState:
    """Arrival-curve state of a stream at the broker (post-route)."""

    rate_hz: float
    burst_records: float
    latency_s: float  # bound from sensing to broker hand-off
    fixed_s: float  # one-off terms (warm-up) accumulated so far
    amplification: float  # QoS 1 network retry multiplier
    derivable: bool
    reasons: tuple[str, ...]
    resources: tuple[str, ...]


def analyze_latency(
    recipe: Recipe,
    context: LatencyContext | None = None,
    placement: Mapping[str, str] | None = None,
) -> LatencyAnalysis:
    """Compute per-flow latency bounds and per-resource backlog bounds.

    ``placement`` (task id -> module) says which unpinned tasks share a CPU.
    """
    placement = placement or {}
    ctx = context or LatencyContext()
    model = ctx.cost_model if ctx.cost_model is not None else default_cost_model()
    wlan = ctx.wlan if ctx.wlan is not None else WlanConfig()
    loss = ctx.loss_rate if ctx.loss_rate is not None else wlan.loss_rate
    facts = walk(recipe)
    frame_work = wlan.airtime(DEFAULT_RECORD_BYTES) + wlan.jitter_s
    net = {
        op: model.steady_cost(op, DEFAULT_RECORD_BYTES)
        for op in ("mqtt.send", "mqtt.recv", "mqtt.route", "mqtt.forward")
    }

    # Pass 1: bursts depend only on source declarations and deterministic
    # hold terms, never on queueing delays — so one fold over the walk with
    # a zero delay table already yields the final visit registry.
    log = _VisitLog()
    _fold(facts, model, ctx, loss, frame_work, net, {}, log, placement)
    delay_table = log.delay_table()
    # Pass 2: accumulate per-flow latency against the final delay table.
    log = _VisitLog()
    flows = _fold(facts, model, ctx, loss, frame_work, net, delay_table, log, placement)

    sink_ids = frozenset(
        task_id
        for task_id, task in recipe.tasks.items()
        if not task.outputs
        or all(not recipe.consumers_of(stream) for stream in task.outputs)
    )
    return LatencyAnalysis(
        flows=flows,
        resources=log.resource_bounds(),
        _sink_ids=sink_ids,
    )


def _fold(
    facts: Mapping[str, TaskFacts],
    model: CostModel,
    ctx: LatencyContext,
    loss: float,
    frame_work: float,
    net: Mapping[str, float | None],
    delay_table: Mapping[str, float],
    log: _VisitLog,
    placement: Mapping[str, str],
) -> dict[str, FlowBound]:
    """One pass over the walk's facts, computing bounds against ``delay_table``."""

    def hop(resource: str, rate_hz: float, burst: float, work_s: float | None) -> float:
        """Register a visit; return the delay bound for this hop."""
        if work_s is None or work_s <= 0.0:
            return 0.0
        log.add(resource, rate_hz, burst, work_s)
        return delay_table.get(resource, 0.0)

    streams: dict[str, _StreamState] = {}
    flows: dict[str, FlowBound] = {}

    for task_id, step in facts.items():
        task = step.task
        cls = step.cls
        cpu = _cpu_key(task, placement)
        ingest_hz = step.ingest_hz
        emit_hz = step.emit_hz
        derivable = True
        reasons: list[str] = []
        resources: list[str] = [cpu]

        if cls.samples_device or not task.inputs:
            # A device sampler declares its burst; other sources emit singly.
            burst_in = max(1.0, step.settings.burst) if cls.samples_device else 1.0
            latency_in = 0.0
            fixed_in = 0.0
            demand_hz = emit_hz
        else:
            latency_in = 0.0
            fixed_in = 0.0
            burst_in = 0.0
            demand_hz = ingest_hz
            for stream in task.inputs:
                if ":" in stream:
                    derivable = False
                    reasons.append(
                        f"external input {stream!r} has no statically known "
                        "rate or burst"
                    )
                    continue
                state = streams.get(stream)
                if state is None:  # producer emits nothing (rate 0 path)
                    derivable = False
                    reasons.append(f"input stream {stream!r} carries no flow")
                    continue
                if not state.derivable:
                    derivable = False
                    reasons.extend(state.reasons)
                # Delivery: broker forward, downlink frame, receiver recv.
                d_forward = hop(
                    "cpu:broker",
                    state.rate_hz * state.amplification,
                    state.burst_records * state.amplification,
                    net["mqtt.forward"],
                )
                d_down = hop(
                    "wlan",
                    state.rate_hz * state.amplification,
                    state.burst_records * state.amplification,
                    frame_work,
                )
                d_recv = hop(
                    cpu, state.rate_hz, state.burst_records, net["mqtt.recv"]
                )
                if net["mqtt.forward"] is None or net["mqtt.recv"] is None:
                    derivable = False
                    reasons.append("cost model lacks MQTT handling entries")
                edge = d_forward + d_down + d_recv
                latency_in = max(latency_in, state.latency_s + edge)
                fixed_in = max(fixed_in, state.fixed_s)
                burst_in += state.burst_records
                resources.extend(state.resources)
                resources.extend(["cpu:broker", "wlan"])

        # The operator itself.
        op = cls.cost_op
        service_s = model.steady_cost(op, DEFAULT_RECORD_BYTES)
        if service_s is None:
            derivable = False
            reasons.append(f"cost model does not define op {op!r}")
        hold = cls.hold_time(step.settings, ingest_hz, emit_hz)
        shard_hz = demand_hz / max(1, task.parallelism)
        d_op = hop(cpu, shard_hz, burst_in, service_s)
        warmup = _warmup_cost(model, op)
        latency = latency_in + hold + d_op + warmup
        fixed = fixed_in + warmup
        # Deterministic hold terms release accumulated records at once
        # (a window flush); queueing-induced inflation is absorbed by the
        # busy-period delay form, not the burst state.
        burst_out = burst_in + demand_hz * hold

        flows[task_id] = FlowBound(
            task_id=task_id,
            bound_s=latency + ctx.disruption_allowance_s,
            steady_bound_s=latency - fixed,
            deadline_s=(
                task.deadline_ms / 1000.0 if task.deadline_ms is not None else None
            ),
            derivable=derivable,
            reasons=tuple(dict.fromkeys(reasons)),
            resources=tuple(dict.fromkeys(resources)),
        )

        # Publication: sender-side MQTT, uplink frame, broker route —
        # charged once per emitted record regardless of consumer count.
        if task.outputs and emit_hz > 0:
            qos = int(task.params.get("qos", 0))
            amp = 1.0
            if qos >= 1 and 0.0 < loss < 1.0:
                amp = 1.0 / (1.0 - loss)
            elif qos >= 1 and loss >= 1.0:
                amp = math.inf
            for stream in task.outputs:
                d_send = hop(cpu, emit_hz, burst_out, net["mqtt.send"])
                d_up = hop("wlan", emit_hz * amp, burst_out * amp, frame_work)
                d_route = hop(
                    "cpu:broker", emit_hz * amp, burst_out * amp, net["mqtt.route"]
                )
                stream_derivable = derivable and not math.isinf(amp)
                stream_reasons = list(flows[task_id].reasons)
                if math.isinf(amp):
                    stream_reasons.append(
                        f"loss rate {loss:g} starves QoS 1 stream {stream!r}"
                    )
                if net["mqtt.send"] is None or net["mqtt.route"] is None:
                    stream_derivable = False
                    stream_reasons.append("cost model lacks MQTT handling entries")
                publish = d_send + d_up + d_route
                streams[stream] = _StreamState(
                    rate_hz=emit_hz,
                    burst_records=burst_out,
                    latency_s=latency + publish,
                    fixed_s=fixed,
                    amplification=amp,
                    derivable=stream_derivable,
                    reasons=tuple(dict.fromkeys(stream_reasons)),
                    resources=tuple(
                        dict.fromkeys(list(flows[task_id].resources) + ["wlan", "cpu:broker"])
                    ),
                )

    # Unstable resources poison every flow that traverses them.
    unstable = {
        resource
        for resource, delay in delay_table.items()
        if math.isinf(delay)
    }
    if unstable:
        for task_id, bound in flows.items():
            if unstable.intersection(bound.resources):
                flows[task_id] = FlowBound(
                    task_id=bound.task_id,
                    bound_s=math.inf,
                    steady_bound_s=math.inf,
                    deadline_s=bound.deadline_s,
                    derivable=bound.derivable,
                    reasons=bound.reasons,
                    resources=bound.resources,
                )
    return flows


# ---------------------------------------------------------------------------
# Rules: RCP240 / RCP241 / RCP242
# ---------------------------------------------------------------------------


def check_deadlines(
    recipe: Recipe,
    context: LatencyContext | None = None,
    analysis: LatencyAnalysis | None = None,
) -> list[Diagnostic]:
    """RCP240/RCP241/RCP242 over a recipe's computed bounds."""
    result = analysis if analysis is not None else analyze_latency(recipe, context)
    diagnostics: list[Diagnostic] = []
    for resource in sorted(result.resources):
        load = result.resources[resource]
        if not load.stable:
            diagnostics.append(
                LATENCY_RULES["RCP241"].diagnostic(
                    f"{recipe.name}:resource {resource}",
                    f"unstable hop: arrival demands {load.utilization:.2f} "
                    "work-seconds per second of a unit-rate resource — "
                    "backlog grows without bound",
                    hint="lower sensing rates, widen windows, shard the "
                    "stage, or move tasks off the shared resource",
                )
            )
    for task_id in sorted(result.flows):
        flow = result.flows[task_id]
        if flow.deadline_s is None:
            continue
        where = f"{recipe.name}:task {task_id}"
        if not flow.derivable:
            detail = "; ".join(flow.reasons) or "insufficient model inputs"
            diagnostics.append(
                LATENCY_RULES["RCP242"].diagnostic(
                    where,
                    f"deadline {flow.deadline_s * 1000:g} ms declared but no "
                    f"bound is derivable: {detail}",
                    hint="declare sensor rate_hz/burst and calibrate every "
                    "op on the path",
                )
            )
            continue
        if math.isinf(flow.bound_s):
            continue  # RCP241 already reported the unstable resource
        if flow.bound_s * 1000.0 > flow.deadline_s * 1000.0:
            diagnostics.append(
                LATENCY_RULES["RCP240"].diagnostic(
                    where,
                    f"worst-case latency bound {flow.bound_s * 1000:.1f} ms "
                    f"exceeds the declared deadline "
                    f"{flow.deadline_s * 1000:g} ms",
                    hint="raise the deadline, lower rates, or shorten the "
                    "flow's path",
                )
            )
    return diagnostics


# ---------------------------------------------------------------------------
# Soundness gate: RCP243 / RCP244
# ---------------------------------------------------------------------------


def flows_from_trace(trace: Any) -> dict[str, dict[str, float]]:
    """Per-flow latency summaries from an observed run's
    :class:`~repro.sim.trace.Tracer` or an ``obs.span`` JSONL dump path."""
    from repro.obs.breakdown import (
        flow_latency_summary,
        spans_from_tracer,
        stage_breakdown,
    )
    from repro.sim.trace import Tracer

    tracer = trace if isinstance(trace, Tracer) else Tracer.from_jsonl(trace)
    return flow_latency_summary(stage_breakdown(spans_from_tracer(tracer)))


def check_bound_soundness(
    recipe: Recipe,
    observed_flows: Mapping[str, Mapping[str, float]],
    context: LatencyContext | None = None,
    analysis: LatencyAnalysis | None = None,
    source: str = "<observed>",
) -> list[Diagnostic]:
    """RCP243/RCP244: hold static bounds against measured flow latencies.

    ``observed_flows`` maps flow keys (recipe task ids, as produced by
    :func:`repro.obs.breakdown.flow_latency_summary`) to summaries with
    ``max_ms`` / ``p99_ms``. Flows with no matching task are ignored —
    a trace may carry control-plane spans the recipe does not model.

    Only **sink** flows are validated. The static model claims bounds at
    flow endpoints; intermediate leaf spans in a trace include records
    that died mid-flow (dropped, shed, or merged away) under the deployed
    placement, whose queueing the recipe-level per-task model does not
    claim to bound.
    """
    result = analysis if analysis is not None else analyze_latency(recipe, context)
    sinks = result.sinks()
    diagnostics: list[Diagnostic] = []
    for stage in sorted(observed_flows):
        flow = sinks.get(stage)
        if flow is None or not flow.derivable:
            continue
        summary = observed_flows[stage]
        observed_max = float(summary.get("max_ms", 0.0))
        observed_p99 = float(summary.get("p99_ms", 0.0))
        where = f"{recipe.name}:task {stage} ({source})"
        if math.isinf(flow.bound_s):
            continue  # unstable hops are RCP241's finding
        bound_ms = flow.bound_s * 1000.0
        if observed_max > bound_ms:
            diagnostics.append(
                LATENCY_RULES["RCP243"].diagnostic(
                    where,
                    f"soundness violation: observed max latency "
                    f"{observed_max:.1f} ms exceeds the static bound "
                    f"{bound_ms:.1f} ms — the latency model is wrong",
                    hint="recalibrate the cost model or fix the curve "
                    "composition; a bound the system can beat is not a bound",
                )
            )
        elif (
            observed_p99 > 0.0
            and flow.steady_bound_s * 1000.0 > LOOSENESS_FACTOR * observed_p99
        ):
            diagnostics.append(
                LATENCY_RULES["RCP244"].diagnostic(
                    where,
                    f"loose bound: steady-state bound "
                    f"{flow.steady_bound_s * 1000:.1f} ms is more than "
                    f"{LOOSENESS_FACTOR:g}x the observed p99 "
                    f"{observed_p99:.1f} ms",
                    hint="tighten burst declarations or the cost model so "
                    "the bound stays actionable",
                )
            )
    return diagnostics
