"""The static recipe model: one walk over the task graph (paper §IV-C).

A recipe declares its ingest rates (``rate_hz`` on sensor tasks) and its
devices; every operator class parses a task's params once, into its
``settings``, and declares from them how it transforms both — its
``emit_rate`` (a ``map`` passes its input rate through, an align
``window`` emits at the slowest source's rate, a ``throttle`` caps at
``1/interval_s`` ...) and its ``payload_effect`` (which datum and
attribute keys it reads, adds, renames or selects). :func:`walk` visits
the topological order once and yields, per task, its rates and its
payload schemas; placement, admission (RCP110/RCP111), shedding, the
payload checks (RCP200–RCP212) and the latency bounds (RCP24x) all read
that one result. A task whose params do not parse (RCP100) is opaque.

Rates times the per-record service time of the class's ``cost_op`` (the
same :class:`~repro.runtime.costs.CostModel` the simulator charges) give
CPU-seconds-per-second — utilization. A task or module whose utilization
exceeds its capacity is *statically unschedulable*: the deployment would
saturate exactly as the paper's testbed does past the 20–40 Hz knee
(§V-B), so the checker can say so before a single record flows.

The model is conservative and simple on purpose: ``filter``/``delta`` are
assumed to pass everything (worst case), per-byte cost terms use a fixed
assumed record size, and warm-up surcharges are ignored (steady state).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.core.operators import PayloadEffect, StreamOperator, operator_class
from repro.core.recipe import Recipe, TaskSpec
from repro.errors import RecipeError
from repro.runtime.costs import CostModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.splitter import SubTask

__all__ = [
    "StreamSchema",
    "TaskFacts",
    "walk",
    "operator_load",
    "subtask_demand",
    "placement_demand",
    "module_demand",
    "default_cost_model",
    "DEFAULT_RECORD_BYTES",
]

#: Assumed on-wire record size for per-byte cost terms (a three-value
#: sensor datum serializes to roughly this).
DEFAULT_RECORD_BYTES = 256


def default_cost_model() -> CostModel:
    """Pi-class service times (the paper's calibrated model)."""
    from repro.bench.calibration import pi_cost_model  # lazy: only this default needs repro.bench

    return pi_cost_model()


@dataclass(frozen=True)
class StreamSchema:
    """What a record on one stream may carry.

    ``datum`` / ``attrs`` are the known *may-produce* key sets; an open
    flag means unknown extra keys are possible (an opaque operator or an
    external input), in which case absence proves nothing.
    ``tainted`` means an at-least-once hop upstream may have duplicated
    the record (cleared by ``dedup``). ``dedup_guard`` marks a flow that
    passed through a sample-id dedup: the guard is durable — duplication
    on hops *after* the dedup is out of RCP210's scope, because sample-id
    dedup collapses any upstream duplication and last-hop redelivery is
    bounded by the client's in-flight window and surfaced by the
    runtime's QoS accounting instead.
    """

    datum: frozenset[str] = frozenset()
    attrs: frozenset[str] = frozenset()
    open_datum: bool = False
    open_attrs: bool = False
    tainted: bool = False
    dedup_guard: bool = False


_OPEN = StreamSchema(open_datum=True, open_attrs=True)


@dataclass(frozen=True)
class TaskFacts:
    """What the walk derives for one task."""

    task: TaskSpec
    cls: type[StreamOperator]  # whose declarations apply (base: opaque task)
    settings: Any  # what ``cls.settings`` parsed from the task's params
    ingest_hz: float  # records/second arriving at the task
    emit_hz: float  # records/second published per output stream
    inputs: tuple[StreamSchema, ...]  # one per ``task.inputs`` entry
    merged: StreamSchema  # the inputs' union, at-least-once taint included
    effect: PayloadEffect
    out: StreamSchema  # every output stream's schema


def walk(
    recipe: Recipe, device_keys: Mapping[str, Iterable[str]] | None = None
) -> dict[str, TaskFacts]:
    """Task id -> :class:`TaskFacts`, in topological order.

    External inputs (``app:stream`` references) contribute 0 Hz and an
    open schema — neither is knowable from this recipe alone.
    ``device_keys`` maps sensor device names to their channel keys (see
    :meth:`repro.scenario.Scenario.device_keys`); a sensor whose device
    is absent from the map seeds an open schema.
    """
    known_devices = {k: frozenset(v) for k, v in (device_keys or {}).items()}
    facts: dict[str, TaskFacts] = {}
    for task_id in recipe.topological_order:
        task = recipe.tasks[task_id]
        cls = operator_class(task.operator)
        qos = int(task.params.get("qos", 0))
        inputs: list[StreamSchema] = []
        in_rates: list[float] = []
        tainted = False
        for stream in task.inputs:
            if ":" in stream:
                inputs.append(replace(_OPEN, tainted=qos >= 1))
                continue
            upstream = facts[recipe.producer_of(stream)]
            inputs.append(upstream.out)
            in_rates.append(upstream.emit_hz)
            upstream_qos = int(upstream.task.params.get("qos", 0))
            if not upstream.out.dedup_guard and min(upstream_qos, qos) >= 1:
                tainted = True
        merged = _merge_schemas(inputs)
        if tainted:
            merged = replace(merged, tainted=True)
        try:
            settings = cls.settings(task.params)
        except RecipeError:  # RCP100: known no better than an RCP106 operator
            cls, settings = StreamOperator, ()
        emit = cls.emit_rate(settings, in_rates, task.outputs)
        opaque = PayloadEffect(opaque=True)  # nothing is known of its payload
        effect = opaque if cls is StreamOperator else cls.payload_effect(settings)
        if cls.samples_device:
            keys = known_devices.get(settings.device)
            out = StreamSchema(datum=keys) if keys is not None else _OPEN
        elif effect.opaque:
            out = replace(_OPEN, tainted=merged.tainted, dedup_guard=merged.dedup_guard)
        else:
            out = _apply_effect(merged, effect)
        if effect.dedups:
            out = replace(out, tainted=False, dedup_guard=True)
        facts[task_id] = TaskFacts(
            task=task,
            cls=cls,
            settings=settings,
            # A device sampler's arrival rate is its own sampling rate.
            ingest_hz=emit if cls.samples_device else sum(in_rates),
            emit_hz=emit,
            inputs=tuple(inputs),
            merged=merged,
            effect=effect,
            out=out,
        )
    return facts


def _merge_schemas(inputs: list[StreamSchema]) -> StreamSchema:
    if not inputs:
        return StreamSchema()
    return StreamSchema(
        datum=frozenset(key for schema in inputs for key in schema.datum),
        attrs=frozenset(key for schema in inputs for key in schema.attrs),
        open_datum=any(schema.open_datum for schema in inputs),
        open_attrs=any(schema.open_attrs for schema in inputs),
        tainted=any(schema.tainted for schema in inputs),
        dedup_guard=all(schema.dedup_guard for schema in inputs),
    )


def _apply_effect(merged: StreamSchema, effect: PayloadEffect) -> StreamSchema:
    datum = set(merged.datum)
    open_datum = merged.open_datum
    if effect.select is not None:
        datum = set(effect.select)
        open_datum = False
    for old, new in effect.renames:
        datum.discard(old)
        datum.add(new)
    datum |= set(effect.adds)
    return replace(
        merged,
        datum=frozenset(datum),
        attrs=merged.attrs | frozenset(effect.adds_attrs),
        open_datum=open_datum,
    )


def _cost(cost_model: CostModel, op: str) -> float:
    return cost_model.steady_cost(op, DEFAULT_RECORD_BYTES) or 0.0


def operator_load(facts: TaskFacts, cost_model: CostModel) -> float:
    """CPU-seconds per second one shard's operator demands: its class's
    ``cost_op`` at the task's demand rate. What the per-task rule ("no
    single task exceeds one core") and the shed decision judge, and the
    first term of :func:`subtask_demand`."""
    task = facts.task
    demand_hz = facts.ingest_hz if task.inputs else facts.emit_hz
    cost_op = operator_class(task.operator).cost_op
    return demand_hz / max(1, task.parallelism) * _cost(cost_model, cost_op)


def subtask_demand(
    facts: TaskFacts, cost_model: CostModel
) -> tuple[tuple[str, float], ...]:
    """CPU-seconds per second one shard of ``facts.task`` demands of the
    module hosting it, as ``(op, load)`` terms: the operator's own
    ``cost_op`` first (:func:`operator_load`), then the middleware's —
    ``mqtt.recv`` per ingested and ``mqtt.send`` per emitted record. The
    one place rates meet costs; every placement decision and every
    utilization check reads it.

    A shard processes and emits ``1/parallelism`` of the samples but still
    receives the whole stream (the shard filter runs after ``mqtt.recv``).
    """
    task = facts.task
    recv_hz = facts.ingest_hz if task.inputs else 0.0
    send_hz = facts.emit_hz / max(1, task.parallelism) * len(task.outputs)
    return (
        (operator_class(task.operator).cost_op, operator_load(facts, cost_model)),
        ("mqtt.recv", recv_hz * _cost(cost_model, "mqtt.recv")),
        ("mqtt.send", send_hz * _cost(cost_model, "mqtt.send")),
    )


def placement_demand(
    recipe: Recipe, subtasks: "Iterable[SubTask]", cost_model: CostModel
) -> dict[str, float]:
    """Sub-task id -> total :func:`subtask_demand` (CPU-s/s on its host)."""
    facts = walk(recipe)
    return {
        subtask.subtask_id: sum(
            load for _op, load in subtask_demand(facts[subtask.task_id], cost_model)
        )
        for subtask in subtasks
    }


def module_demand(
    demand: Mapping[str, float], placements: Mapping[str, str]
) -> dict[str, float]:
    """Module -> predicted utilization: ``demand`` summed over ``placements``."""
    load: dict[str, float] = {}
    for subtask_id, module in placements.items():
        load[module] = load.get(module, 0.0) + demand.get(subtask_id, 0.0)
    return load
