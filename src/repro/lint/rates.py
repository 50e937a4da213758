"""Static rate propagation and CPU feasibility (paper §IV-C pre-check).

A recipe declares its ingest rates (``rate_hz`` on sensor tasks); every
operator transforms rates in a statically known way, which its class
declares as ``emit_rate`` (a ``map`` passes its input rate through, an
align ``window`` emits at the slowest source's rate, a ``throttle`` caps
at ``1/interval_s`` ...). Propagating rates down the task graph gives
each task's processing demand in records/second; multiplying by the
per-record service time of the class's ``cost_op`` (the same
:class:`~repro.runtime.costs.CostModel` the simulator charges) gives
CPU-seconds-per-second — utilization. A task or module
whose utilization exceeds its capacity is *statically unschedulable*: the
deployment would saturate exactly as the paper's testbed does past the
20–40 Hz knee (§V-B), so the checker can say so before a single record
flows.

The model is conservative and simple on purpose: ``filter``/``delta`` are
assumed to pass everything (worst case), per-byte cost terms use a fixed
assumed record size, and warm-up surcharges are ignored (steady state).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.core.operators import operator_class
from repro.core.recipe import Recipe, TaskSpec
from repro.runtime.costs import CostModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.splitter import SubTask

__all__ = [
    "TaskRates",
    "propagate_rates",
    "subtask_demand",
    "placement_demand",
    "module_demand",
    "task_utilization",
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
class TaskRates:
    """Statically derived rates for one task."""

    ingest_hz: float  # records/second arriving at the task
    emit_hz: float  # records/second published per output stream


def propagate_rates(recipe: Recipe) -> dict[str, TaskRates]:
    """Derive per-task ingest/emit rates from declared sensor rates.

    External inputs (``app:stream`` references) contribute 0 Hz — their
    rate is unknowable from this recipe alone.
    """
    stream_rates: dict[str, float] = {}
    result: dict[str, TaskRates] = {}
    for task_id in recipe.topological_order:
        task = recipe.tasks[task_id]
        cls = operator_class(task.operator)
        in_rates = [
            stream_rates.get(stream, 0.0)
            for stream in task.inputs
            if ":" not in stream
        ]
        emit = cls.emit_rate(task, in_rates)
        # A device sampler's arrival rate is its own sampling rate.
        ingest = emit if cls.samples_device else sum(in_rates)
        result[task_id] = TaskRates(ingest_hz=ingest, emit_hz=emit)
        for stream in task.outputs:
            stream_rates[stream] = emit
    return result


def subtask_demand(
    task: TaskSpec,
    rates: TaskRates,
    cost_model: CostModel,
    record_bytes: int = DEFAULT_RECORD_BYTES,
) -> tuple[tuple[str, float], ...]:
    """CPU-seconds per second one shard of ``task`` demands of the module
    hosting it, as ``(op, load)`` terms: the operator's own ``cost_op``
    first, then the middleware's — ``mqtt.recv`` per ingested and
    ``mqtt.send`` per emitted record. The one place rates meet costs;
    every placement decision and every utilization check reads it.

    A shard processes and emits ``1/parallelism`` of the samples but still
    receives the whole stream (the shard filter runs after ``mqtt.recv``).
    """

    def cost(op: str) -> float:
        return cost_model.steady_cost(op, record_bytes) or 0.0

    shards = max(1, task.parallelism)
    op = operator_class(task.operator).cost_op
    demand_hz = rates.ingest_hz if task.inputs else rates.emit_hz
    recv_hz = rates.ingest_hz if task.inputs else 0.0
    send_hz = rates.emit_hz / shards * len(task.outputs)
    return (
        (op, demand_hz / shards * cost(op)),
        ("mqtt.recv", recv_hz * cost("mqtt.recv")),
        ("mqtt.send", send_hz * cost("mqtt.send")),
    )


def placement_demand(
    recipe: Recipe,
    subtasks: "Iterable[SubTask]",
    cost_model: CostModel,
    record_bytes: int = DEFAULT_RECORD_BYTES,
) -> dict[str, float]:
    """Sub-task id -> total :func:`subtask_demand` (CPU-s/s on its host)."""
    rates = propagate_rates(recipe)
    demand: dict[str, float] = {}
    for subtask in subtasks:
        task, task_rates = recipe.tasks[subtask.task_id], rates[subtask.task_id]
        terms = subtask_demand(task, task_rates, cost_model, record_bytes)
        demand[subtask.subtask_id] = sum(load for _op, load in terms)
    return demand


def module_demand(
    demand: Mapping[str, float], placements: Mapping[str, str]
) -> dict[str, float]:
    """Module -> predicted utilization: ``demand`` summed over ``placements``."""
    load: dict[str, float] = {}
    for subtask_id, module in placements.items():
        load[module] = load.get(module, 0.0) + demand.get(subtask_id, 0.0)
    return load


def task_utilization(
    task: TaskSpec,
    rates: TaskRates,
    cost_model: CostModel,
    record_bytes: int = DEFAULT_RECORD_BYTES,
) -> float:
    """The operator term of :func:`subtask_demand` alone, per shard: what
    the per-task rule ("no single task exceeds one core") judges."""
    return subtask_demand(task, rates, cost_model, record_bytes)[0][1]
