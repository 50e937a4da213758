"""Static rate propagation and CPU feasibility (paper §IV-C pre-check).

A recipe declares its ingest rates (``rate_hz`` on sensor tasks); every
operator transforms rates in a statically known way (a ``map`` passes its
input rate through, an align ``window`` emits at the slowest source's
rate, a ``throttle`` caps at ``1/interval_s`` ...). Propagating rates down
the task graph gives each task's processing demand in records/second;
multiplying by the per-record service time of the operator's CPU
operation (the same :class:`~repro.runtime.costs.CostModel` the simulator
charges) gives CPU-seconds-per-second — utilization. A task or module
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

from repro.core.recipe import Recipe, TaskSpec
from repro.runtime.costs import CostModel, OpCost

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

#: CPU operation charged per record, by operator name (mirrors each
#: operator class's ``cost_op``). Unknown operators fall back to the
#: generic stream-processing cost.
COST_OP_BY_OPERATOR: dict[str, str] = {
    "sensor": "sensor.sample",
    "actuator": "actuator.apply",
    "train": "ml.train",
    "predict": "ml.predict",
    "mix": "ml.mix",
}
_DEFAULT_COST_OP = "flow.process"


def default_cost_model() -> CostModel:
    """Pi-class service times (the paper's calibrated model).

    Falls back to a small built-in table if the calibration module is
    unavailable, so the checker never needs the bench package to work.
    """
    try:
        from repro.bench.calibration import pi_cost_model
    except Exception:  # pragma: no cover - calibration ships with the repo
        model = CostModel()
        model.define("sensor.sample", OpCost(base_s=2.5e-3))
        model.define("actuator.apply", OpCost(base_s=2.0e-3))
        model.define("flow.process", OpCost(base_s=1.6e-3))
        model.define("ml.train", OpCost(base_s=28.0e-3))
        model.define("ml.predict", OpCost(base_s=18.0e-3))
        model.define("ml.mix", OpCost(base_s=8.0e-3))
        return model
    return pi_cost_model()


@dataclass(frozen=True)
class TaskRates:
    """Statically derived rates for one task."""

    ingest_hz: float  # records/second arriving at the task
    emit_hz: float  # records/second published per output stream


def _emit_rate(task: TaskSpec, ingest_hz: float) -> float:
    operator = task.operator
    params = task.params
    if operator == "sensor":
        return float(params.get("rate_hz", 1.0))
    if operator == "window":
        mode = str(params.get("mode", "align"))
        if mode == "align":
            return ingest_hz  # one emission per complete source round
        if mode == "count":
            count = max(1, int(params.get("count", 1)))
            return ingest_hz / count
        interval = float(params.get("interval_s", 0.0))
        return min(ingest_hz, 1.0 / interval) if interval > 0 else ingest_hz
    if operator == "throttle":
        interval = float(params.get("interval_s", 0.0))
        return min(ingest_hz, 1.0 / interval) if interval > 0 else ingest_hz
    if operator == "train":
        return 0.0 if not task.outputs else ingest_hz
    # merge emits per arrival; map/filter/stat/predict/... at most pass
    # through. Worst case: everything passes.
    return ingest_hz


def propagate_rates(recipe: Recipe) -> dict[str, TaskRates]:
    """Derive per-task ingest/emit rates from declared sensor rates.

    External inputs (``app:stream`` references) contribute 0 Hz — their
    rate is unknowable from this recipe alone.
    """
    stream_rates: dict[str, float] = {}
    result: dict[str, TaskRates] = {}
    for task_id in recipe.topological_order:
        task = recipe.tasks[task_id]
        if task.operator == "window" and str(task.params.get("mode", "align")) == "align":
            # An align round completes when the slowest source reports:
            # the window ingests every stream but emits at the slowest
            # source's rate.
            in_rates = [
                stream_rates.get(stream, 0.0)
                for stream in task.inputs
                if ":" not in stream
            ]
            ingest = sum(in_rates)
            positive = [rate for rate in in_rates if rate > 0]
            emit = min(positive) if positive else 0.0
        else:
            ingest = sum(
                stream_rates.get(stream, 0.0)
                for stream in task.inputs
                if ":" not in stream
            )
            emit = _emit_rate(task, ingest)
        if task.operator == "sensor":
            ingest = float(task.params.get("rate_hz", 1.0))
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
    op = COST_OP_BY_OPERATOR.get(task.operator, _DEFAULT_COST_OP)
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
