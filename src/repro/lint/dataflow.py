"""Interprocedural dataflow analysis: state soundness, payload schemas,
cost-model drift.

Three passes share the :class:`~repro.util.validate.Diagnostic` currency
of the per-file linter but reason across files / across the task graph:

**State-declaration soundness (SAN020/SAN021)** — walks the
:mod:`repro.lint.callgraph` to find instance-attribute mutations that are
reachable from scheduled handlers yet invisible to the dynamic schedule
sanitizer (no ``tracked_state`` cell covers them). SAN findings honor
``# repro: san-ok[...]`` suppressions *only* — a ``lint-ok`` marker on
the same line keeps suppressing AST-rule findings but never a SAN one
(and vice versa), so each tool's suppression budget stays auditable.

**Recipe payload dataflow (RCP200–RCP212)** — abstract-interprets a
recipe's task graph over per-stream payload *schemas* (which datum /
attribute keys a record on the stream may carry). Sensor tasks seed the
lattice from their device's ``channel_keys()``; every operator transforms
it through its class's ``payload_effect()``. On top of the schemas an
at-least-once *taint* tracks where QoS 1 redelivery can duplicate
records, which is what makes RCP210 (duplicates into a non-idempotent
stateful operator) checkable statically.

**Cost-model drift (RCP230/RCP231)** — holds the per-operation busy
accounting of a profiled run against the calibrated cost model's static
price at the assumed record size. The simulator charges CPU from that
model, so the two agree to within the approximation of assumed record
bytes and warm-up amortization; an op whose simulated mean strays beyond
tolerance (a per-byte term priced at the wrong size, an execute path that
charges more than the op) trips the gate. The SLO engine's online drift
watch (SLO310) runs the same :func:`cost_drift` while a scenario runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping, NamedTuple

from repro.core.operators import StreamOperator, operator_class
from repro.core.recipe import Recipe
from repro.lint.callgraph import INIT_METHODS, build_callgraph
from repro.lint.engine import LintRun
from repro.lint.rates import DEFAULT_RECORD_BYTES, default_cost_model
from repro.lint.suppress import parse_suppressions
from repro.runtime.costs import CostModel
from repro.san.rules import SAN_RULES
from repro.util.validate import Diagnostic, Rule, Severity

__all__ = [
    "DATAFLOW_RULES",
    "StreamSchema",
    "analyze_state_soundness",
    "check_recipe_payloads",
    "check_cost_drift",
    "cost_drift",
    "propagate_schemas",
]


#: The recipe-payload / drift rule catalog (RCP2xx), for ``--catalog``
#: and the docs. SAN020/SAN021 live in :data:`repro.san.rules.SAN_RULES`.
DATAFLOW_RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule(
            "RCP200",
            Severity.ERROR,
            "task reads a payload key no upstream producer can supply",
        ),
        Rule(
            "RCP201",
            Severity.INFO,
            "merge/window key collision: several inputs carry the same key "
            "(documented latest-wins resolution applies)",
        ),
        Rule(
            "RCP202",
            Severity.WARNING,
            "rename target overwrites a key the input already carries",
        ),
        Rule(
            "RCP210",
            Severity.ERROR,
            "at-least-once (QoS 1) delivery feeds a non-idempotent stateful "
            "operator with no dedup on the path",
        ),
        Rule(
            "RCP211",
            Severity.INFO,
            "inert dedup: no at-least-once hop upstream can duplicate "
            "records",
        ),
        Rule(
            "RCP212",
            Severity.WARNING,
            "dedup downstream of a merging operator: merged emissions share "
            "the oldest contributor's sample_id, so dedup drops legitimate "
            "records",
        ),
        Rule(
            "RCP230",
            Severity.ERROR,
            "cost-model drift: a profiled run's per-op busy mean departs "
            "from the calibrated cost model's price beyond tolerance",
        ),
        Rule(
            "RCP231",
            Severity.WARNING,
            "a profiled run charges a CPU op the calibrated cost model does "
            "not define",
        ),
    )
}


# ---------------------------------------------------------------------------
# Pass 1: state-declaration soundness (SAN020 / SAN021)
# ---------------------------------------------------------------------------


def analyze_state_soundness(paths: Iterable[str]) -> LintRun:
    """Report schedule-reachable mutations the sanitizer cannot see.

    Suppression routing is by rule family: SAN findings consult the
    ``# repro: san-ok[...]`` marker only, never ``lint-ok``.
    """
    graph = build_callgraph(paths)
    run = LintRun(files_checked=len(graph.sources))
    reachable = graph.reachable()
    covered = graph.covered()
    suppressions = {
        filename: parse_suppressions(source, marker="san-ok")
        for filename, source in graph.sources.items()
    }
    for method in graph.methods:
        if method.cls is None or method.name in INIT_METHODS:
            continue
        if method.key not in reachable:
            continue
        cells = graph.family_cells(method.cls)
        if cells:
            # A declared cell can cover the mutation — skip methods whose
            # instance-scoped call component touches one.
            if method.key in covered:
                continue
            rule = SAN_RULES["SAN021"]
        else:
            # No cell exists, so nothing can cover the mutation. Scope to
            # the component tree: plain helper/value classes (stats
            # accumulators, metric counters, the kernel's own internals)
            # sit beneath the sanitizer's abstraction — their state is
            # attributable to the component driving them.
            lineage = {method.cls.name} | graph.ancestors(method.cls.name)
            if "Component" not in lineage:
                continue
            rule = SAN_RULES["SAN020"]
        for mutation in method.mutations:
            if mutation.attr in cells:
                # Mutating the cell attribute itself (e.g. rebinding) is
                # the declaration's business, not undeclared state.
                continue
            diag = rule.diagnostic(
                where="",
                message=(
                    f"{method.qualname} is schedule-reachable but mutates "
                    f"untracked state: {mutation.desc}"
                ),
                file=method.file,
                line=mutation.line,
                col=mutation.col,
            )
            if suppressions[method.file].is_suppressed(diag.rule, diag.line):
                run.suppressed += 1
            else:
                run.diagnostics.append(diag)
    return run.finish()


# ---------------------------------------------------------------------------
# Pass 2: recipe payload dataflow (RCP200 – RCP212)
# ---------------------------------------------------------------------------


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


def _operator_effect(operator: str, params: dict[str, Any]):
    """The operator class's PayloadEffect, or ``None`` for unknown/opaque."""
    cls = operator_class(operator)
    if cls is StreamOperator:
        return None  # unregistered (RCP106): nothing is known of its payload
    try:
        return cls.payload_effect(dict(params))
    except Exception:
        return None  # an effect that cannot be computed is opaque


def _task_qos(task) -> int:
    try:
        return int(task.params.get("qos", 0))
    except (TypeError, ValueError):
        return 0


@dataclass(frozen=True)
class _TaskStep:
    """One task's view during the lattice walk."""

    task: Any
    inputs: list[StreamSchema]
    merged: StreamSchema
    effect: Any
    out: StreamSchema


def _walk_schemas(
    recipe: Recipe, device_keys: Mapping[str, Iterable[str]] | None
):
    """Single source of truth for the lattice walk (topological order)."""
    known_devices = {k: frozenset(v) for k, v in (device_keys or {}).items()}
    schemas: dict[str, StreamSchema] = {}
    for task_id in recipe.topological_order:
        task = recipe.tasks[task_id]
        qos = _task_qos(task)
        inputs = [
            schemas.get(stream, _OPEN) if ":" not in stream
            else replace(_OPEN, tainted=qos >= 1)
            for stream in task.inputs
        ]
        merged = _merge_schemas(inputs)
        for stream in task.inputs:
            if ":" in stream:
                continue
            if schemas.get(stream, _OPEN).dedup_guard:
                continue
            producer = recipe.tasks[recipe.producer_of(stream)]
            if min(_task_qos(producer), qos) >= 1:
                merged = replace(merged, tainted=True)
        effect = _operator_effect(task.operator, task.params)
        if operator_class(task.operator).samples_device:
            device = str(task.params.get("device", ""))
            keys = known_devices.get(device)
            out = (
                StreamSchema(datum=keys)
                if keys is not None
                else replace(_OPEN, tainted=False)
            )
        elif effect is None or effect.opaque:
            out = replace(_OPEN, tainted=merged.tainted, dedup_guard=merged.dedup_guard)
        else:
            out = _apply_effect(merged, effect)
        if effect is not None and effect.dedups:
            out = replace(out, tainted=False, dedup_guard=True)
        for stream in task.outputs:
            schemas[stream] = out
        yield _TaskStep(
            task=task, inputs=inputs, merged=merged, effect=effect, out=out
        ), schemas


def propagate_schemas(
    recipe: Recipe, device_keys: Mapping[str, Iterable[str]] | None = None
) -> dict[str, StreamSchema]:
    """Abstract-interpret the task graph; returns schema per stream.

    ``device_keys`` maps sensor device names to their channel keys (see
    :meth:`repro.scenario.Scenario.device_keys`); sensors whose
    device is absent from the map seed an open schema.
    """
    schemas: dict[str, StreamSchema] = {}
    for _step, schemas in _walk_schemas(recipe, device_keys):
        pass
    return dict(schemas)


def _merge_schemas(inputs: list[StreamSchema]) -> StreamSchema:
    if not inputs:
        return StreamSchema()
    datum: set[str] = set()
    attrs: set[str] = set()
    open_datum = open_attrs = tainted = False
    guarded = True
    for schema in inputs:
        datum |= schema.datum
        attrs |= schema.attrs
        open_datum |= schema.open_datum
        open_attrs |= schema.open_attrs
        tainted |= schema.tainted
        guarded &= schema.dedup_guard
    return StreamSchema(
        datum=frozenset(datum),
        attrs=frozenset(attrs),
        open_datum=open_datum,
        open_attrs=open_attrs,
        tainted=tainted,
        dedup_guard=guarded,
    )


def _apply_effect(merged: StreamSchema, effect) -> StreamSchema:
    datum = set(merged.datum)
    attrs = set(merged.attrs)
    open_datum = merged.open_datum
    if effect.select is not None:
        datum = set(effect.select)
        open_datum = False
    for old, new in effect.renames:
        datum.discard(old)
        datum.add(new)
    datum |= set(effect.adds)
    attrs |= set(effect.adds_attrs)
    return StreamSchema(
        datum=frozenset(datum),
        attrs=frozenset(attrs),
        open_datum=open_datum,
        open_attrs=merged.open_attrs,
        tainted=merged.tainted,
        dedup_guard=merged.dedup_guard,
    )


def check_recipe_payloads(
    recipe: Recipe, device_keys: Mapping[str, Iterable[str]] | None = None
) -> list[Diagnostic]:
    """RCP200–RCP212: payload-key and at-least-once semantics checks."""
    diagnostics: list[Diagnostic] = []
    for step, _schemas in _walk_schemas(recipe, device_keys):
        task, merged, effect = step.task, step.merged, step.effect
        where = f"{recipe.name}:task {task.task_id}"
        if effect is not None:
            diagnostics += _check_reads(where, task, merged, effect)
            diagnostics += _check_renames(where, merged, effect)
            if effect.merges_inputs and len(task.inputs) > 1:
                diagnostics += _check_collisions(where, task, step.inputs)
            if effect.dedups:
                diagnostics += _check_dedup(where, task, recipe, merged)
        cls = operator_class(task.operator)
        if merged.tainted and not cls.redelivery_safe(task.params):
            diagnostics.append(
                DATAFLOW_RULES["RCP210"].diagnostic(
                    where,
                    f"QoS 1 at-least-once delivery reaches non-idempotent "
                    f"stateful operator {task.operator!r} with no dedup "
                    "on the path — a redelivered record re-enters its "
                    "state",
                    hint=(
                        "insert a dedup task upstream (the failover recipe "
                        "does exactly this), or drop to QoS 0 if loss is "
                        "acceptable"
                    ),
                )
            )
    return diagnostics


def _check_reads(
    where: str, task, merged: StreamSchema, effect
) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []

    def missing_datum(key: str) -> bool:
        return key not in merged.datum and not merged.open_datum

    def missing_attr(key: str) -> bool:
        return key not in merged.attrs and not merged.open_attrs

    rule = DATAFLOW_RULES["RCP200"]
    for key in effect.reads:
        if missing_datum(key):
            diagnostics.append(
                rule.diagnostic(
                    message=(
                        f"{task.operator!r} reads datum key {key!r} which no "
                        f"upstream producer supplies (available: "
                        f"{sorted(merged.datum)})"
                    ),
                    where=where,
                    hint="fix the key name or the upstream pipeline",
                )
            )
    for key in effect.reads_attrs:
        if missing_attr(key):
            diagnostics.append(
                rule.diagnostic(
                    message=(
                        f"{task.operator!r} reads attribute {key!r} which no "
                        f"upstream producer supplies (available: "
                        f"{sorted(merged.attrs)})"
                    ),
                    where=where,
                    hint="fix the key name or the upstream pipeline",
                )
            )
    for key in effect.reads_any:
        if missing_attr(key) and missing_datum(key):
            diagnostics.append(
                rule.diagnostic(
                    message=(
                        f"{task.operator!r} reads key {key!r} which appears "
                        "in neither upstream datum keys "
                        f"{sorted(merged.datum)} nor attributes "
                        f"{sorted(merged.attrs)}"
                    ),
                    where=where,
                    hint="fix the key name or the upstream pipeline",
                )
            )
    return diagnostics


def _check_renames(where: str, merged: StreamSchema, effect) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    rule = DATAFLOW_RULES["RCP202"]
    renamed_away = {old for old, _new in effect.renames}
    for old, new in effect.renames:
        if new in merged.datum and new not in renamed_away:
            diagnostics.append(
                rule.diagnostic(
                    message=(
                        f"rename {old!r} -> {new!r} overwrites key {new!r} "
                        "the input already carries"
                    ),
                    where=where,
                    hint="pick a fresh target key or drop the original first",
                )
            )
    return diagnostics


def _check_collisions(
    where: str, task, inputs: list[StreamSchema]
) -> list[Diagnostic]:
    datum_owners: dict[str, list[str]] = {}
    attr_owners: dict[str, list[str]] = {}
    for stream, schema in zip(task.inputs, inputs):
        for key in schema.datum:
            datum_owners.setdefault(key, []).append(stream)
        for key in schema.attrs:
            attr_owners.setdefault(key, []).append(stream)
    collisions = sorted(
        key for key, owners in datum_owners.items() if len(set(owners)) > 1
    )
    attr_collisions = sorted(
        key for key, owners in attr_owners.items() if len(set(owners)) > 1
    )
    if not collisions and not attr_collisions:
        return []
    parts = []
    if collisions:
        parts.append(f"datum keys {collisions}")
    if attr_collisions:
        parts.append(f"attributes {attr_collisions}")
    rule = DATAFLOW_RULES["RCP201"]
    return [
        rule.diagnostic(
            message=(
                f"{task.operator!r} combines inputs that each carry "
                + " and ".join(parts)
                + " — later input wins (documented merge semantics)"
            ),
            where=where,
            hint="rename upstream keys if both values must survive",
        )
    ]


def _check_dedup(
    where: str, task, recipe: Recipe, merged: StreamSchema
) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    if not merged.tainted:
        rule = DATAFLOW_RULES["RCP211"]
        diagnostics.append(
            rule.diagnostic(
                message=(
                    "dedup has no at-least-once hop upstream: nothing can "
                    "duplicate records here"
                ),
                where=where,
                hint="drop the task or raise the upstream qos to 1",
            )
        )
    for stream in task.inputs:
        if ":" in stream:
            continue
        producer = recipe.tasks[recipe.producer_of(stream)]
        effect = _operator_effect(producer.operator, producer.params)
        if effect is not None and effect.merges_inputs:
            rule = DATAFLOW_RULES["RCP212"]
            diagnostics.append(
                rule.diagnostic(
                    message=(
                        f"dedup consumes {stream!r} from merging operator "
                        f"{producer.operator!r} ({producer.task_id}): merged "
                        "records keep the oldest contributor's sample_id, so "
                        "successive emissions collide and get dropped"
                    ),
                    where=where,
                    hint="dedup before the merge, not after it",
                )
            )
    return diagnostics


# ---------------------------------------------------------------------------
# Pass 3: cost-model drift gate (RCP230 / RCP231)
# ---------------------------------------------------------------------------

#: Relative drift between an op's observed busy mean and the model's
#: prediction before RCP230 (and SLO310) fire. The slack absorbs the two
#: knowingly-approximate terms: per-byte costs are predicted at
#: DEFAULT_RECORD_BYTES (actual payloads vary) and warm-up surcharges are
#: amortized over the observed invocation count.
DRIFT_TOLERANCE = 0.25

#: Ops invoked fewer times than this are skipped — their mean is
#: dominated by warm-up and startup noise.
DRIFT_MIN_COUNT = 20


class Drift(NamedTuple):
    """One op's observed mean busy time against the model's price."""

    observed_s: float
    #: Both ``None`` when the model does not define the op.
    predicted_s: float | None
    drift: float | None


def cost_drift(model: CostModel, op: str, busy_s: float, count: int) -> Drift | None:
    """The drift of ``op``'s mean over ``count`` invocations totalling
    ``busy_s`` of CPU, or ``None`` when there is nothing to report: the op
    ran fewer than ``DRIFT_MIN_COUNT`` times, is priced at zero, or stays
    within ``DRIFT_TOLERANCE``.

    The price is the steady-state cost at the assumed record size plus the
    warm-up surcharge amortized over the run (the observed busy total
    includes the warm-up invocations).
    """
    if count < DRIFT_MIN_COUNT:
        return None
    observed = busy_s / count
    predicted = model.mean_cost(op, DEFAULT_RECORD_BYTES, count)
    if predicted is None:
        return Drift(observed, None, None)
    if predicted <= 0.0:
        return None
    drift = observed / predicted - 1.0
    return Drift(observed, predicted, drift) if abs(drift) > DRIFT_TOLERANCE else None


def check_cost_drift(
    op_busy: Mapping[str, tuple[float, int]],
    cost_model: CostModel | None = None,
    source: str = "<run>",
) -> list[Diagnostic]:
    """RCP230/RCP231: hold a profiled run's per-op CPU accounting
    (``Profiler.cpu_busy_by_op()``: ``op -> (busy_s, count)``) against the
    cost model (default: the calibrated one)."""
    model = cost_model if cost_model is not None else default_cost_model()
    diagnostics: list[Diagnostic] = []
    for op in sorted(op_busy):
        busy_s, count = op_busy[op]
        finding = cost_drift(model, op, busy_s, count)
        if finding is None:
            continue
        where = f"op {op} ({source})"
        if finding.predicted_s is None or finding.drift is None:
            diagnostics.append(
                DATAFLOW_RULES["RCP231"].diagnostic(
                    message=(
                        f"the run charges {count} invocations of {op!r} but "
                        "the current cost model does not define it"
                    ),
                    where=where,
                    hint="add the op to the calibrated model",
                )
            )
            continue
        diagnostics.append(
            DATAFLOW_RULES["RCP230"].diagnostic(
                message=(
                    f"cost-model drift {finding.drift:+.0%}: observed mean "
                    f"{finding.observed_s * 1e3:.3f} ms/op vs current model "
                    f"{finding.predicted_s * 1e3:.3f} ms/op "
                    f"(tolerance ±{DRIFT_TOLERANCE:.0%}, {count} invocations)"
                ),
                where=where,
                hint=(
                    "recalibrate the op (or the record size it is priced "
                    "at) and revisit RCP110/RCP111 feasibility thresholds"
                ),
            )
        )
    return diagnostics
