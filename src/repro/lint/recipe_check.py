"""Static recipe checking: validate task graphs before deployment.

The paper deploys a Recipe by splitting it (``RecipeSplit``) and assigning
sub-tasks to modules (``TaskAssignment``, §IV-C-1). Both assume the graph
is well-formed; this module verifies that *statically*, reporting
:class:`~repro.util.validate.Diagnostic` findings instead of failing at
simulation time:

``RCP100``  task spec malformed (bad id, bad parallelism, unknown field,
            bad operator param)
``RCP101``  duplicate task id
``RCP102``  stream produced by more than one task
``RCP103``  consumed stream that nothing produces / malformed external ref
``RCP104``  dependency cycle
``RCP105``  stream produced but never consumed (cross-app use is fine)
``RCP106``  operator not in the registry
``RCP107``  subscriber QoS exceeds publisher QoS on a stream
``RCP108``  port shape: sources with inputs, processors without inputs
``RCP109``  stateful operator sharded (split→merge chain hazard)
``RCP110``  statically unschedulable: utilization exceeds capacity
``RCP111``  near capacity (utilization above the warning threshold)

``check_recipe_dict`` works on the raw JSON/DSL dict so it can report
every problem (cycles, duplicates), where :class:`~repro.core.recipe.Recipe`'s
constructor raises on the first. RCP102–RCP105 come from the one graph
pass, :func:`~repro.core.recipe.graph_problems`, that the constructor also
runs. ``check_recipe`` accepts a constructed Recipe.
``check_rate_feasibility`` judges each task's operator load on the
recipe model's one walk (:func:`~repro.lint.rates.walk`);
``check_module_loads`` sums a concrete placement's full demand per module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.operators import operator_class, registered_operators
from repro.core.recipe import Recipe, TaskSpec, graph_problems
from repro.core.splitter import SubTask
from repro.errors import RecipeError
from repro.lint.rates import (
    default_cost_model,
    module_demand,
    operator_load,
    placement_demand,
    walk,
)
from repro.runtime.costs import CostModel
from repro.util.validate import Diagnostic, Rule, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.assignment import Assignment, ModuleInfo

__all__ = [
    "RECIPE_RULES",
    "check_recipe",
    "check_recipe_dict",
    "check_rate_feasibility",
    "check_module_loads",
]


#: The recipe-checker rule catalog (RCP1xx). Severity is the *default*:
#: RCP108 downgrades to a warning for sink-like processors with outputs.
RECIPE_RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule(
            "RCP100",
            Severity.ERROR,
            "task spec malformed (bad id, bad parallelism, unknown field, "
            "bad operator param)",
        ),
        Rule("RCP101", Severity.ERROR, "duplicate task id"),
        Rule(
            "RCP102", Severity.ERROR, "stream produced by more than one task"
        ),
        Rule(
            "RCP103",
            Severity.ERROR,
            "consumed stream that nothing produces / malformed external "
            "reference",
        ),
        Rule("RCP104", Severity.ERROR, "dependency cycle"),
        Rule(
            "RCP105",
            Severity.WARNING,
            "stream produced but never consumed (cross-app use is fine)",
        ),
        Rule("RCP106", Severity.ERROR, "operator not in the registry"),
        Rule(
            "RCP107",
            Severity.WARNING,
            "subscriber QoS exceeds publisher QoS on a stream",
        ),
        Rule(
            "RCP108",
            Severity.ERROR,
            "port shape: sources with inputs, processors without inputs",
        ),
        Rule(
            "RCP109",
            Severity.WARNING,
            "stateful operator sharded (split-merge chain hazard)",
        ),
        Rule(
            "RCP110",
            Severity.ERROR,
            "statically unschedulable: utilization exceeds capacity",
        ),
        Rule(
            "RCP111",
            Severity.WARNING,
            "near capacity (utilization above the warning threshold)",
        ),
    )
}

#: Utilization fraction of capacity above which RCP111 warns.
SOFT_UTILIZATION = 0.8


def check_recipe(recipe: Recipe) -> list[Diagnostic]:
    """Structural checks for an already-constructed (hence DAG) recipe:
    of the graph pass, only its RCP105 findings can come back."""
    tasks = [recipe.tasks[task_id] for task_id in recipe.topological_order]
    return _check_tasks(recipe.name, tasks)


def check_recipe_dict(data: dict[str, Any]) -> list[Diagnostic]:
    """Structural checks on a raw recipe dict (JSON DSL form).

    Unlike ``Recipe.from_dict`` this never raises on graph problems — it
    reports every finding, so a cyclic or dangling recipe yields
    diagnostics rather than an exception.
    """
    diagnostics: list[Diagnostic] = []
    if not isinstance(data, dict) or "recipe" not in data or "tasks" not in data:
        diagnostics.append(
            RECIPE_RULES["RCP100"].diagnostic(
                "<recipe>",
                "recipe dict needs 'recipe' (name) and 'tasks'",
            )
        )
        return diagnostics
    name = str(data.get("recipe", ""))
    tasks: list[TaskSpec] = []
    seen_ids: set[str] = set()
    for index, entry in enumerate(data.get("tasks", [])):
        where = f"{name}:tasks[{index}]"
        try:
            task = TaskSpec.from_dict(entry)
        except (RecipeError, TypeError, ValueError) as exc:
            diagnostics.append(
                RECIPE_RULES["RCP100"].diagnostic(where, f"malformed task: {exc}")
            )
            continue
        if task.task_id in seen_ids:
            diagnostics.append(
                RECIPE_RULES["RCP101"].diagnostic(
                    f"{name}:task {task.task_id}",
                    f"duplicate task id {task.task_id!r}",
                    hint="task ids must be recipe-unique",
                )
            )
            continue
        seen_ids.add(task.task_id)
        tasks.append(task)
    if not tasks:
        diagnostics.append(
            RECIPE_RULES["RCP100"].diagnostic(name or "<recipe>", "recipe has no tasks")
        )
        return diagnostics
    return diagnostics + _check_tasks(name, tasks)


def _check_tasks(name: str, tasks: list[TaskSpec]) -> list[Diagnostic]:
    """The graph pass's problems as findings, then operator params
    (RCP100) and RCP106–RCP109."""
    producers, _order, problems = graph_problems(tasks)
    diagnostics = [
        RECIPE_RULES[rule].diagnostic(f"{name}:{subject}", message, hint=hint)
        for rule, subject, message, hint in problems
    ]
    return (
        diagnostics
        + _check_operators(name, tasks)
        + _check_qos(name, tasks, producers)
        + _check_ports(name, tasks)
    )


def _check_operators(name: str, tasks: list[TaskSpec]) -> list[Diagnostic]:
    """RCP106 per unregistered operator, then RCP100 per param a registered
    class's ``settings`` rejects — what deploying the task would fail on."""
    known = registered_operators()
    diagnostics = [
        RECIPE_RULES["RCP106"].diagnostic(
            f"{name}:task {task.task_id}",
            f"unknown operator {task.operator!r}",
            hint=f"registered: {known}",
        )
        for task in tasks
        if task.operator not in known
    ]
    for task in tasks:
        try:
            operator_class(task.operator).settings(task.params)
        except RecipeError as exc:
            where = f"{name}:task {task.task_id}"
            message = f"task {task.task_id!r} ({task.operator}): {exc}"
            diagnostics.append(RECIPE_RULES["RCP100"].diagnostic(where, message))
    return diagnostics


def _check_qos(
    name: str, tasks: list[TaskSpec], producers: dict[str, str]
) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    qos_of = {task.task_id: int(task.params.get("qos", 0)) for task in tasks}
    for task in tasks:
        qos = qos_of[task.task_id]
        for stream in task.inputs:
            if ":" in stream or stream not in producers:
                continue
            producer = producers[stream]
            pub_qos = qos_of[producer]
            if qos > pub_qos:
                diagnostics.append(
                    RECIPE_RULES["RCP107"].diagnostic(
                        f"{name}:task {task.task_id}",
                        f"subscribes to {stream!r} at QoS {qos} but producer "
                        f"{producer!r} publishes at QoS {pub_qos}",
                        hint="at-least-once needs QoS 1 end to end; raise the "
                        "producer's qos param",
                    )
                )
    return diagnostics


def _check_ports(name: str, tasks: list[TaskSpec]) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    known = registered_operators()
    for task in tasks:
        where = f"{name}:task {task.task_id}"
        if task.operator not in known:
            continue  # already RCP106
        cls = operator_class(task.operator)
        if cls.samples_device:
            if task.inputs:
                diagnostics.append(
                    RECIPE_RULES["RCP108"].diagnostic(
                        where,
                        "sensor tasks sample a device; they cannot consume "
                        f"streams (got inputs {task.inputs})",
                    )
                )
            if not task.outputs:
                diagnostics.append(
                    RECIPE_RULES["RCP108"].diagnostic(
                        where,
                        "sensor task publishes nothing (no outputs)",
                        severity=Severity.WARNING,
                    )
                )
        elif not cls.source and not task.inputs:
            diagnostics.append(
                RECIPE_RULES["RCP108"].diagnostic(
                    where,
                    f"{task.operator!r} task consumes no stream — it will "
                    "never fire",
                    hint="only sensor/mix tasks are valid sources",
                )
            )
        if task.parallelism > 1 and cls.stateful:
            diagnostics.append(
                RECIPE_RULES["RCP109"].diagnostic(
                    where,
                    f"stateful operator {task.operator!r} sharded x"
                    f"{task.parallelism}: each shard keeps independent state "
                    "over its hash-slice of samples",
                    hint="shard stateless stages; keep stateful ones x1 (or "
                    "coordinate via mix)",
                )
            )
    return diagnostics


# ---------------------------------------------------------------------------
# Rate feasibility (CPU service-time model)
# ---------------------------------------------------------------------------


def check_rate_feasibility(recipe: Recipe) -> list[Diagnostic]:
    """Flag statically unschedulable rates: no task's operator load
    (:func:`~repro.lint.rates.operator_load`, per shard, under the
    calibrated model) may alone exceed a unit-capacity module."""
    model = default_cost_model()
    diagnostics: list[Diagnostic] = []
    for task_id, facts in walk(recipe).items():
        util = operator_load(facts, model)
        where = f"{recipe.name}:task {task_id}"
        detail = (
            f"demands {util:.2f} CPU-s/s per shard "
            f"({facts.ingest_hz:g} Hz ingest)"
        )
        if util > 1.0:
            diagnostics.append(
                RECIPE_RULES["RCP110"].diagnostic(
                    where,
                    f"statically unschedulable: {detail} on a unit-capacity "
                    "module",
                    hint="lower the sensing rate, widen windows, or shard "
                    "the stage",
                )
            )
        elif util > SOFT_UTILIZATION:
            diagnostics.append(
                RECIPE_RULES["RCP111"].diagnostic(
                    where,
                    f"near capacity: {detail}",
                    hint="no headroom for warm-up or bursts",
                )
            )
    return diagnostics


def check_module_loads(
    recipe: Recipe,
    subtasks: "list[SubTask]",
    assignment: "Assignment",
    modules: "list[ModuleInfo]",
    cost_model: CostModel,
) -> list[Diagnostic]:
    """The per-module pass: each module's predicted utilization — what its
    sub-tasks' operators *and* the MQTT handling of their records demand
    (:func:`~repro.lint.rates.subtask_demand`) — against its capacity."""
    diagnostics: list[Diagnostic] = []
    capacity = {module.name: module.capacity for module in modules}
    load = module_demand(
        placement_demand(recipe, subtasks, cost_model),
        assignment.placements,
    )
    for module_name in sorted(load):
        total = load[module_name]
        cap = capacity.get(module_name, 1.0)
        where = f"{recipe.name}:module {module_name}"
        if total >= cap:
            diagnostics.append(
                RECIPE_RULES["RCP110"].diagnostic(
                    where,
                    f"statically unschedulable: assigned tasks demand "
                    f"{total:.2f} CPU-s/s against capacity {cap:g}",
                    hint="add modules, raise capacity, or lower rates",
                )
            )
        elif total > SOFT_UTILIZATION * cap:
            diagnostics.append(
                RECIPE_RULES["RCP111"].diagnostic(
                    where,
                    f"near capacity: assigned load {total:.2f} of {cap:g}",
                )
            )
    return diagnostics
