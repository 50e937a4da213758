"""Recipes: declarative task graphs for flow processing (paper Fig. 5).

A *recipe* is "a configuration file describing a processing procedure of
IoT data streams ... described as a task graph" (§IV-C). Here a recipe is a
named set of :class:`TaskSpec` nodes connected by named *streams*: a task
consumes the streams in ``inputs`` and produces those in ``outputs``.
Streams map one-to-one onto MQTT topics at deployment time, which is what
makes every intermediate flow independently subscribable — the paper's
"secondary / tertiary use" of curated streams (§VI).

The paper lists "definition of the language to describe recipes" as future
work; the JSON DSL accepted by :meth:`Recipe.from_dict` /
:meth:`Recipe.from_json` is this repository's concrete proposal.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Any, Collection, Iterable

from repro.errors import RecipeError
from repro.util.validate import require_name

__all__ = ["TaskSpec", "Recipe", "graph_problems", "parse_param", "parse_names", "require_param"]


def parse_param(name: str, value: Any, kind: type = float, positive: bool = False) -> Any:
    """Param ``name``'s ``value`` as a ``kind`` (float, int, tuple, dict), or a
    RecipeError naming it if it does not convert (or is not > 0 where
    ``positive``)."""
    try:
        parsed = kind(value)
    except (TypeError, ValueError):
        raise RecipeError(f"param {name!r}: {value!r} is not a {kind.__name__}") from None
    if positive and not parsed > 0:
        raise RecipeError(f"param {name!r} must be > 0, got {value!r}")
    return parsed


def parse_names(name: str, value: Any) -> tuple[str, ...]:
    """A list param of datum keys (or other names), as strings."""
    return tuple(str(item) for item in parse_param(name, value, tuple))


def require_param(name: str, value: Any) -> Any:
    """The ``value`` of a param that must be given, and not empty."""
    if not value:
        raise RecipeError(f"param {name!r} is required")
    return value


@dataclass
class TaskSpec:
    """One node of the task graph.

    Attributes
    ----------
    task_id:
        Recipe-unique name.
    operator:
        Registry name of the operator to instantiate
        (see :mod:`repro.core.operators`).
    inputs / outputs:
        Stream names consumed / produced.
    params:
        Operator-specific configuration (window sizes, model algorithm...).
    capabilities:
        Capability tags the hosting module must provide (e.g.
        ``sensor:accel`` or ``actuator:light``); used by capability-aware
        assignment.
    parallelism:
        Number of shard instances RecipeSplit should create (data-parallel
        fan-out; 1 = a single instance).
    pin_to:
        Optional module name forcing placement (sensors and actuators are
        usually pinned to the module physically wired to the device).
    deadline_ms:
        Optional end-to-end deadline for records finishing at this task,
        in milliseconds from the sensing instant at the flow's root.
        Declared on sinks; the static latency-bound analyzer
        (:mod:`repro.lint.latency`) rejects recipes whose computed
        worst-case bound exceeds it (RCP240).
    """

    task_id: str
    operator: str
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    params: dict[str, Any] = field(default_factory=dict)
    capabilities: list[str] = field(default_factory=list)
    parallelism: int = 1
    pin_to: str | None = None
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        require_name(self.task_id, "task_id")
        require_name(self.operator, "operator")
        for attr in ("inputs", "outputs", "capabilities"):
            names = getattr(self, attr)
            if not isinstance(names, list) or not all(
                isinstance(name, str) for name in names
            ):
                raise RecipeError(
                    f"task {self.task_id!r}: {attr} must be a list of strings, "
                    f"got {names!r}"
                )
            setattr(self, attr, list(names))
        if not isinstance(self.params, dict):
            raise RecipeError(
                f"task {self.task_id!r}: params must be an object, "
                f"got {self.params!r}"
            )
        self.params = dict(self.params)
        if self.params.get("qos", 0) not in (0, 1):
            raise RecipeError(
                f"task {self.task_id!r}: qos must be 0 or 1, "
                f"got {self.params['qos']!r}"
            )
        if self.parallelism < 1:
            raise RecipeError(
                f"task {self.task_id!r}: parallelism must be >= 1"
            )
        if self.deadline_ms is not None:
            self.deadline_ms = float(self.deadline_ms)
            if not self.deadline_ms > 0:
                raise RecipeError(
                    f"task {self.task_id!r}: deadline_ms must be positive"
                )

    def to_dict(self) -> dict[str, Any]:
        result: dict[str, Any] = {
            "id": self.task_id,
            "operator": self.operator,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "params": dict(self.params),
        }
        if self.capabilities:
            result["capabilities"] = list(self.capabilities)
        if self.parallelism != 1:
            result["parallelism"] = self.parallelism
        if self.pin_to is not None:
            result["pin_to"] = self.pin_to
        if self.deadline_ms is not None:
            result["deadline_ms"] = self.deadline_ms
        return result

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TaskSpec":
        unknown = set(data) - {
            "id", "operator", "inputs", "outputs", "params",
            "capabilities", "parallelism", "pin_to", "deadline_ms",
        }
        if unknown:
            raise RecipeError(f"unknown task fields: {sorted(unknown)}")
        try:
            return cls(
                task_id=data["id"],
                operator=data["operator"],
                inputs=data.get("inputs", []),
                outputs=data.get("outputs", []),
                params=data.get("params", {}),
                capabilities=data.get("capabilities", []),
                parallelism=int(data.get("parallelism", 1)),
                pin_to=data.get("pin_to"),
                deadline_ms=data.get("deadline_ms"),
            )
        except KeyError as exc:
            raise RecipeError(f"task missing required field {exc}") from None


def graph_problems(
    tasks: Collection[TaskSpec],
) -> tuple[dict[str, str], list[str], list[tuple[str, str, str, str]]]:
    """The one well-formedness pass over a task graph (unique task ids).

    Returns ``(producers, order, problems)``: each stream's first
    producer; the tasks no cycle holds back, in dependency order with
    ties broken by id; and every problem as ``(rule, subject, message,
    hint)`` — RCP102 streams with two producers, RCP103 malformed
    external references and dangling inputs, RCP105 unconsumed streams,
    then one RCP104 naming the tasks on a cycle. A task consuming its
    own output is on a cycle but does not hold back its descendants.

    An input containing ``:`` is an external reference
    ``<application>:<stream>`` — its producer lives in another
    application (secondary / tertiary use of curated streams, paper §VI)
    — so it neither consumes nor dangles here. :class:`Recipe` raises on
    the first problem that is not RCP105;
    :func:`repro.lint.recipe_check.check_recipe_dict` reports them all.
    """
    problems: list[tuple[str, str, str, str]] = []
    producers: dict[str, str] = {}
    for task in tasks:
        for stream in task.outputs:
            if stream in producers:
                problems.append((
                    "RCP102", f"stream {stream}",
                    f"stream {stream!r} produced by both "
                    f"{producers[stream]!r} and {task.task_id!r}",
                    "streams map to MQTT topics: exactly one producer",
                ))
            else:
                producers[stream] = task.task_id
    upstream: dict[str, set[str]] = {}
    consumed: set[str] = set()
    looped: set[str] = set()
    for task in tasks:
        upstream[task.task_id] = deps = set()
        for stream in task.inputs:
            if ":" in stream:
                app, _sep, remote = stream.partition(":")
                if not app or not remote:
                    problems.append((
                        "RCP103", f"task {task.task_id}",
                        f"malformed external stream reference {stream!r}",
                        "expected '<application>:<stream>'",
                    ))
                continue
            consumed.add(stream)
            producer = producers.get(stream)
            if producer is None:
                problems.append((
                    "RCP103", f"task {task.task_id}",
                    f"consumes stream {stream!r} which no task produces",
                    "add a producing task or an external reference",
                ))
            elif producer == task.task_id:
                looped.add(producer)
            else:
                deps.add(producer)
    for stream in sorted(set(producers) - consumed):
        problems.append((
            "RCP105", f"stream {stream}",
            f"stream {stream!r} (from {producers[stream]!r}) is never "
            "consumed in this recipe",
            "fine if the stream is curated for cross-application use",
        ))
    # Kahn's algorithm, always releasing the smallest ready id.
    ready = sorted(tid for tid, deps in upstream.items() if not deps)
    order: list[str] = []
    while ready:
        current = heapq.heappop(ready)
        order.append(current)
        for tid, deps in upstream.items():
            if current in deps:
                deps.discard(current)
                if not deps:
                    heapq.heappush(ready, tid)
    cyclic = sorted(set(upstream).difference(order) | looped)
    if cyclic:
        problems.append((
            "RCP104", f"tasks {', '.join(cyclic)}",
            f"dependency cycle involving {cyclic}",
            "a recipe is a DAG: break the loop or split the recipe",
        ))
    return producers, order, problems


class Recipe:
    """A validated task graph.

    Validation enforces: unique task ids, every stream has at most one
    producer, every consumed stream has a producer (no dangling inputs),
    and the graph is acyclic (:func:`graph_problems`). Construction fails
    loudly — a recipe that validates will deploy.
    """

    def __init__(
        self, name: str, tasks: Iterable[TaskSpec], priority: int = 0
    ) -> None:
        self.name = require_name(name, "recipe name")
        #: Degradation rank: when surviving capacity cannot host every
        #: application, lower-priority recipes are shed first (ties break
        #: by name). 0 is the default tier.
        self.priority = int(priority)
        self.tasks: dict[str, TaskSpec] = {}
        for task in tasks:
            if task.task_id in self.tasks:
                raise RecipeError(f"duplicate task id {task.task_id!r}")
            self.tasks[task.task_id] = task
        if not self.tasks:
            raise RecipeError(f"recipe {name!r} has no tasks")
        self._producers, self._order, problems = graph_problems(self.tasks.values())
        for rule, subject, message, _hint in problems:
            if rule != "RCP105":  # an unconsumed stream may be curated (§VI)
                raise RecipeError(f"{subject}: {message}")

    # ------------------------------------------------------------------
    # Graph structure
    # ------------------------------------------------------------------

    def producer_of(self, stream: str) -> str:
        """Task id producing ``stream``."""
        try:
            return self._producers[stream]
        except KeyError:
            raise RecipeError(f"no producer for stream {stream!r}") from None

    def consumers_of(self, stream: str) -> list[str]:
        """Task ids consuming ``stream`` (sorted for determinism)."""
        return sorted(
            task.task_id for task in self.tasks.values() if stream in task.inputs
        )

    def upstream_of(self, task_id: str) -> set[str]:
        """Direct predecessor task ids (external inputs have none here)."""
        task = self.tasks[task_id]
        return {
            self._producers[stream]
            for stream in task.inputs
            if ":" not in stream
        }

    @property
    def topological_order(self) -> list[str]:
        """Task ids in dependency order."""
        return list(self._order)

    def stages(self) -> list[list[str]]:
        """Tasks grouped into parallel stages (same depth = same stage).

        Stage k contains every task whose longest path from a source has
        length k; all tasks within a stage are mutually independent and
        "can be executed in parallel" (§IV-C-1).
        """
        depth: dict[str, int] = {}
        for task_id in self._order:
            upstream = self.upstream_of(task_id)
            depth[task_id] = 1 + max((depth[u] for u in upstream), default=-1)
        stage_count = max(depth.values()) + 1
        stages: list[list[str]] = [[] for _ in range(stage_count)]
        for task_id in self._order:
            stages[depth[task_id]].append(task_id)
        return stages

    @property
    def streams(self) -> list[str]:
        return sorted(self._producers)

    # ------------------------------------------------------------------
    # DSL
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        result: dict[str, Any] = {
            "recipe": self.name,
            "tasks": [self.tasks[tid].to_dict() for tid in self._order],
        }
        if self.priority != 0:
            result["priority"] = self.priority
        return result

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Recipe":
        if not isinstance(data, dict):
            raise RecipeError(f"recipe must be a dict, got {type(data).__name__}")
        if "recipe" not in data or "tasks" not in data:
            raise RecipeError("recipe dict needs 'recipe' (name) and 'tasks'")
        tasks = [TaskSpec.from_dict(entry) for entry in data["tasks"]]
        return cls(data["recipe"], tasks, priority=int(data.get("priority", 0)))

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Recipe":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RecipeError(f"recipe is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Recipe({self.name!r}, {len(self.tasks)} tasks)"
