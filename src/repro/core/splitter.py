"""RecipeSplit: dividing a recipe into parallel-executable sub-tasks.

Paper §IV-C-1: "Recipe split class reads the recipe of [an] application and
divides it into tasks that can be executed in parallel."

Two axes of parallelism are extracted:

* **graph parallelism** — tasks at the same topological depth have no
  dependency and run concurrently on different modules (``stage_index``);
* **data parallelism** — a task with ``parallelism = n`` becomes ``n``
  shard sub-tasks; each shard consumes the same input streams but
  processes only the records whose sample id hashes to its shard (the
  shard filter is applied by the operator host, so shard placement is
  free to differ per shard).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

from repro.core.recipe import Recipe, TaskSpec

__all__ = ["SubTask", "RecipeSplit", "shard_of"]


def shard_of(sample_id: str, shard_count: int) -> int:
    """Stable shard index for a sample id (process-independent hash)."""
    if shard_count <= 1:
        return 0
    digest = hashlib.sha256(sample_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % shard_count


@dataclass
class SubTask:
    """One deployable unit: a (possibly sharded) task instance."""

    subtask_id: str
    task_id: str
    operator: str
    inputs: list[str]
    outputs: list[str]
    params: dict[str, Any]
    capabilities: list[str] = field(default_factory=list)
    pin_to: str | None = None
    stage_index: int = 0
    shard_index: int = 0
    shard_count: int = 1

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (travels in deploy commands)."""
        return {
            "subtask_id": self.subtask_id,
            "task_id": self.task_id,
            "operator": self.operator,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "params": dict(self.params),
            "capabilities": list(self.capabilities),
            "pin_to": self.pin_to,
            "stage_index": self.stage_index,
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SubTask":
        return cls(
            subtask_id=data["subtask_id"],
            task_id=data["task_id"],
            operator=data["operator"],
            inputs=list(data["inputs"]),
            outputs=list(data["outputs"]),
            params=dict(data["params"]),
            capabilities=list(data.get("capabilities", [])),
            pin_to=data.get("pin_to"),
            stage_index=int(data.get("stage_index", 0)),
            shard_index=int(data.get("shard_index", 0)),
            shard_count=int(data.get("shard_count", 1)),
        )


class RecipeSplit:
    """Splits recipes into sub-tasks (the paper's *Recipe split class*)."""

    def split(self, recipe: Recipe) -> list[SubTask]:
        """All sub-tasks of ``recipe``, in (stage, task id, shard) order."""
        stages = recipe.stages()
        subtasks: list[SubTask] = []
        for stage_index, stage in enumerate(stages):
            for task_id in stage:
                task = recipe.tasks[task_id]
                subtasks.extend(self._split_task(task, stage_index))
        return subtasks

    def _split_task(self, task: TaskSpec, stage_index: int) -> list[SubTask]:
        if task.parallelism == 1:
            return [
                SubTask(
                    subtask_id=task.task_id,
                    task_id=task.task_id,
                    operator=task.operator,
                    inputs=list(task.inputs),
                    outputs=list(task.outputs),
                    params=dict(task.params),
                    capabilities=list(task.capabilities),
                    pin_to=task.pin_to,
                    stage_index=stage_index,
                )
            ]
        return [
            SubTask(
                subtask_id=f"{task.task_id}#{shard}",
                task_id=task.task_id,
                operator=task.operator,
                inputs=list(task.inputs),
                outputs=list(task.outputs),
                params=dict(task.params),
                capabilities=list(task.capabilities),
                pin_to=task.pin_to,
                stage_index=stage_index,
                shard_index=shard,
                shard_count=task.parallelism,
            )
            for shard in range(task.parallelism)
        ]
