"""TaskAssignment: distributing sub-tasks over neuron modules.

Paper §IV-C-1: "Task assignment class distributes the divided tasks to
among IFoT modules. ... Each node executes the assigned tasks depending on
the processing capability."

Strategies implement one method, ``choose(subtask, candidates, loads)``.
The :class:`TaskAssignment` driver handles what is common: pinned tasks,
capability filtering, load bookkeeping, and validation. The strategy
ablation of EXP-S2 compares the three built-in policies.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.operators import operator_class
from repro.core.splitter import SubTask
from repro.errors import AssignmentError

__all__ = [
    "ModuleInfo",
    "Assignment",
    "AssignmentStrategy",
    "RoundRobinStrategy",
    "LoadAwareStrategy",
    "CapabilityAwareStrategy",
    "TaskAssignment",
]


@dataclass
class ModuleInfo:
    """What the assigner knows about one neuron module."""

    name: str
    capacity: float = 1.0  # relative processing capability
    capabilities: set[str] = field(default_factory=set)
    base_load: float = 0.0  # load already present from other applications
    base_demand: float = 0.0  # CPU-s/s already placed here (predicted)

    def can_host(self, subtask: SubTask) -> bool:
        return set(subtask.capabilities) <= self.capabilities


@dataclass
class Assignment:
    """The result: sub-task id -> module name, plus projected loads."""

    placements: dict[str, str] = field(default_factory=dict)
    projected_load: dict[str, float] = field(default_factory=dict)

    def module_for(self, subtask_id: str) -> str:
        try:
            return self.placements[subtask_id]
        except KeyError:
            raise AssignmentError(f"no placement for {subtask_id!r}") from None

    def subtasks_on(self, module: str) -> list[str]:
        return sorted(
            sid for sid, mod in self.placements.items() if mod == module
        )

    def to_dict(self) -> dict[str, Any]:
        return {"placements": dict(self.placements)}


def estimate_cost(subtask: SubTask) -> float:
    """Load points this sub-task is expected to consume: its operator
    class's rate-blind ``load_points``. Placement ranks by predicted CPU
    utilization (:func:`repro.lint.rates.subtask_demand`); these are its
    tie-break where the cost model prices nothing."""
    # A shard of an n-way task carries ~1/n of the data.
    return operator_class(subtask.operator).load_points / max(1, subtask.shard_count)


class AssignmentStrategy(ABC):
    """Pluggable placement policy."""

    name = "abstract"

    @abstractmethod
    def choose(
        self,
        subtask: SubTask,
        candidates: list[ModuleInfo],
        loads: dict[str, tuple[float, float]],
    ) -> ModuleInfo:
        """Pick one of ``candidates`` (never empty) for ``subtask``.

        ``loads`` maps module name to what is already assigned there
        (base values included): predicted CPU-s/s, then load points.
        """


class RoundRobinStrategy(AssignmentStrategy):
    """Cycle through modules in name order, ignoring load and capacity.

    The paper's prototype assigns classes to modules by hand through the
    management GUI; round-robin is the natural mechanical baseline.
    """

    name = "round_robin"

    def __init__(self) -> None:
        self._cursor = 0

    def choose(
        self,
        subtask: SubTask,
        candidates: list[ModuleInfo],
        loads: dict[str, tuple[float, float]],
    ) -> ModuleInfo:
        chosen = candidates[self._cursor % len(candidates)]
        self._cursor += 1
        return chosen


class LoadAwareStrategy(AssignmentStrategy):
    """Place each sub-task on the candidate with the lowest predicted
    utilization-to-capacity ratio (greedy longest-processing-time
    flavour); load points per capacity, then the name, break ties."""

    name = "load_aware"

    def choose(
        self,
        subtask: SubTask,
        candidates: list[ModuleInfo],
        loads: dict[str, tuple[float, float]],
    ) -> ModuleInfo:
        def rank(module: ModuleInfo) -> tuple[float, float, str]:
            rho, points = loads[module.name]
            return rho / module.capacity, points / module.capacity, module.name

        return min(candidates, key=rank)


class CapabilityAwareStrategy(LoadAwareStrategy):
    """Load-aware, but prefers modules whose capability set is *smallest*
    among feasible candidates — keeping generally-capable modules free for
    tasks that will actually need them (a classic bin-packing heuristic)."""

    name = "capability_aware"

    def choose(
        self,
        subtask: SubTask,
        candidates: list[ModuleInfo],
        loads: dict[str, tuple[float, float]],
    ) -> ModuleInfo:
        fewest = min(len(m.capabilities) for m in candidates)
        narrow = [m for m in candidates if len(m.capabilities) == fewest]
        return super().choose(subtask, narrow, loads)


class TaskAssignment:
    """The paper's *Task assignment class*: drives a strategy over a split
    recipe and produces a validated :class:`Assignment`."""

    def __init__(self, strategy: AssignmentStrategy | None = None) -> None:
        self.strategy = strategy if strategy is not None else LoadAwareStrategy()

    def assign(
        self,
        subtasks: list[SubTask],
        modules: list[ModuleInfo],
        demand: Mapping[str, float] | None = None,
    ) -> Assignment:
        """Place ``subtasks``. ``demand`` is each one's predicted CPU-s/s on
        its host (:func:`repro.lint.rates.placement_demand`): sub-tasks
        with a single feasible module go first, the rest heaviest-first.
        Unpriced sub-tasks (no ``demand``, or a model that prices nothing)
        keep split order and rank candidates by load points alone.
        """
        if not modules:
            raise AssignmentError("no modules available")
        by_name = {m.name: m for m in modules}
        if len(by_name) != len(modules):
            raise AssignmentError("duplicate module names")
        demand = demand or {}
        loads = {m.name: (m.base_demand, m.base_load) for m in modules}
        ordered_modules = sorted(modules, key=lambda m: m.name)
        feasible = {
            s.subtask_id: self._candidates(s, by_name, ordered_modules)
            for s in subtasks
        }

        def weight(subtask: SubTask) -> float:
            cost = demand.get(subtask.subtask_id, 0.0)
            return math.inf if cost and len(feasible[subtask.subtask_id]) == 1 else cost

        chosen: dict[str, str] = {}  # in placing order; reported in split order
        for subtask in sorted(subtasks, key=lambda s: -weight(s)):
            candidates = feasible[subtask.subtask_id]
            module = (
                candidates[0]
                if subtask.pin_to is not None
                else self.strategy.choose(subtask, candidates, loads)
            )
            chosen[subtask.subtask_id] = module.name
            rho, points = loads[module.name]
            loads[module.name] = (
                rho + demand.get(subtask.subtask_id, 0.0),
                points + estimate_cost(subtask),
            )

        return Assignment(
            placements={s.subtask_id: chosen[s.subtask_id] for s in subtasks},
            projected_load={name: points for name, (_rho, points) in loads.items()},
        )

    def _candidates(
        self,
        subtask: SubTask,
        by_name: dict[str, ModuleInfo],
        ordered_modules: list[ModuleInfo],
    ) -> list[ModuleInfo]:
        if subtask.pin_to is not None:
            pinned = by_name.get(subtask.pin_to)
            if pinned is None:
                raise AssignmentError(
                    f"{subtask.subtask_id!r} pinned to unknown module "
                    f"{subtask.pin_to!r}"
                )
            if not pinned.can_host(subtask):
                raise AssignmentError(
                    f"{subtask.subtask_id!r} pinned to {pinned.name!r} which "
                    f"lacks capabilities {sorted(set(subtask.capabilities) - pinned.capabilities)}"
                )
            return [pinned]
        candidates = [m for m in ordered_modules if m.can_host(subtask)]
        if not candidates:
            raise AssignmentError(
                f"no module provides capabilities {subtask.capabilities!r} "
                f"for {subtask.subtask_id!r}"
            )
        return candidates
