"""The scenario registry: every name the tools accept.

Adding a scenario is one :class:`~repro.scenario.Scenario` in
:data:`SCENARIOS`; ``chaos``, ``heal``, ``san``, ``prof``, ``slo``,
``trace``, ``lint --recipe``, ``bench`` and the parallel seed sweep all
look names up here and nowhere else.
"""

from __future__ import annotations

from repro.bench.scenarios import FIG5, PAPER
from repro.chaos.scenarios import CHAOS_SCENARIOS
from repro.errors import ConfigurationError
from repro.scenario import Scenario

__all__ = ["SCENARIOS", "UnknownScenarioError", "fault_scenarios", "resolve"]

SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario for scenario in (FIG5, PAPER, *CHAOS_SCENARIOS)
}


class UnknownScenarioError(ConfigurationError):
    """A name no registered scenario answers to (CLI exit code 2)."""


def resolve(name: str, faults: bool = False) -> Scenario:
    """Look ``name`` up. ``chaos:<name>`` is accepted for scenarios that
    declare a fault plan; ``faults=True`` accepts only those."""
    bare = name.removeprefix("chaos:")
    scenario = SCENARIOS.get(bare)
    if scenario is None or (bare != name and scenario.fault_plan is None):
        raise UnknownScenarioError(
            f"unknown scenario {name!r} (known: {', '.join(sorted(SCENARIOS))})"
        )
    if faults and scenario.fault_plan is None:
        raise ConfigurationError(
            f"scenario {name!r} declares no fault plan "
            f"(fault scenarios: {', '.join(fault_scenarios())})"
        )
    return scenario


def fault_scenarios() -> list[str]:
    """Names of the scenarios that declare a fault plan, sorted."""
    return sorted(n for n, s in SCENARIOS.items() if s.fault_plan is not None)
