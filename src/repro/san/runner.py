"""Orchestration for ``repro san``.

Any registered scenario (:mod:`repro.registry`) can be sanitized: the
runner drives it through the run pipeline under a prepare hook. For each
requested scenario it does

1. a **base run** with :class:`~repro.san.recorder.SimSan` installed —
   the happens-before pass, yielding SAN001/SAN002 race diagnostics;
2. ``--perturb N`` **replay runs**, each with seeded equal-timestamp
   tie-break perturbation, diffing schedule-stable digests against the
   base run (:mod:`repro.san.replay`) — divergence is SAN010.

Everything is in-process and derived from fixed seeds: no golden files
are consulted, so the gate cannot go stale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.registry import SCENARIOS, resolve
from repro.san.recorder import RaceFinding, SimSan
from repro.san.replay import schedule_stable_digest
from repro.san.rules import SAN_RULES
from repro.scenario import PrepareHook, Scenario, run
from repro.sim.trace import Tracer
from repro.util.validate import Diagnostic

__all__ = [
    "ScenarioSanResult",
    "SanReport",
    "sanitize",
    "sanitize_scenario",
    "run_sanitizer",
]


@dataclass
class ScenarioSanResult:
    """Everything the sanitizer learned about one scenario."""

    scenario: str
    events: int
    cells: int
    findings: list[RaceFinding]
    suppressed: int
    diagnostics: list[Diagnostic]
    base_digest: str
    #: (perturbation seed, schedule-stable digest) per replay run.
    perturbed: list[tuple[int, str]] = field(default_factory=list)

    @property
    def diverged_seeds(self) -> list[int]:
        return [seed for seed, digest in self.perturbed if digest != self.base_digest]


@dataclass
class SanReport:
    """Aggregated result over every requested scenario."""

    results: list[ScenarioSanResult]

    @property
    def diagnostics(self) -> list[Diagnostic]:
        return [d for result in self.results for d in result.diagnostics]

    @property
    def suppressed(self) -> int:
        return sum(result.suppressed for result in self.results)

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenarios": [
                {
                    "name": result.scenario,
                    "events": result.events,
                    "cells": result.cells,
                    "race_pairs": len(
                        [f for f in result.findings if not f.suppressed]
                    ),
                    "suppressed_pairs": result.suppressed,
                    "base_digest": result.base_digest,
                    "perturbed": [
                        {"seed": seed, "digest": digest, "diverged": digest != result.base_digest}
                        for seed, digest in result.perturbed
                    ],
                    "diagnostics": [d.to_dict() for d in result.diagnostics],
                }
                for result in self.results
            ],
        }


def sanitize(
    name: str, run_under: Callable[[PrepareHook], Tracer], perturb: int = 3
) -> ScenarioSanResult:
    """Run the HB pass and ``perturb`` replay runs over ``run_under``, a
    deterministic simulation that calls the hook it is given on its bare
    runtime and returns the trace it produced."""
    san = SimSan()
    tracer = run_under(san.install)
    findings = san.analyze()
    diagnostics, suppressed = san.diagnostics(findings)
    base_digest = schedule_stable_digest(tracer)
    result = ScenarioSanResult(
        scenario=name,
        events=san.events_observed,
        cells=san.cells_touched,
        findings=findings,
        suppressed=suppressed,
        diagnostics=diagnostics,
        base_digest=base_digest,
    )
    for seed in range(1, perturb + 1):
        perturbed_tracer = run_under(
            lambda runtime, _seed=seed: runtime.kernel.perturb_ties(_seed)
        )
        digest = schedule_stable_digest(perturbed_tracer)
        result.perturbed.append((seed, digest))
        if digest != base_digest:
            result.diagnostics.append(
                SAN_RULES["SAN010"].diagnostic(
                    f"scenario {name}",
                    f"scenario {name!r}: tie-break perturbation "
                    f"seed {seed} diverged (base {base_digest[:12]}…, "
                    f"perturbed {digest[:12]}…)",
                )
            )
    return result


def sanitize_scenario(
    scenario: Scenario | str, perturb: int = 3, profile: bool = False
) -> ScenarioSanResult:
    """Sanitize one registered scenario at its default seed and duration.

    ``profile=True`` additionally runs the sim-time profiler in every run
    (base and perturbed): its ``prof.sample`` records land in the trace,
    so a profile that depended on tie-break order would surface as SAN010.
    """
    if isinstance(scenario, str):
        scenario = resolve(scenario)

    def run_under(prepare: PrepareHook) -> Tracer:
        def hook(runtime: Any) -> None:
            # The replay digests are taken over the stored trace, and the
            # paper testbed builds with storage off.
            runtime.tracer.enabled = True
            prepare(runtime)

        return run(scenario, prepare=hook, profile=profile).runtime.tracer

    return sanitize(scenario.name, run_under, perturb)


def run_sanitizer(
    scenarios: "list[str] | None" = None, perturb: int = 3, profile: bool = False
) -> SanReport:
    """Sanitize the named scenarios (default: every registered one)."""
    return SanReport(
        results=[
            sanitize_scenario(name, perturb=perturb, profile=profile)
            for name in scenarios or sorted(SCENARIOS)
        ]
    )
