"""One scenario declaration, one run pipeline.

A :class:`Scenario` is to the tooling what a Recipe is to the middleware:
declared **once** (testbed builder, recipe, device table, lint
calibration, default seed and duration, optional fault plan), registered
in :mod:`repro.registry`, and materialised by :func:`run` for every tool.
``docs/ARCHITECTURE.md`` ("Scenarios") has the step order and the reason
there are two instrument attach points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Literal, Mapping

from repro.obs.state import SAMPLE_EVERY
from repro.sim.trace import Tracer, trace_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos.invariants import InvariantReport, RecoveryCheck
    from repro.chaos.plan import FaultPlan
    from repro.core.middleware import Application, IFoTCluster
    from repro.core.recipe import Recipe
    from repro.lint.latency import LatencyContext
    from repro.runtime.base import Runtime
    from repro.sensors.base import SensorModel

__all__ = ["PrepareHook", "Scenario", "Run", "attach_instruments", "run"]

#: Receives the bare runtime before any component exists.
PrepareHook = Callable[[Any], None]


@dataclass(frozen=True)
class Scenario:
    """Everything the tools need to know about one named scenario."""

    name: str
    description: str
    #: ``build(seed=, prepare=) -> (runtime, cluster)``: the testbed
    #: builder, calibration included; ``prepare`` runs on the bare runtime.
    build: Callable[..., "tuple[Runtime, IFoTCluster]"]
    recipe: Callable[[], "Recipe"]
    #: Shown as the file of lint findings on this recipe.
    recipe_origin: str
    #: Device name -> sensor model: the table the builder attaches from.
    devices: Callable[[], Mapping[str, "SensorModel"]]
    #: Calibration the static latency analyzer judges the recipe under,
    #: as :class:`~repro.lint.latency.LatencyContext` keyword arguments.
    lint: Mapping[str, Any]
    seed: int
    duration_s: float
    #: Where observability and the profiler attach — on the bare
    #: ``"runtime"`` or on the built ``"cluster"``. Not a knob: it records
    #: what the committed goldens and digests fingerprint.
    attach: Literal["runtime", "cluster"] = "cluster"
    #: Built against the live cluster so it can target actual placement.
    fault_plan: "Callable[[IFoTCluster, Application], FaultPlan] | None" = None
    recovery: "tuple[RecoveryCheck, ...]" = ()
    #: The same scenario at another sensing rate, if it has one.
    at_rate: "Callable[[float], Scenario] | None" = None

    def lint_context(self) -> "LatencyContext":
        from repro.lint.latency import LatencyContext  # late: keeps the linter off the run path

        return LatencyContext(**self.lint)

    def device_keys(self) -> dict[str, tuple[str, ...]]:
        """Device -> channel keys, as the static payload checker
        (:func:`repro.lint.dataflow.check_recipe_payloads`) wants them."""
        mapping = {}
        for device, model in self.devices().items():
            keys = model.channel_keys()
            assert keys is not None, device
            mapping[device] = keys
        return mapping


@dataclass
class Run:
    """A finished pipeline run. The trace and the instruments are on
    ``runtime`` (``.tracer``, ``.prof``, ``.slo``)."""

    scenario: Scenario
    seed: int
    duration_s: float
    runtime: Any
    cluster: "IFoTCluster"
    #: Sim time at which the run window began (deployment settled).
    measure_from: float
    faults_applied: int = 0
    #: Records in the trace when the run ended.
    trace_records: int = 0
    #: The invariant verdict, set by
    #: :func:`~repro.chaos.scenarios.run_scenario` (``run`` checks none).
    report: "InvariantReport | None" = None

    @property
    def tracer(self) -> Tracer:
        return self.runtime.tracer

    @cached_property
    def trace_digest(self) -> str:
        """:func:`~repro.sim.trace.trace_digest` of the records the run
        left, computed on first read: a record emitted into the tracer
        afterwards does not change it."""
        return trace_digest(islice(self.tracer, self.trace_records))


def attach_instruments(
    runtime: Any,
    *,
    observe: bool = False,
    profile: bool = False,
    slo: "Recipe | None" = None,
    cluster: "IFoTCluster | None" = None,
    sample_every: int = SAMPLE_EVERY,
) -> None:
    """The one place a scenario run turns instruments on, in one fixed
    order: observability (tracing one sensor sample in ``sample_every``),
    profiler, SLO engine (on the deadlines ``slo`` declares, publishing
    through ``cluster``). An instrumented run exists to produce its trace, so
    trace storage goes on with it."""
    if observe or profile:
        runtime.tracer.enabled = True
    if observe:
        from repro.obs import enable_observability

        enable_observability(runtime, sample_every=sample_every)
    if profile:
        from repro.prof import enable_profiling

        enable_profiling(runtime)
    if slo is not None:
        from repro.obs.slo import enable_slo

        enable_slo(runtime, recipe=slo, cluster=cluster)


def run(
    scenario: Scenario,
    *,
    seed: int | None = None,
    duration_s: float | None = None,
    observe: bool = False,
    profile: bool = False,
    slo: bool = False,
    prepare: PrepareHook | None = None,
) -> Run:
    """Build, instrument, deploy and run ``scenario``.

    ``seed`` / ``duration_s`` default to the scenario's. ``prepare`` always
    runs on the bare runtime (the schedule sanitizer must see the t=0
    connect storm). An observed run traces every sensor sample: its span
    trees exist to be read (a run wanting the default stride installs
    :func:`~repro.obs.state.enable_observability` in ``prepare``).
    """
    seed = scenario.seed if seed is None else seed
    duration_s = scenario.duration_s if duration_s is None else duration_s
    instruments = {"observe": observe, "profile": profile, "sample_every": 1}

    def on_bare_runtime(runtime: Any) -> None:
        if prepare is not None:
            prepare(runtime)
        if scenario.attach == "runtime":
            attach_instruments(runtime, **instruments)

    runtime, cluster = scenario.build(seed=seed, prepare=on_bare_runtime)
    if scenario.attach == "cluster":
        attach_instruments(runtime, **instruments)
    recipe = scenario.recipe()
    if slo:
        attach_instruments(runtime, slo=recipe, cluster=cluster)
    app = cluster.submit(recipe)
    cluster.settle(2.0)
    outcome = Run(scenario, seed, duration_s, runtime, cluster, runtime.now)
    if runtime.prof is not None:  # utilisation is reported over the run window
        runtime.prof.register_origin()
    if scenario.fault_plan is None:
        runtime.run(until=runtime.now + duration_s)
        app.stop()
    else:
        from repro.chaos.injector import Injector

        injector = Injector(runtime, cluster=cluster)
        injector.schedule(scenario.fault_plan(cluster, app).validate())
        # Fault times are absolute sim times, so the horizon is too; the
        # application stays up for the invariant checker to inspect.
        runtime.run(until=duration_s)
        outcome.faults_applied = injector.faults_applied
    outcome.trace_records = len(runtime.tracer)
    return outcome
