"""Seed-deterministic fault injection for the IFoT middleware.

``repro.chaos`` turns "failover happens to work" into "failure behaviour
is specified and checked": a declarative :class:`FaultPlan` of typed
fault events, an :class:`Injector` that applies them to a simulated
cluster at exact virtual times, and an :class:`Invariants` checker that
asserts end-to-end delivery properties over the resulting trace.
:func:`recovery_report` reads the same trace back as an operator's
account of the recovery. Because every stochastic element draws from
seed-derived streams, *plan + seed* fully determines a run;
:func:`run_scenario` returns it as a :class:`~repro.scenario.Run` with
the verdict attached.
"""

from repro.chaos.injector import Injector
from repro.chaos.invariants import (
    CheckResult,
    InvariantReport,
    Invariants,
    RecoveryCheck,
    RecoveryReport,
    recovery_report,
)
from repro.chaos.plan import (
    BrokerRestart,
    FaultEvent,
    FaultPlan,
    Heal,
    LinkDegrade,
    NodeCrash,
    NodeRecover,
    NodeRestart,
    Partition,
    SensorFlap,
)
from repro.chaos.scenarios import (
    CHAOS_SCENARIOS,
    MODULE_RECOVERY_BOUND_S,
    build_chaos_cluster,
    build_chaos_recipe,
    run_scenario,
)

__all__ = [
    "BrokerRestart",
    "CHAOS_SCENARIOS",
    "CheckResult",
    "FaultEvent",
    "FaultPlan",
    "Heal",
    "Injector",
    "InvariantReport",
    "Invariants",
    "LinkDegrade",
    "MODULE_RECOVERY_BOUND_S",
    "NodeCrash",
    "NodeRecover",
    "NodeRestart",
    "Partition",
    "RecoveryCheck",
    "RecoveryReport",
    "SensorFlap",
    "build_chaos_cluster",
    "build_chaos_recipe",
    "recovery_report",
    "run_scenario",
]
