"""Canned chaos scenarios: a small cluster, an app, and fault plans.

Each scenario pairs a :class:`~repro.chaos.plan.FaultPlan` with the
recovery bounds it must meet on a standard four-module cluster (two
sensor modules, two compute modules, broker, management). Timing
constants are shrunk so failure detection and recovery fit in a short
simulated window; the acceptance bound follows the repo's roadmap —
recovery from a module crash within ``2 x keep-alive + sweep period``.

Everything stochastic (loss, jitter, backoff) draws from seed-derived
streams, so ``scenario + seed`` fully determines the trace: running the
same scenario twice with the same seed yields byte-identical traces
(:func:`~repro.sim.trace.trace_digest` is the canonical fingerprint the
determinism tests compare).
"""

from __future__ import annotations

from typing import Callable

from repro.bench.calibration import pi_cost_model
from repro.chaos.invariants import Invariants, RecoveryCheck
from repro.chaos.plan import (
    BrokerRestart,
    FaultPlan,
    Heal,
    LinkDegrade,
    NodeCrash,
    NodeRestart,
    Partition,
    SensorFlap,
)
from repro.core.middleware import Application, IFoTCluster
from repro.core.recipe import Recipe, TaskSpec
from repro.net.wlan import GilbertElliottConfig
from repro.runtime.sim import SimRuntime
from repro.scenario import PrepareHook, Run, Scenario, run
from repro.sensors.base import SensorModel
from repro.sensors.devices import FixedPayloadModel

__all__ = [
    "KEEPALIVE_S",
    "SWEEP_S",
    "HEARTBEAT_S",
    "MODULE_RECOVERY_BOUND_S",
    "CHAOS_SCENARIOS",
    "build_chaos_cluster",
    "build_chaos_recipe",
    "run_scenario",
]

#: MQTT keep-alive for every module session (watchdog declares the session
#: lost after 2x this much inbound silence).
KEEPALIVE_S = 2.0
#: Broker session sweep period (dead sessions expire within ~1.5 keep-alives,
#: checked at this granularity).
SWEEP_S = 2.0
#: Management/module announcement heartbeat.
HEARTBEAT_S = 2.0
#: Broker-side QoS 1 retransmission interval.
RETRY_S = 0.5
#: Acceptance bound: a module crash must be detected and its subtasks
#: re-placed within two keep-alive periods plus one sweep period.
MODULE_RECOVERY_BOUND_S = 2.0 * KEEPALIVE_S + SWEEP_S

SENSOR_MODULES = ("module-a", "module-b")
COMPUTE_MODULES = ("module-c", "module-d")
BROKER_NODE = "broker-node"
APP_NAME = "chaos-app"
RATE_HZ = 2.0
#: The ``bursty_wlan`` scenario's loss process on the sensor uplinks.
BURSTY_LINK = GilbertElliottConfig(p_enter=0.05, p_exit=0.25, loss_bad=0.9)


def chaos_devices() -> dict[str, SensorModel]:
    """The devices both sensor modules of the chaos testbed carry."""
    return {"sample": FixedPayloadModel(values=3)}


def build_chaos_cluster(
    seed: int = 0, prepare: PrepareHook | None = None
) -> tuple[SimRuntime, IFoTCluster]:
    """The standard chaos testbed: 2 sensor + 2 compute modules.

    Auto-failover and auto-reconnect are both on — chaos scenarios test
    exactly those paths. Two compute modules (capability ``compute``)
    give failover somewhere to move the analysis subtasks.

    ``prepare`` runs on the bare runtime before any component exists —
    the schedule sanitizer installs its kernel monitor and tie-break
    perturbation there, so even the t=0 connect storm is covered.
    """
    runtime = SimRuntime(seed=seed)
    if prepare is not None:
        prepare(runtime)
    cluster = IFoTCluster(
        runtime,
        broker_node_name=BROKER_NODE,
        heartbeat_s=HEARTBEAT_S,
        auto_failover=True,
        client_keepalive_s=KEEPALIVE_S,
        auto_reconnect=True,
        broker_params={
            "sweep_interval_s": SWEEP_S,
            "retry_interval_s": RETRY_S,
            "max_retries": 8,
        },
    )
    for name in SENSOR_MODULES:
        module = cluster.add_module(name)
        for device, model in chaos_devices().items():
            module.attach_sensor(device, model)
    for name in COMPUTE_MODULES:
        cluster.add_module(name, extra_capabilities={"compute"})
    cluster.settle(3.0)
    return runtime, cluster


def build_chaos_recipe() -> Recipe:
    """Sensor flows -> dedup -> online training, everything at QoS 1.

    The ``dedup`` stage sits between the lossy sensor uplinks and the
    learner: QoS 1 redelivery makes the raw flows at-least-once, and the
    invariant checker asserts dedup restores effectively-once before any
    record is trained on. Analysis subtasks require capability
    ``compute`` (not pinned), so failover can move them between the two
    compute modules.
    """
    tasks = [
        TaskSpec(
            f"sense-{name[-1]}",
            "sensor",
            outputs=[f"raw-{name[-1]}"],
            params={"device": "sample", "rate_hz": RATE_HZ, "qos": 1},
            pin_to=name,
            capabilities=["sensor:sample"],
        )
        for name in SENSOR_MODULES
    ]
    raw_streams = [f"raw-{name[-1]}" for name in SENSOR_MODULES]
    tasks += [
        TaskSpec(
            "dedup",
            "dedup",
            inputs=list(raw_streams),
            outputs=["clean"],
            params={"qos": 1},
            capabilities=["compute"],
        ),
        TaskSpec(
            "train",
            "train",
            inputs=["clean"],
            params={
                "model": "classifier",
                "label_key": "label",
                "emit_info": False,
                "qos": 1,
            },
            capabilities=["compute"],
            # Sensing-to-trained budget *including* one module failover:
            # the lint context for this recipe adds
            # MODULE_RECOVERY_BOUND_S as a disruption allowance, so the
            # static bound lands near 6.7 s against this 10 s budget.
            deadline_ms=10000,
        ),
    ]
    return Recipe(APP_NAME, tasks)


# ----------------------------------------------------------------------
# Plans (built against the live cluster so they can target the actual
# placement the assignment strategy chose).
# ----------------------------------------------------------------------


def _partition_heal_plan(cluster: IFoTCluster, app: Application) -> FaultPlan:
    return FaultPlan(
        "partition-heal",
        (
            Partition(at=10.0, group_a=("module-a",), group_b=(BROKER_NODE,)),
            Heal(at=16.0, group_a=("module-a",), group_b=(BROKER_NODE,)),
        ),
    )


def _train_host(app: Application) -> str:
    assert app.assignment is not None
    return app.assignment.module_for("train")


def _module_crash_plan(cluster: IFoTCluster, app: Application) -> FaultPlan:
    return FaultPlan(
        "module-crash", (NodeCrash(at=10.0, node=_train_host(app)),)
    )


def _node_restart_plan(cluster: IFoTCluster, app: Application) -> FaultPlan:
    return FaultPlan(
        "node-restart", (NodeRestart(at=10.0, node=_train_host(app)),)
    )


def _failover_plan(cluster: IFoTCluster, app: Application) -> FaultPlan:
    # Crash the learner's host, then power-cycle it (amnesia restart, new
    # incarnation) 8 s later: exercises detect -> fail over -> rejoin ->
    # live fail-back migration end to end on one host.
    host = _train_host(app)
    return FaultPlan(
        "failover",
        (NodeCrash(at=10.0, node=host), NodeRestart(at=18.0, node=host)),
    )


def _broker_restart_plan(cluster: IFoTCluster, app: Application) -> FaultPlan:
    return FaultPlan("broker-restart", (BrokerRestart(at=12.0),))


def _bursty_wlan_plan(cluster: IFoTCluster, app: Application) -> FaultPlan:
    # Degrade only the sensor uplinks: the dedup stage downstream turns
    # the resulting QoS 1 redeliveries back into effectively-once input.
    return FaultPlan(
        "bursty-wlan",
        (
            LinkDegrade(
                at=8.0,
                duration_s=10.0,
                stations=SENSOR_MODULES,
                bitrate_factor=0.5,
                burst=BURSTY_LINK,
            ),
        ),
    )


def _sensor_flap_plan(cluster: IFoTCluster, app: Application) -> FaultPlan:
    return FaultPlan(
        "sensor-flap",
        (SensorFlap(at=10.0, module="module-a", device="sample", down_s=6.0),),
    )


#: Static-analysis calibration of the chaos *recipe* — all seven fault
#: scenarios deploy it, so they share this context. The Pi cost model is
#: a sound upper bound over the testbed's zero-cost one; QoS 1 retry
#: amplification uses ``BURSTY_LINK.stationary_loss()`` (written as the
#: literal 0.15 — the derived float is 0.15000000000000002 and would
#: perturb printed bounds; a test pins the two together); the
#: module-recovery bound is the one-off disruption allowance.
CHAOS_LINT = {
    "cost_model": pi_cost_model(),
    "loss_rate": 0.15,
    "disruption_allowance_s": MODULE_RECOVERY_BOUND_S,
}


def _chaos_scenario(
    name: str,
    description: str,
    duration_s: float,
    fault_plan: Callable[[IFoTCluster, Application], FaultPlan],
    recovery: tuple[RecoveryCheck, ...],
) -> Scenario:
    """A fault plan and its recovery bounds on the standard chaos testbed."""
    return Scenario(
        name=name,
        description=description,
        build=build_chaos_cluster,
        recipe=build_chaos_recipe,
        recipe_origin="<built-in chaos recipe>",
        devices=chaos_devices,
        lint=CHAOS_LINT,
        seed=0,
        duration_s=duration_s,
        fault_plan=fault_plan,
        recovery=recovery,
    )


CHAOS_SCENARIOS: tuple[Scenario, ...] = (
    _chaos_scenario(
        name="partition_heal",
        description=(
            "module-a loses layer-2 reachability to the broker for 6 s; "
            "after the heal its session re-establishes and replays its "
            "subscriptions"
        ),
        duration_s=30.0,
        fault_plan=_partition_heal_plan,
        recovery=(
            RecoveryCheck(
                fault_kind="partition",
                signal_event="mqtt.client.resubscribed",
                bound_s=MODULE_RECOVERY_BOUND_S,
                measure_from="restored",
                source_contains="module-a",
            ),
        ),
    ),
    _chaos_scenario(
        name="module_crash_failover",
        description=(
            "the module hosting the learner crash-stops and stays down; "
            "management must detect the death and re-place the analysis "
            "subtasks on the surviving compute module"
        ),
        duration_s=30.0,
        fault_plan=_module_crash_plan,
        recovery=(
            RecoveryCheck(
                fault_kind="node_crash",
                signal_event="mgmt.failover_moved",
                bound_s=MODULE_RECOVERY_BOUND_S,
            ),
        ),
    ),
    _chaos_scenario(
        name="node_restart_rejoin",
        description=(
            "the module hosting the learner power-cycles (amnesia "
            "restart, new incarnation); the directory must observe a "
            "leave-then-join and management must re-place its subtasks"
        ),
        duration_s=30.0,
        fault_plan=_node_restart_plan,
        recovery=(
            RecoveryCheck(
                fault_kind="node_restart",
                signal_event="mgmt.failover_moved",
                bound_s=MODULE_RECOVERY_BOUND_S,
            ),
        ),
    ),
    _chaos_scenario(
        name="failover",
        description=(
            "the module hosting the learner crash-stops; management "
            "must detect it and re-place the analysis subtasks, then "
            "the host power-cycles back and the subtasks migrate home "
            "live (pause/drain/transfer/resume) with zero QoS 1 loss "
            "and no sample processed by two instances"
        ),
        duration_s=34.0,
        fault_plan=_failover_plan,
        recovery=(
            RecoveryCheck(
                fault_kind="node_crash",
                signal_event="mgmt.failover_moved",
                bound_s=MODULE_RECOVERY_BOUND_S,
            ),
            RecoveryCheck(
                fault_kind="node_restart",
                signal_event="migrate.done",
                bound_s=MODULE_RECOVERY_BOUND_S,
                measure_from="restored",
            ),
        ),
    ),
    _chaos_scenario(
        name="broker_restart",
        description=(
            "the broker node power-cycles, losing every session and "
            "subscription; all clients must detect the silence, back "
            "off, reconnect, and replay their subscriptions"
        ),
        duration_s=34.0,
        fault_plan=_broker_restart_plan,
        # Detection is watchdog-quantised (up to 2x keep-alive of
        # silence + one watchdog period) and reconnect adds one
        # backoff step, so the bound is wider than the crash bound.
        recovery=(
            RecoveryCheck(
                fault_kind="broker_restart",
                signal_event="mqtt.client.resubscribed",
                bound_s=8.0,
            ),
        ),
    ),
    _chaos_scenario(
        name="bursty_wlan",
        description=(
            "10 s of Gilbert-Elliott bursty loss and halved bitrate on "
            "the sensor uplinks; QoS 1 must retransmit through the "
            "bursts and dedup must keep training effectively-once"
        ),
        duration_s=30.0,
        fault_plan=_bursty_wlan_plan,
        recovery=(
            RecoveryCheck(
                fault_kind="link_degrade",
                signal_event="ml.trained",
                bound_s=MODULE_RECOVERY_BOUND_S,
                measure_from="restored",
            ),
        ),
    ),
    _chaos_scenario(
        name="sensor_flap",
        description=(
            "module-a's sensor device stops producing for 6 s, then "
            "resumes phase-aligned; sampling must restart within one "
            "period of the restore"
        ),
        duration_s=30.0,
        fault_plan=_sensor_flap_plan,
        recovery=(
            RecoveryCheck(
                fault_kind="sensor_flap",
                signal_event="sensor.sample",
                bound_s=2.0,
                measure_from="restored",
                source_contains="sense-a@module-a",
            ),
        ),
    ),
)


def run_scenario(
    scenario: Scenario | str,
    seed: int = 0,
    observe: bool = False,
    prepare: PrepareHook | None = None,
    profile: bool = False,
    slo: bool = False,
) -> Run:
    """Run a fault scenario through the pipeline, then check invariants.

    The instrument flags and ``prepare`` are :func:`repro.scenario.run`'s;
    the plan is injected there. What this adds is the verdict,
    :attr:`Run.report <repro.scenario.Run.report>`: the end-to-end
    delivery invariants plus the scenario's recovery bounds. The trace
    digest the determinism tests compare is left to its first reader
    (:attr:`Run.trace_digest <repro.scenario.Run.trace_digest>`).
    """
    if isinstance(scenario, str):
        from repro.registry import resolve  # late: the registry imports this module

        scenario = resolve(scenario, faults=True)
    outcome = run(
        scenario, seed=seed, observe=observe, profile=profile, slo=slo, prepare=prepare
    )
    outcome.report = Invariants(outcome.tracer, outcome.cluster).check(
        recovery=scenario.recovery
    )
    return outcome
