"""The control plane's reconciler, as properties.

``ManagementNode.reconcile`` issues the difference between where the led
sub-tasks run and :func:`repro.core.healing.desired`. Driven through short
chaos-plan-style sequences (crash, restart, partition, heal, submit, stop)
on a 2 sensor + 3 compute module cluster, it must have converged after
every settle: a second pass issues nothing, and the leader's placements
are what ``desired()`` asks for. ``desired()`` itself is checked alone on
arbitrary placements, homes and live sets.
"""

from __future__ import annotations

import contextlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.calibration import pi_cost_model
from repro.chaos.scenarios import BROKER_NODE
from repro.core.assignment import Assignment, ModuleInfo
from repro.core.healing import LedApp, desired
from repro.core.middleware import IFoTCluster
from repro.core.recipe import Recipe, TaskSpec
from repro.core.splitter import RecipeSplit
from repro.errors import AssignmentError
from repro.runtime.sim import SimRuntime
from repro.sensors.devices import FixedPayloadModel

SENSORS = ("module-a", "module-b")
COMPUTES = ("module-c", "module-d", "module-e")
MODULES = SENSORS + COMPUTES
APPS = ("app-1", "app-2")
#: Long enough for a tombstone (keep-alive 2 s), a settle (one 2 s
#: heartbeat) and a fail-back handoff, or its 6 s timeout, to finish.
SETTLE_S = 15.0


def recipe(name: str) -> Recipe:
    """Sensing on ``module-a``; dedup and a learner anywhere with compute."""
    return Recipe(
        name,
        [
            TaskSpec(
                "sense",
                "sensor",
                outputs=["raw"],
                params={"device": "sample", "rate_hz": 2},
                pin_to="module-a",
                capabilities=["sensor:sample"],
            ),
            TaskSpec("dedup", "dedup", inputs=["raw"], outputs=["clean"], capabilities=["compute"]),
            TaskSpec(
                "train",
                "train",
                inputs=["clean"],
                params={"model": "classifier", "label_key": "label"},
                capabilities=["compute"],
            ),
        ],
    )


def build() -> tuple[SimRuntime, IFoTCluster]:
    runtime = SimRuntime(seed=5)
    cluster = IFoTCluster(
        runtime,
        broker_node_name=BROKER_NODE,
        heartbeat_s=2.0,
        auto_failover=True,
        client_keepalive_s=2.0,
        auto_reconnect=True,
        broker_params={"sweep_interval_s": 1.0, "retry_interval_s": 0.5, "max_retries": 8},
    )
    for name in SENSORS:
        cluster.add_module(name).attach_sensor("sample", FixedPayloadModel(values=3))
    for name in COMPUTES:
        cluster.add_module(name, extra_capabilities={"compute"})
    cluster.settle(3.0)
    return runtime, cluster


def apply(runtime: SimRuntime, cluster: IFoTCluster, step: tuple[str, str]) -> None:
    verb, target = step
    mgmt = cluster.management
    if verb == "crash" and cluster.module(target).node.alive:
        cluster.module(target).node.fail()
    elif verb == "restart":
        cluster.restart_module(target)
    elif verb == "partition":
        runtime.wlan.partition([target], [BROKER_NODE])
    elif verb == "heal" and runtime.wlan.is_blocked(target, BROKER_NODE):
        runtime.wlan.heal([target], [BROKER_NODE])
    elif verb == "submit" and target not in mgmt._led:
        with contextlib.suppress(AssignmentError):  # its sensor or every compute module is down
            cluster.submit(recipe(target))
    elif verb == "stop" and target in mgmt._led:
        mgmt.stop_application(target)


#: Faults land on the compute modules and on module-a, where both
#: applications sense (module-b hosts nothing).
steps = st.one_of(
    st.tuples(
        st.sampled_from(["crash", "restart", "partition", "heal"]),
        st.sampled_from(COMPUTES + SENSORS[:1]),
    ),
    st.tuples(st.sampled_from(["submit", "stop"]), st.sampled_from(APPS)),
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(steps, min_size=2, max_size=5))
def test_every_settle_reaches_desired_and_a_second_pass_issues_nothing(plan):
    runtime, cluster = build()
    mgmt = cluster.management
    cluster.submit(recipe(APPS[0]))
    cluster.settle(3.0)
    for step in [*plan, ("heal", "*")]:
        if step == ("heal", "*"):
            runtime.wlan.heal()
        else:
            apply(runtime, cluster, step)
        cluster.settle(SETTLE_S)
        assert mgmt._migrations == {}, step
        assert mgmt.reconcile() == [], step
        want, _plan = desired(
            mgmt._led,
            mgmt.directory.module_infos(),
            mgmt._settling,
            mgmt.module.node.cost_model,
        )
        assert {name: app.assignment.placements for name, app in mgmt._led.items()} == want
    assert runtime.tracer.count("mqtt.client.callback_error") == 0


# ----------------------------------------------------------------------
# desired() alone
# ----------------------------------------------------------------------

SPLIT = {s.subtask_id: s for s in RecipeSplit().split(recipe("app"))}
CAPABILITIES = {name: {"sensor:sample"} for name in SENSORS} | {
    name: {"compute"} for name in COMPUTES
}


@st.composite
def worlds(draw):
    """Led applications with arbitrary placements and homes (a pinned
    sub-task is on its pin), a live subset and a settling subset."""
    led = {}
    for name in draw(st.lists(st.sampled_from(APPS), unique=True, max_size=2)):
        placements, home = {}, {}
        for sid, subtask in SPLIT.items():
            anywhere = st.sampled_from(MODULES)
            placements[sid] = subtask.pin_to or draw(anywhere)
            home[sid] = subtask.pin_to or draw(anywhere)
        led[name] = LedApp(recipe(name), Assignment(placements=placements), dict(SPLIT), home)
    live = draw(st.lists(st.sampled_from(MODULES), unique=True))
    infos = [ModuleInfo(m, capabilities=set(CAPABILITIES[m])) for m in sorted(live)]
    settling = set(draw(st.lists(st.sampled_from(MODULES), unique=True)))
    return led, infos, settling


@settings(max_examples=200, deadline=None)
@given(worlds())
def test_desired_moves_only_orphans_and_homecomings(world):
    led, live, settling = world
    before = {name: dict(app.assignment.placements) for name, app in led.items()}
    placement, plan = desired(led, live, settling, pi_cost_model())
    assert {name: dict(app.assignment.placements) for name, app in led.items()} == before
    hosts = {m.name: m for m in live}
    shed = {load.application for load in plan.shed}
    assert set(placement) == set(led) - shed
    for name, where in placement.items():
        app = led[name]
        for sid, host in app.assignment.placements.items():
            subtask, target, home = app.subtasks[sid], where[sid], app.home[sid]
            if subtask.pin_to is not None and host not in hosts:
                assert target == host  # pinned to a dead module: never moved
            if host in hosts and target != host:
                # a sub-task on a live module moves only to its live, settled home
                assert target == home and home not in settling
            if target != host:
                assert target in hosts and hosts[target].can_host(subtask)
            elif host not in hosts:
                # stranded: nothing live can host it
                assert subtask.pin_to or not any(m.can_host(subtask) for m in live)
