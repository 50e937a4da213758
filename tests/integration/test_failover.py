"""Automatic failover: orphaned sub-tasks move to surviving modules."""

import pytest

from repro.core.middleware import IFoTCluster
from repro.core.recipe import Recipe, TaskSpec
from repro.runtime.sim import SimRuntime
from repro.sensors.devices import FixedPayloadModel


def failover_cluster(seed=17):
    runtime = SimRuntime(seed=seed)
    cluster = IFoTCluster(runtime, heartbeat_s=2.0, auto_failover=True)
    sensor_module = cluster.add_module("pi-sense")
    sensor_module.attach_sensor("sample", FixedPayloadModel())
    cluster.add_module("pi-w1")
    cluster.add_module("pi-w2")
    # Short keepalives so crash detection is fast in virtual time.
    for module in cluster.modules.values():
        module.client.keepalive_s = 2.0
        module.client.refresh_session()
    cluster.settle(2.0)
    return runtime, cluster


def recipe():
    return Recipe(
        "app",
        [
            TaskSpec(
                "sense",
                "sensor",
                outputs=["raw"],
                params={"device": "sample", "rate_hz": 10},
                capabilities=["sensor:sample"],
            ),
            TaskSpec(
                "judge",
                "predict",
                inputs=["raw"],
                params={
                    "model": "classifier",
                    "label_key": "label",
                    "train_on_stream": True,
                },
            ),
        ],
    )


def judged_between(tracer, start, end):
    return sum(1 for r in tracer.select("ml.judged") if start <= r.time < end)


def test_judge_task_moves_to_surviving_module():
    runtime, cluster = failover_cluster()
    app = cluster.submit(recipe())
    cluster.settle(2.0)
    judge_host = app.assignment.module_for("judge")
    assert judge_host in ("pi-w1", "pi-w2", "pi-sense")
    runtime.run(until=runtime.now + 3.0)
    before = runtime.tracer.count("ml.judged")
    assert before > 10

    cluster.module(judge_host).node.fail()
    kill_time = runtime.now
    runtime.run(until=runtime.now + 25.0)

    moved = runtime.tracer.select("mgmt.failover_moved")
    assert len(moved) == 1
    assert moved[0]["subtask"] == "judge"
    assert moved[0]["from_module"] == judge_host
    new_host = moved[0]["to_module"]
    assert new_host != judge_host
    # The assignment record was updated...
    assert cluster.management._led["app"].assignment.module_for("judge") == new_host
    # ...and judging actually resumed on the new host.
    resumed = judged_between(runtime.tracer, kill_time + 15.0, runtime.now)
    assert resumed > 10
    assert cluster.management.failovers_performed == 1


def test_pinned_subtasks_are_not_moved():
    runtime, cluster = failover_cluster(seed=18)
    pinned = Recipe(
        "pinned-app",
        [
            TaskSpec(
                "sense",
                "sensor",
                outputs=["raw"],
                params={"device": "sample", "rate_hz": 5},
                pin_to="pi-sense",
                capabilities=["sensor:sample"],
            ),
        ],
    )
    cluster.submit(pinned)
    cluster.settle(2.0)
    cluster.module("pi-sense").node.fail()
    runtime.run(until=runtime.now + 25.0)
    assert runtime.tracer.count("mgmt.failover_moved") == 0
    assert runtime.tracer.count("mgmt.failover_pinned") == 1
    assert cluster.management.failovers_performed == 0


def test_failover_disabled_by_default():
    runtime = SimRuntime(seed=19)
    cluster = IFoTCluster(runtime, heartbeat_s=2.0)  # auto_failover=False
    sensor_module = cluster.add_module("pi-sense")
    sensor_module.attach_sensor("sample", FixedPayloadModel())
    cluster.add_module("pi-w1")
    for module in cluster.modules.values():
        module.client.keepalive_s = 2.0
        module.client.refresh_session()
    cluster.settle(2.0)
    app = cluster.submit(recipe())
    cluster.settle(2.0)
    judge_host = app.assignment.module_for("judge")
    cluster.module(judge_host).node.fail()
    runtime.run(until=runtime.now + 25.0)
    assert runtime.tracer.count("mgmt.failover_moved") == 0


def test_membership_watch_fires_for_join_and_leave():
    runtime, cluster = failover_cluster(seed=20)
    events = []
    cluster.management.directory.watch_members(
        lambda name, alive: events.append((name, alive))
    )
    late = cluster.add_module("pi-late")
    late.client.keepalive_s = 2.0
    late.client.refresh_session()
    cluster.settle(3.0)
    assert ("pi-late", True) in events
    late.node.fail()
    runtime.run(until=runtime.now + 25.0)
    assert ("pi-late", False) in events


def test_failover_judge_recovers_model_from_retained_snapshot():
    """A judge configured with model_from picks the last retained model
    snapshot straight back up on its new host after failover — the online
    model survives the crash even though operator state does not."""
    runtime, cluster = failover_cluster(seed=21)
    app_recipe = Recipe(
        "snap-app",
        [
            TaskSpec(
                "sense",
                "sensor",
                outputs=["raw"],
                params={"device": "sample", "rate_hz": 10},
                pin_to="pi-sense",
                capabilities=["sensor:sample"],
            ),
            TaskSpec(
                "learn",
                "train",
                inputs=["raw"],
                params={
                    "model": "classifier",
                    "label_key": "label",
                    "publish_model_every": 10,
                },
                pin_to="pi-sense",  # keep the learner safe from the crash
            ),
            TaskSpec(
                "judge",
                "predict",
                inputs=["raw"],
                params={
                    "model": "classifier",
                    "label_key": "label",
                    "model_from": "learn",
                },
            ),
        ],
    )
    app = cluster.submit(app_recipe)
    cluster.settle(2.0)
    victim = app.assignment.module_for("judge")
    assert victim in ("pi-w1", "pi-w2")
    runtime.run(until=runtime.now + 3.0)
    cluster.module(victim).node.fail()
    runtime.run(until=runtime.now + 25.0)
    moved = runtime.tracer.select("mgmt.failover_moved")
    assert moved and moved[0]["subtask"] == "judge"
    new_host = cluster.module(moved[0]["to_module"])
    operator = new_host.operators["snap-app/judge"]
    # The replacement judge loaded the retained snapshot and judges with
    # a real model (judged=True), not the unjudged pass-through.
    assert operator.model_loads >= 1
    runtime.run(until=runtime.now + 2.0)
    assert operator.records_judged > 5


def test_orphan_goes_to_the_survivor_with_the_lowest_predicted_load():
    """Re-placement prices the survivors from the leader's own assignment
    table: a 2 Hz predictor is 4 load points but 0.04 CPU-s/s, a 40 Hz map
    1 point but 0.22 — the orphaned map joins the predictor, where load
    points alone would have sent it beside the other map."""
    from repro.bench.calibration import pi_cost_model

    runtime = SimRuntime(seed=17, cost_model=pi_cost_model())
    cluster = IFoTCluster(runtime, heartbeat_s=2.0, auto_failover=True)
    for name in ("pi-fast", "pi-slow"):
        cluster.add_module(name).attach_sensor("sample", FixedPayloadModel())
    workers = ("pi-w1", "pi-w2", "pi-w3")
    for name in workers:
        cluster.add_module(name, extra_capabilities={"compute"})
    for module in cluster.modules.values():
        module.client.keepalive_s = 2.0
        module.client.refresh_session()
    cluster.settle(2.0)

    def sensor(task_id, module, stream, rate_hz):
        params = {"device": "sample", "rate_hz": rate_hz}
        return TaskSpec(task_id, "sensor", outputs=[stream], params=params, pin_to=module)

    def worker(task_id, operator, stream, **params):
        return TaskSpec(
            task_id, operator, inputs=[stream], params=params, capabilities=["compute"]
        )

    app = cluster.submit(
        Recipe(
            "mixed",
            [
                sensor("sense-fast", "pi-fast", "fast", 40),
                sensor("sense-slow", "pi-slow", "slow", 2),
                worker("shape-1", "map", "fast"),
                worker("shape-2", "map", "fast"),
                worker("judge", "predict", "slow", model="classifier", label_key="label"),
            ],
        )
    )
    cluster.settle(3.0)
    # Heaviest first: the two maps take a worker each, the predictor the third.
    assert [app.assignment.module_for(t) for t in ("shape-1", "shape-2", "judge")] == list(
        workers
    )
    cluster.module("pi-w2").node.fail()
    cluster.settle(12.0)
    moved = runtime.tracer.select(event="mgmt.failover_moved")
    assert [(r["subtask"], r["to_module"]) for r in moved] == [("shape-2", "pi-w3")]


def compute_cluster(keepalive_s, computes, seed=23):
    """module-a senses; each of ``computes`` is a ``compute`` module."""
    runtime = SimRuntime(seed=seed)
    cluster = IFoTCluster(
        runtime, heartbeat_s=2.0, auto_failover=True, client_keepalive_s=keepalive_s
    )
    cluster.add_module("module-a").attach_sensor("sample", FixedPayloadModel())
    for name in computes:
        cluster.add_module(name, extra_capabilities={"compute"})
    cluster.settle(3.0)
    return runtime, cluster


def training_recipe(name):
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
            TaskSpec(
                "train",
                "train",
                inputs=["raw"],
                params={"model": "classifier", "label_key": "label"},
                capabilities=["compute"],
            ),
        ],
    )


@pytest.mark.parametrize(
    ("keepalive_s", "verdict"),
    [(60.0, "detector.confirm"), (2.0, "detector.forget")],
    ids=["detector-first", "tombstone-first"],
)
def test_failover_with_no_capable_survivor_strands_and_waits(keepalive_s, verdict):
    """The only compute module dies under two applications. Whichever path
    notices first (the phi-accrual verdict under a long keep-alive, the
    broker's tombstone under a short one), each orphan is traced stranded
    once and left placed, nothing raises, and a compute module that joins
    later takes both."""
    runtime, cluster = compute_cluster(keepalive_s, ["module-c"])
    apps = [cluster.submit(training_recipe(name)) for name in ("app-1", "app-2")]
    cluster.settle(3.0)
    assert [app.assignment.module_for("train") for app in apps] == ["module-c"] * 2
    cluster.module("module-c").node.fail()
    cluster.settle(45.0)  # past the verdict and the directory's TTL
    assert runtime.tracer.count(verdict) >= 1
    stranded = runtime.tracer.select(event="mgmt.failover_stranded")
    assert [(r["application"], r["subtask"], r["module"]) for r in stranded] == [
        ("app-1", "train", "module-c"),
        ("app-2", "train", "module-c"),
    ]
    assert runtime.tracer.count("mgmt.callback_error") == 0
    assert runtime.tracer.count("mqtt.client.callback_error") == 0
    assert [app.assignment.module_for("train") for app in apps] == ["module-c"] * 2
    cluster.add_module("module-e", extra_capabilities={"compute"})
    cluster.settle(5.0)
    moved = runtime.tracer.select(event="mgmt.failover_moved")
    assert [(r["application"], r["from_module"], r["to_module"]) for r in moved] == [
        ("app-1", "module-c", "module-e"),
        ("app-2", "module-c", "module-e"),
    ]
    assert {"app-1/train", "app-2/train"} <= set(cluster.module("module-e").operators)
    assert runtime.tracer.count("mgmt.failover_stranded") == 2


def test_fail_back_after_two_failovers_goes_to_the_home_module():
    """``train`` starts on module-c; c dies, so it moves to d; d dies, so
    it moves to e. d's restart must not pull it over (d was only ever a
    stand-in); c's restart, its home, brings it back."""
    computes = ["module-c", "module-d", "module-e"]
    runtime, cluster = compute_cluster(2.0, computes)
    app = cluster.submit(training_recipe("app"))
    cluster.settle(3.0)
    home = app.assignment.module_for("train")
    first, second = [name for name in computes if name != home]
    for victim in (home, first):
        cluster.module(victim).node.fail()
        cluster.settle(12.0)
    moved = runtime.tracer.select(event="mgmt.failover_moved")
    assert [(r["from_module"], r["to_module"]) for r in moved] == [(home, first), (first, second)]
    cluster.restart_module(first)
    cluster.settle(12.0)
    assert runtime.tracer.count("migrate.start") == 0
    assert app.assignment.module_for("train") == second
    cluster.restart_module(home)
    cluster.settle(12.0)
    started = runtime.tracer.select(event="migrate.start")
    assert [(r["from_module"], r["to_module"]) for r in started] == [(second, home)]
    assert runtime.tracer.count("migrate.done") == 1
    assert app.assignment.module_for("train") == home
    assert [n for n in computes if "app/train" in cluster.module(n).operators] == [home]
