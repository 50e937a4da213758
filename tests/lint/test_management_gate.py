"""The pre-deployment static gate in Management (Fig. 6 step 2)."""

import pytest

from repro.core.recipe import Recipe, TaskSpec
from repro.errors import StaticCheckError
from repro.sensors.devices import FixedPayloadModel

from tests.core.conftest import ClusterHarness, harness  # noqa: F401


def rate_recipe(rate_hz):
    return Recipe(
        "hot",
        [
            TaskSpec(
                "sense",
                "sensor",
                outputs=["raw"],
                params={"device": "sample", "rate_hz": rate_hz},
                capabilities=["sensor:sample"],
            ),
            TaskSpec(
                "learn",
                "train",
                inputs=["raw"],
                params={"model": "classifier", "label_key": "label"},
            ),
        ],
    )


def cyclic_recipe_dict():
    return {
        "recipe": "loop",
        "tasks": [
            {"id": "a", "operator": "map", "inputs": ["c-out"], "outputs": ["a-out"]},
            {"id": "b", "operator": "map", "inputs": ["a-out"], "outputs": ["b-out"]},
            {"id": "c", "operator": "map", "inputs": ["b-out"], "outputs": ["c-out"]},
        ],
    }


def test_cyclic_recipe_dict_rejected_before_any_deploy(harness):  # noqa: F811
    module = harness.add_module("pi-1")
    harness.settle()
    management = harness.cluster.management
    with pytest.raises(StaticCheckError) as excinfo:
        management.submit_recipe(cyclic_recipe_dict())
    assert any(d.rule == "RCP104" for d in excinfo.value.diagnostics)
    harness.settle(2.0)
    # Rejected statically: no deploy command ever reached the module.
    assert module.agent.deploys_handled == 0
    assert module.operators == {}


def test_dangling_recipe_dict_rejected(harness):  # noqa: F811
    harness.settle()
    broken = {
        "recipe": "ghost",
        "tasks": [
            {"id": "m", "operator": "map", "inputs": ["nowhere"], "outputs": ["out"]}
        ],
    }
    with pytest.raises(StaticCheckError) as excinfo:
        harness.cluster.management.submit_recipe(broken)
    rules = {d.rule for d in excinfo.value.diagnostics}
    assert "RCP103" in rules


HOSTILE_FIELDS = [{"params": {"qos": "one"}}, {"outputs": "raw"}]


def hostile_recipe_dict(field):
    sense = {"id": "s", "operator": "sensor", "outputs": ["raw"], **field}
    return {"recipe": "hostile", "tasks": [sense, {"id": "m", "operator": "map", "inputs": ["raw"]}]}


@pytest.mark.parametrize("field", HOSTILE_FIELDS)
def test_hostile_recipe_dict_is_a_static_check_error(harness, field):  # noqa: F811
    harness.settle()
    with pytest.raises(StaticCheckError) as excinfo:
        harness.cluster.management.submit_recipe(hostile_recipe_dict(field))
    assert "RCP100" in {d.rule for d in excinfo.value.diagnostics}


@pytest.mark.parametrize("field", HOSTILE_FIELDS)
def test_remote_submit_of_hostile_recipe_is_rejected(harness, field):  # noqa: F811
    harness.add_module("pi-1")
    harness.settle()
    harness.cluster.management.module.client.publish(
        "ifot/ctl/module/pi-1/submit", {"recipe": hostile_recipe_dict(field)}, qos=1
    )
    harness.settle(2.0)
    rejected = harness.runtime.tracer.select(event="agent.recipe_rejected")
    assert rejected and "RCP100" in rejected[0].fields["rules"]
    assert not harness.runtime.tracer.select(event="mqtt.client.callback_error")


def test_rate_infeasible_allowed_by_default(harness):  # noqa: F811
    """The paper measures saturation; the gate must not forbid it."""
    module = harness.add_module("pi-1")
    module.attach_sensor("sample", FixedPayloadModel())
    harness.settle()
    assignment = harness.cluster.management.submit_recipe(rate_recipe(40))
    assert assignment is not None
    # The finding is still on the record, as a trace event.
    findings = [
        e
        for e in harness.runtime.tracer.select(event="agent.static_check")
        if "RCP110" in str(e.fields)
    ]
    assert findings


def test_rate_findings_are_traced_not_rejected(harness):  # noqa: F811
    """Rate findings never reject, per task or per module: they are traced
    as ``agent.static_check`` — only an error in the recipe itself rejects."""
    module = harness.add_module("pi-1")
    module.attach_sensor("sample", FixedPayloadModel())
    harness.settle()
    tracer = harness.runtime.tracer
    assert harness.cluster.management.submit_recipe(rate_recipe(40)) is not None
    findings = [e.fields["finding"] for e in tracer.select(event="agent.static_check")]
    assert any("error[RCP110]" in f and "task learn" in f for f in findings)
    harness.settle(2.0)
    assert module.agent.deploys_handled == 2
    # A feasible rate traces no rate finding.
    seen = len(findings)
    assert harness.cluster.management.submit_recipe(rate_recipe(5)) is not None
    assert len(tracer.select(event="agent.static_check")) == seen


def test_remote_submit_of_broken_recipe_does_not_crash_leader(harness):  # noqa: F811
    """A bad recipe shipped to a module leader is trace-rejected."""
    module = harness.add_module("pi-1")
    module.attach_sensor("sample", FixedPayloadModel())
    harness.settle()
    bad = {
        "recipe": "ghost",
        "tasks": [
            {"id": "m", "operator": "map", "inputs": ["nowhere"], "outputs": ["out"]}
        ],
    }
    harness.cluster.management.module.client.publish(
        "ifot/ctl/module/pi-1/submit", {"recipe": bad, "strategy": "load_aware"}, qos=1
    )
    harness.settle(2.0)
    rejected = harness.runtime.tracer.select(event="agent.recipe_rejected")
    assert rejected
    assert module.agent.recipes_led == 0
    # The leader is still alive and can lead a good recipe afterwards.
    harness.cluster.management.submit_recipe(rate_recipe(5), via_module="pi-1")
    harness.settle(2.0)
    assert module.agent.recipes_led == 1


def test_remote_submit_no_module_can_host_is_rejected_with_the_reason(harness):  # noqa: F811
    """A recipe no module can place, shipped to a module leader, is
    trace-rejected with the assignment error, not a generic callback error."""
    module = harness.add_module("pi-1")
    module.attach_sensor("sample", FixedPayloadModel())
    harness.settle()
    unplaceable = Recipe(
        "gpu-app",
        [
            TaskSpec("sense", "sensor", outputs=["raw"], params={"device": "sample", "rate_hz": 5}),
            TaskSpec("m", "map", inputs=["raw"], outputs=["out"], capabilities=["gpu"]),
        ],
    )
    harness.cluster.management.submit_recipe(unplaceable, via_module="pi-1")
    harness.settle(2.0)
    rejected = harness.runtime.tracer.select(event="agent.recipe_rejected")
    assert [r["error"] for r in rejected] == [
        "no module provides capabilities ['gpu'] for 'm'"
    ]
    assert harness.runtime.tracer.count("mqtt.client.callback_error") == 0
    assert module.agent.recipes_led == 0
    harness.cluster.management.submit_recipe(rate_recipe(5), via_module="pi-1")
    harness.settle(2.0)
    assert module.agent.recipes_led == 1
