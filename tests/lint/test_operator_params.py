"""A malformed operator param is a static finding, not a deploy failure.

Each operator's ``settings`` classmethod is the one parse of its params:
deploy, admission and every lint pass share it. One malformed param per
registered operator must therefore be one RCP100 from the recipe checker,
leave the walk and the passes built on it standing, and be rejected by
admission before any deploy command goes out — locally as a
:class:`StaticCheckError`, remotely as ``agent.recipe_rejected``.

``merge`` has no case: its one param, ``require_all``, is read for its
truth value, so no value of it is malformed.
"""

import json

import pytest

from repro.cli import main
from repro.core.operators import StreamOperator, operator_class, registered_operators
from repro.core.recipe import Recipe, TaskSpec
from repro.errors import StaticCheckError
from repro.lint import analyze_latency, check_recipe, check_recipe_payloads
from repro.lint.latency import LatencyContext
from repro.lint.rates import walk
from repro.sensors.devices import FixedPayloadModel

from tests.core.conftest import ClusterHarness

SENSE = {"device": "sample", "rate_hz": 5}

#: (operator, params, the malformed param)
CASES = [
    ("window", {"mode": "bogus"}, "mode"),
    ("window", {"mode": "count", "count": 0}, "count"),
    ("map", {"fn": "bogus"}, "fn"),
    ("filter", {"key": "v", "value": 1, "op": "between"}, "op"),
    ("stat", {"keys": ["v"], "stats": ["median"]}, "stats"),
    ("stat", {"keys": ["v"], "window": "big"}, "window"),
    ("command", {"rules": []}, "rules"),
    ("ewma", {"alpha": 2}, "alpha"),
    ("delta", {"key": "v", "min_change": "lots"}, "min_change"),
    ("throttle", {"interval_s": "soon"}, "interval_s"),
    ("dedup", {"window": 0}, "window"),
    ("train", {"model": "bogus"}, "model"),
    ("predict", {"model": "anomaly", "detector": "lof"}, "detector"),
    ("predict", {"model": "anomaly", "threshold": "high"}, "threshold"),
    ("mix", {"group": "g", "participants": ["p"], "min_quorum": 0}, "min_quorum"),
    ("sensor", {**SENSE, "rate_hz": "fast"}, "rate_hz"),
    ("sensor", {**SENSE, "burst": "many"}, "burst"),
    ("actuator", {}, "device"),
]
IDS = [f"{operator}-{param}" for operator, _params, param in CASES]


def sense(params=SENSE):
    return TaskSpec(
        "sense", "sensor", outputs=["raw"], params=params,
        capabilities=["sensor:sample"],
    )


def bad_recipe(operator, params):
    """A valid sensor feeding the task under test (or that task is the
    sensor, or a stand-alone mix)."""
    if operator == "sensor":
        return Recipe("bad", [sense(params), TaskSpec("m", "map", inputs=["raw"])])
    if operator == "mix":
        return Recipe("bad", [TaskSpec("bad", "mix", params=params)])
    outputs = [] if operator == "actuator" else ["out"]
    task = TaskSpec("bad", operator, inputs=["raw"], outputs=outputs, params=params)
    return Recipe("bad", [sense(), task])


def good_recipe():
    return Recipe("good", [sense(), TaskSpec("m", "map", inputs=["raw"])])


def test_every_shipped_operator_but_merge_has_a_case():
    shipped = {
        name
        for name in registered_operators()
        if operator_class(name).__module__.startswith("repro.core.")
    }
    assert {operator for operator, _p, _n in CASES} == shipped - {"merge"}


@pytest.mark.parametrize("operator, params, param", CASES, ids=IDS)
def test_the_checker_reports_one_rcp100_naming_task_and_param(operator, params, param):
    recipe = bad_recipe(operator, params)
    task_id = "sense" if operator == "sensor" else "bad"
    findings = [d for d in check_recipe(recipe) if d.rule == "RCP100"]
    assert len(findings) == 1
    assert findings[0].where == f"bad:task {task_id}"
    assert f"'{param}'" in findings[0].message
    # The walk and every pass on it treat the task as opaque.
    assert walk(recipe)[task_id].cls is StreamOperator
    check_recipe_payloads(recipe)
    analyze_latency(recipe, LatencyContext())


@pytest.mark.parametrize("operator, params, param", CASES, ids=IDS)
def test_the_cli_rejects_it(operator, params, param, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad_recipe(operator, params).to_dict()))
    assert main(["lint", "--recipe", str(path), "--strict"]) == 1
    assert "error[RCP100]" in capsys.readouterr().out
    assert main(["validate", str(path)]) == 1
    assert f"'{param}'" in capsys.readouterr().out


@pytest.mark.parametrize("operator, params, param", CASES, ids=IDS)
def test_admission_rejects_it_before_any_deploy(operator, params, param):
    harness = ClusterHarness()
    module = harness.add_module("pi-1")
    module.attach_sensor("sample", FixedPayloadModel())
    harness.settle()
    recipe = bad_recipe(operator, params)
    with pytest.raises(StaticCheckError) as excinfo:
        harness.cluster.submit(recipe)
    assert "RCP100" in {d.rule for d in excinfo.value.diagnostics}
    harness.cluster.submit(recipe, via_module="pi-1")
    harness.settle(2.0)
    tracer = harness.runtime.tracer
    rejected = tracer.select(event="agent.recipe_rejected")
    assert len(rejected) == 1 and "RCP100" in rejected[0].fields["rules"]
    for event in ("agent.deploy_failed", "mqtt.client.callback_error", "sensor.sample"):
        assert tracer.count(event) == 0, event
    assert module.agent.deploys_handled == 0
    # The leader stays up and leads the next, good recipe.
    harness.cluster.submit(good_recipe(), via_module="pi-1")
    harness.settle(2.0)
    assert module.agent.recipes_led == 1
    assert tracer.count("sensor.sample") > 0
