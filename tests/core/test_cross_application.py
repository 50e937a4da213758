"""Secondary / tertiary use of curated streams (paper §VI goal (b)).

A second application consumes a first application's *output* stream via
an external reference (``"app1:stream"``) without touching app1's recipe
or redeploying anything.
"""

import pytest

from repro.core.recipe import Recipe, TaskSpec
from repro.errors import RecipeError
from repro.sensors.devices import AlertActuator, FixedPayloadModel

from .conftest import make_subtask


def test_recipe_accepts_external_references():
    recipe = Recipe(
        "consumer",
        [
            TaskSpec(
                "reuse",
                "map",
                inputs=["producer-app:curated"],
                outputs=["local"],
                params={"fn": "identity"},
            )
        ],
    )
    # External inputs impose no stage dependency.
    assert recipe.stages() == [["reuse"]]


def test_malformed_external_reference_rejected():
    with pytest.raises(RecipeError, match="malformed external"):
        Recipe(
            "bad",
            [TaskSpec("t", "map", inputs=[":stream"], params={"fn": "identity"})],
        )
    with pytest.raises(RecipeError, match="malformed external"):
        Recipe(
            "bad2",
            [TaskSpec("t", "map", inputs=["app:"], params={"fn": "identity"})],
        )


def test_dsl_supports_external_references():
    from repro.core.dsl import format_recipe, parse_recipe

    text = """
recipe consumer
task reuse : map
    in producer-app:curated
    out local
    fn = identity
"""
    recipe = parse_recipe(text)
    assert recipe.tasks["reuse"].inputs == ["producer-app:curated"]
    clone = parse_recipe(format_recipe(recipe))
    assert clone.tasks["reuse"].inputs == ["producer-app:curated"]


def test_secondary_use_end_to_end(harness):
    """App2 consumes app1's judged stream and raises alerts from it."""
    module = harness.add_module("pi-1")
    module.attach_sensor("sample", FixedPayloadModel())
    pager_module = harness.add_module("pi-2")
    pager = AlertActuator()
    pager_module.attach_actuator("pager", pager)
    harness.settle()

    producer = Recipe(
        "producer-app",
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
                outputs=["curated"],
                params={
                    "model": "classifier",
                    "label_key": "label",
                    "train_on_stream": True,
                },
            ),
        ],
    )
    consumer = Recipe(
        "consumer-app",
        [
            TaskSpec(
                "alerts",
                "command",
                inputs=["producer-app:curated"],
                outputs=["cmds"],
                params={
                    "rules": [
                        {
                            "when": {"key": "label", "eq": "hi"},
                            "command": {"message": "hi seen"},
                        }
                    ]
                },
            ),
            TaskSpec(
                "pager",
                "actuator",
                inputs=["cmds"],
                params={"device": "pager"},
                capabilities=["actuator:pager"],
            ),
        ],
    )
    app1 = harness.cluster.submit(producer)
    app2 = harness.cluster.submit(consumer)
    harness.settle(5.0)
    assert len(pager.alerts) > 5  # half the samples are labelled "hi"
    # Stopping the consumer must not disturb the producer.
    app2.stop()
    harness.settle(1.0)
    judged_before = harness.runtime.tracer.count("ml.judged")
    harness.settle(2.0)
    assert harness.runtime.tracer.count("ml.judged") > judged_before
    app1.stop()


def test_external_reference_shard_filter_applies(harness):
    """Sharded consumers of an external stream still partition records."""
    module = harness.add_module("pi-1")
    outs = [harness.collect(f"out{i}", application="consumer") for i in range(2)]
    for i in range(2):
        module.deploy(
            "consumer",
            make_subtask(
                f"reuse#{i}",
                "map",
                inputs=["other:feed"],
                outputs=[f"out{i}"],
                params={"fn": "identity"},
                shard_index=i,
                shard_count=2,
            ),
        )
    harness.settle(0.5)
    for i in range(20):
        harness.inject("feed", {"v": 1.0}, sample_id=f"x{i}", application="other")
    harness.settle()
    got0 = {r.sample_id for r in outs[0]}
    got1 = {r.sample_id for r in outs[1]}
    assert got0 | got1 == {f"x{i}" for i in range(20)}
    assert got0.isdisjoint(got1)
