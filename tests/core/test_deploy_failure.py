"""A deploy command whose operator rejects its params fails as a deploy.

The operator's ``configure`` raises :class:`~repro.errors.RecipeError`; the
module agent must trace ``agent.deploy_failed`` with that message rather
than let the error escape into the MQTT client's callback isolation, where
it was only a ``mqtt.client.callback_error``.
"""

from __future__ import annotations

import pytest

from .conftest import APP, make_subtask


@pytest.mark.parametrize("kind", ["knn", "bogus"])
def test_unknown_model_kind_is_a_traced_deploy_failure(harness, kind):
    module = harness.add_module("pi-analysis")
    harness.settle()
    harness.cluster.management.module.client.publish(
        "ifot/ctl/module/pi-analysis/deploy",
        {
            "application": "elderly",
            "subtask": make_subtask(
                "fall-detector", "predict", inputs=["features"],
                outputs=["falls"], params={"model": kind},
            ).to_dict(),
        },
    )
    harness.settle()
    tracer = harness.runtime.tracer
    failed = tracer.select("agent.deploy_failed")
    assert len(failed) == 1
    assert failed[0].fields["subtask"] == "fall-detector"
    assert "['anomaly', 'classifier']" in failed[0].fields["error"]
    assert tracer.count("mqtt.client.callback_error") == 0
    assert module.operators == {}


def test_a_rejected_deploy_leaves_no_subscription_behind(harness):
    """The params are parsed before the operator subscribes: records on
    the input stream of a rejected sub-task reach no half-built operator."""
    harness.add_module("pi-analysis")
    harness.settle()
    harness.cluster.management.module.client.publish(
        "ifot/ctl/module/pi-analysis/deploy",
        {
            "application": APP,
            "subtask": make_subtask(
                "fall-detector", "predict", inputs=["features"],
                params={"model": "bogus"},
            ).to_dict(),
        },
    )
    harness.settle()
    for value in (1.0, 2.0, 3.0):
        harness.inject("features", {"v": value})
    harness.settle()
    tracer = harness.runtime.tracer
    assert tracer.count("agent.deploy_failed") == 1
    assert tracer.count("operator.error") == 0
