"""One declaration, every tool.

The proof of the ``Scenario`` registry: a scenario no tool has ever heard
of becomes runnable by ``chaos`` (and ``--recover``), ``san``, ``prof``, ``slo``,
``trace``, ``lint --recipe`` and the parallel seed sweep by inserting one
:class:`~repro.scenario.Scenario` into :data:`repro.registry.SCENARIOS` —
and nothing else.
"""

from __future__ import annotations

import pytest

from repro.bench.parallel import run_parallel
from repro.chaos import FaultPlan, NodeCrash, build_chaos_cluster
from repro.chaos.scenarios import BURSTY_LINK, CHAOS_LINT, chaos_devices
from repro.cli import main
from repro.core.recipe import Recipe, TaskSpec
from repro.net.wlan import GilbertElliottConfig
from repro.registry import SCENARIOS
from repro.scenario import Scenario


def _throwaway_recipe() -> Recipe:
    return Recipe(
        "throwaway",
        [
            TaskSpec(
                "sense",
                "sensor",
                outputs=["raw"],
                params={"device": "sample", "rate_hz": 2.0},
                pin_to="module-a",
                capabilities=["sensor:sample"],
            ),
            TaskSpec(
                "train",
                "train",
                inputs=["raw"],
                params={"model": "classifier", "label_key": "label"},
                capabilities=["compute"],
                deadline_ms=10000,
            ),
        ],
    )


THROWAWAY = Scenario(
    name="throwaway",
    description="a bystander sensor module crash-stops at t=8 s",
    build=build_chaos_cluster,
    recipe=_throwaway_recipe,
    recipe_origin="<throwaway recipe>",
    devices=chaos_devices,
    lint=CHAOS_LINT,
    seed=0,
    duration_s=20.0,
    fault_plan=lambda cluster, app: FaultPlan(
        "bystander-crash", (NodeCrash(at=8.0, node="module-b"),)
    ),
)


@pytest.mark.slow
def test_one_declaration_reaches_every_tool(monkeypatch, capsys):
    monkeypatch.setitem(SCENARIOS, THROWAWAY.name, THROWAWAY)
    for argv in (
        ["chaos", "throwaway"],
        ["chaos", "throwaway", "--recover"],
        ["san", "throwaway", "--perturb", "1"],
        ["prof", "--scenario", "throwaway"],
        ["slo", "throwaway"],
        ["trace", "--pipeline", "throwaway", "--summary"],
        ["lint", "--recipe", "throwaway", "--deadline"],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert main(["chaos", "--list"]) == 0
    assert THROWAWAY.description in capsys.readouterr().out
    rows = run_parallel("throwaway", [0, 1])
    assert [row["seed"] for row in rows] == [0, 1]
    assert all(row["invariants_ok"] and row["faults_applied"] == 1 for row in rows)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_declared_devices_are_what_the_testbed_attaches(name):
    """``device_keys()`` and the builder read one table, so the payload
    checker's view of a scenario cannot drift from what runs."""
    scenario = SCENARIOS[name]
    _runtime, cluster = scenario.build(seed=scenario.seed, prepare=None)
    attached = {
        device: model.channel_keys()
        for module in cluster.modules.values()
        for device, model in module.sensors.items()
    }
    assert attached == scenario.device_keys()


def test_stationary_loss_weights_both_states():
    link = GilbertElliottConfig(p_enter=0.1, p_exit=0.3, loss_bad=0.8, loss_good=0.04)
    assert link.stationary_loss() == pytest.approx(0.25 * 0.8 + 0.75 * 0.04)


def test_chaos_lint_context_loss_is_the_bursty_links_stationary_loss():
    """The context writes the loss as a literal (printed bounds must not
    move by one ulp); this pins it to the link it was derived from."""
    assert SCENARIOS["failover"].lint_context().loss_rate == pytest.approx(
        BURSTY_LINK.stationary_loss(), abs=1e-9
    )
