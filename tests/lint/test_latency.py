"""The static latency-bound analyzer (RCP240-RCP244).

Unit coverage for the network-calculus abstract interpretation plus the
acceptance anchors the issue demands: the shipped Fig. 5 recipe passes
``--deadline --strict`` at paper rates, doubling every sensing rate
trips the instability rule, observed fig5 and failover runs validate
clean, and a deliberately miscalibrated service model is demonstrably
caught by the soundness gate.
"""

import math

import pytest

from repro.bench.calibration import pi_cost_model, pi_wlan_config
from repro.bench.scenarios import FIG5_RECIPE_PATH, build_paper_recipe
from repro.chaos.scenarios import MODULE_RECOVERY_BOUND_S, build_chaos_recipe
from repro.core.dsl import parse_recipe
from repro.core.recipe import Recipe, TaskSpec
from repro.core.splitter import RecipeSplit
from repro.lint.latency import (
    LATENCY_RULES,
    LatencyContext,
    analyze_latency,
    check_bound_soundness,
    check_deadlines,
    flows_from_trace,
)
from repro.net.wlan import WlanConfig
from repro.runtime.costs import CostModel, OpCost

def chain_recipe(
    rate_hz: float = 5.0,
    burst: float = 1.0,
    deadline_ms: float | None = None,
) -> Recipe:
    """sensor -> map -> actuator, the minimal three-hop flow."""
    return Recipe(
        "chain",
        [
            TaskSpec(
                "sense",
                "sensor",
                outputs=["raw"],
                params={"device": "d", "rate_hz": rate_hz, "burst": burst},
            ),
            TaskSpec("shape", "map", inputs=["raw"], outputs=["shaped"]),
            TaskSpec(
                "act",
                "actuator",
                inputs=["shaped"],
                params={"device": "d"},
                deadline_ms=deadline_ms,
            ),
        ],
    )


def fig5_recipe() -> Recipe:
    return parse_recipe(FIG5_RECIPE_PATH.read_text())


def fig5_context(**overrides) -> LatencyContext:
    return LatencyContext(cost_model=pi_cost_model(), **overrides)


class TestAnalysis:
    def test_chain_bound_finite_and_ordered(self):
        analysis = analyze_latency(chain_recipe(), fig5_context())
        flows = analysis.flows
        assert flows["act"].derivable
        assert 0.0 < flows["sense"].bound_s < flows["shape"].bound_s
        assert flows["shape"].bound_s < flows["act"].bound_s < math.inf
        assert all(bound.stable for bound in analysis.resources.values())

    def test_sinks_are_flow_endpoints_only(self):
        analysis = analyze_latency(chain_recipe(), fig5_context())
        assert set(analysis.sinks()) == {"act"}
        assert set(analyze_latency(fig5_recipe(), fig5_context()).sinks()) == {
            "alert-messaging"
        }

    def test_bound_includes_disruption_allowance(self):
        base = analyze_latency(chain_recipe(), fig5_context())
        disrupted = analyze_latency(
            chain_recipe(), fig5_context(disruption_allowance_s=6.0)
        )
        assert disrupted.flows["act"].bound_s == pytest.approx(
            base.flows["act"].bound_s + 6.0
        )
        # The steady-state bound RCP244 judges excludes the allowance.
        assert disrupted.flows["act"].steady_bound_s == pytest.approx(
            base.flows["act"].steady_bound_s
        )

    def test_qos1_loss_amplifies_shared_network_load(self):
        def wlan_util(loss):
            recipe = Recipe(
                "amp",
                [
                    TaskSpec(
                        "sense",
                        "sensor",
                        outputs=["raw"],
                        params={"device": "d", "rate_hz": 10.0, "qos": 1},
                    ),
                    TaskSpec("sink", "train", inputs=["raw"], params={"model": "classifier", "label_key": "y", "emit_info": False}),
                ],
            )
            ctx = fig5_context(loss_rate=loss)
            return analyze_latency(recipe, ctx).resources["wlan"].utilization

        assert wlan_util(0.5) == pytest.approx(2.0 * wlan_util(0.0) / 1.0, rel=0.5)
        assert wlan_util(0.5) > wlan_util(0.2) > wlan_util(0.0)

    def test_total_loss_starves_qos1_flow(self):
        recipe = Recipe(
            "starved",
            [
                TaskSpec(
                    "sense",
                    "sensor",
                    outputs=["raw"],
                    params={"device": "d", "rate_hz": 5.0, "qos": 1},
                ),
                TaskSpec(
                    "act",
                    "actuator",
                    inputs=["raw"],
                    params={"device": "d"},
                    deadline_ms=1000,
                ),
            ],
        )
        diags = check_deadlines(recipe, fig5_context(loss_rate=1.0))
        # Infinite retry demand saturates the shared network hops (RCP241)
        # and leaves the deadline's bound undeliverable (RCP242).
        assert {d.rule for d in diags} == {"RCP241", "RCP242"}

    def test_deadline_does_not_change_deploy_payload(self):
        """deadline_ms is lint-only: the wire form of subtasks is identical."""
        with_deadline = chain_recipe(deadline_ms=1000)
        without = chain_recipe()
        wire = lambda recipe: [
            sub.to_dict() for sub in RecipeSplit().split(recipe)
        ]
        assert wire(with_deadline) == wire(without)


class TestDeadlineRules:
    def test_acceptance_anchor_pair(self):
        """One parameter flips the verdict: 5 Hz meets the budget, 50 Hz
        misses it — everything else identical."""
        context = fig5_context()
        ok_bound = analyze_latency(chain_recipe(rate_hz=5.0), context).flows[
            "act"
        ].bound_s
        hot_bound = analyze_latency(chain_recipe(rate_hz=50.0), context).flows[
            "act"
        ].bound_s
        assert ok_bound < hot_bound < math.inf
        deadline_ms = (ok_bound + hot_bound) / 2.0 * 1000.0
        assert (
            check_deadlines(
                chain_recipe(rate_hz=5.0, deadline_ms=deadline_ms), context
            )
            == []
        )
        diags = check_deadlines(
            chain_recipe(rate_hz=50.0, deadline_ms=deadline_ms), context
        )
        assert [d.rule for d in diags] == ["RCP240"]
        assert "exceeds the declared deadline" in diags[0].message

    def test_fig5_passes_at_paper_rates(self):
        assert check_deadlines(fig5_recipe(), fig5_context()) == []

    def test_fig5_overload_trips_rcp241(self):
        """Doubling every sensing rate saturates a hop: RCP241, which is
        strictly stronger than the aggregate-utilization warning."""
        recipe = fig5_recipe()
        doubled = Recipe(
            recipe.name,
            [
                TaskSpec(
                    task.task_id,
                    task.operator,
                    inputs=list(task.inputs),
                    outputs=list(task.outputs),
                    params={
                        **task.params,
                        **(
                            {"rate_hz": 2.0 * task.params["rate_hz"]}
                            if "rate_hz" in task.params
                            else {}
                        ),
                    },
                    capabilities=list(task.capabilities),
                    parallelism=task.parallelism,
                    pin_to=task.pin_to,
                    deadline_ms=task.deadline_ms,
                )
                for task in recipe.tasks.values()
            ],
        )
        diags = check_deadlines(doubled, fig5_context())
        assert "RCP241" in {d.rule for d in diags}
        analysis = analyze_latency(doubled, fig5_context())
        assert any(not b.stable for b in analysis.resources.values())
        # The poisoned sink carries an infinite bound.
        assert math.isinf(analysis.sinks()["alert-messaging"].bound_s)

    def test_colocated_unpinned_tasks_share_a_cpu(self):
        """Keyed by placement the analyzer sees what the parent's placement
        did to ``pi-analysis`` (the 40 Hz merge beside the 40 Hz predictor);
        the placement ranked by predicted load is stable and bounded."""
        from tests.core.test_assignment import (
            FIG5_PARENT_PLACEMENT,
            FIG5_PI_PLACEMENT,
        )

        recipe, context = fig5_recipe(), fig5_context()
        stacked = analyze_latency(recipe, context, FIG5_PARENT_PLACEMENT)
        diags = check_deadlines(recipe, context, stacked)
        assert [(d.rule, d.where) for d in diags] == [
            ("RCP241", "start-watching:resource cpu:pi-analysis")
        ]
        assert stacked.resources["cpu:pi-analysis"].utilization == pytest.approx(
            1.1064, abs=5e-4
        )
        assert math.isinf(stacked.sinks()["alert-messaging"].bound_s)

        spread = analyze_latency(recipe, context, FIG5_PI_PLACEMENT)
        assert check_deadlines(recipe, context, spread) == []
        assert all(bound.stable for bound in spread.resources.values())
        assert spread.sinks()["alert-messaging"].bound_s < 16.0

    def test_one_load_model_two_analyzers(self):
        """Per-module utilization from ``lint.rates`` (what placement and
        admission read) is the latency analyzer's ``cpu:<module>`` figure.
        They would differ on one term only — a sharded task's ``mqtt.send``,
        which the analyzer charges whole to its per-task CPU — and fig5
        shards nothing."""
        from tests.core.test_assignment import FIG5_PI_PLACEMENT, fig5_rho

        rho = fig5_rho(FIG5_PI_PLACEMENT)
        resources = analyze_latency(
            fig5_recipe(), fig5_context(), FIG5_PI_PLACEMENT
        ).resources
        assert sorted(rho) == sorted(
            key.removeprefix("cpu:") for key in resources if key.startswith("cpu:pi-")
        )
        for module, load in rho.items():
            assert resources[f"cpu:{module}"].utilization == pytest.approx(load, abs=1e-9)

    def test_builtin_recipes_meet_their_declared_deadlines(self):
        assert check_deadlines(fig5_recipe(), fig5_context()) == []
        assert (
            check_deadlines(
                build_paper_recipe(rate_hz=5.0),
                LatencyContext(cost_model=pi_cost_model(), wlan=pi_wlan_config()),
            )
            == []
        )
        assert (
            check_deadlines(
                build_chaos_recipe(),
                LatencyContext(
                    cost_model=pi_cost_model(),
                    loss_rate=0.15,
                    disruption_allowance_s=MODULE_RECOVERY_BOUND_S,
                ),
            )
            == []
        )

    def test_rcp242_external_input(self):
        recipe = Recipe(
            "ext",
            [
                TaskSpec(
                    "act",
                    "actuator",
                    inputs=["other-app:scored"],
                    params={"device": "d"},
                    deadline_ms=500,
                )
            ],
        )
        diags = check_deadlines(recipe, fig5_context())
        assert [d.rule for d in diags] == ["RCP242"]
        assert "external input" in diags[0].message

    def test_rcp242_missing_cost_entry(self):
        empty_model = CostModel(ops={"flow.process": OpCost(base_s=1e-3)})
        diags = check_deadlines(
            chain_recipe(deadline_ms=1000),
            LatencyContext(cost_model=empty_model),
        )
        assert [d.rule for d in diags] == ["RCP242"]
        assert "MQTT handling" in diags[0].message

    def test_no_deadline_no_rcp240(self):
        """Without a declared deadline only instability can error."""
        assert check_deadlines(chain_recipe(rate_hz=5.0), fig5_context()) == []


@pytest.fixture(scope="module")
def observed_flows():
    """Per-flow latency summaries of an observed run of each scenario, at
    its own seed and duration (fig5 55 / 30 s, failover 0 / 34 s), every
    sample traced, as ``lint --validate`` runs it."""
    from repro.registry import resolve
    from repro.scenario import run

    return {
        name: flows_from_trace(run(resolve(name), observe=True).runtime.tracer)
        for name in ("fig5", "failover")
    }


class TestSoundnessGate:
    def test_committed_fig5_baseline_validates_clean(self, observed_flows):
        """Sound (no RCP243). Since the placement by predicted load the
        pager's observed p99 is 237 ms, not 4 141 ms of queueing, and the
        15 s static bound (a shared WLAN modelled at 0.93) reads as what it
        always was: loose. Reported."""
        recipe = fig5_recipe()
        diags = check_bound_soundness(
            recipe, observed_flows["fig5"], fig5_context()
        )
        assert [(d.rule, d.where) for d in diags] == [
            ("RCP244", "start-watching:task alert-messaging (<observed>)")
        ]

    def test_committed_failover_baseline_validates_clean(self, observed_flows):
        diags = check_bound_soundness(
            build_chaos_recipe(),
            observed_flows["failover"],
            LatencyContext(
                cost_model=pi_cost_model(),
                loss_rate=0.15,
                disruption_allowance_s=MODULE_RECOVERY_BOUND_S,
            ),
        )
        assert diags == []

    def test_miscalibrated_model_fails_rcp243(self, observed_flows):
        """A too-optimistic service model claims a bound the system beat:
        the gate must call the model wrong. (10x optimistic, 202 ms claimed:
        the observed max is 238 ms, no longer the 4 143 ms of queueing that
        caught a 4x lie.)"""
        fast_wlan = WlanConfig(
            bitrate_bps=100e6, per_frame_overhead_s=0.1e-3, jitter_s=0.0
        )
        context = LatencyContext(
            cost_model=pi_cost_model().scaled(0.1), wlan=fast_wlan
        )
        diags = check_bound_soundness(
            fig5_recipe(), observed_flows["fig5"], context
        )
        assert [d.rule for d in diags] == ["RCP243"]
        assert "soundness violation" in diags[0].message

    def test_loose_bound_warns_rcp244(self):
        recipe = fig5_recipe()
        observed = {
            "alert-messaging": {
                "count": 100,
                "p50_ms": 0.5,
                "p95_ms": 0.9,
                "p99_ms": 1.0,
                "max_ms": 2.0,
            }
        }
        diags = check_bound_soundness(recipe, observed, fig5_context())
        assert [d.rule for d in diags] == ["RCP244"]
        assert "loose bound" in diags[0].message

    def test_non_sink_observations_are_ignored(self):
        """Intermediate leaf spans (records that died mid-flow under the
        deployed placement) are not flow endpoints: the gate only holds
        the model to its claims, which are bounds at sinks."""
        recipe = fig5_recipe()
        observed = {
            "alert-rules": {"count": 10, "p99_ms": 1e9, "max_ms": 1e9},
            "broker": {"count": 10, "p99_ms": 1e9, "max_ms": 1e9},
        }
        assert check_bound_soundness(recipe, observed, fig5_context()) == []

    def test_severities_match_catalog(self):
        assert str(LATENCY_RULES["RCP240"].severity) == "error"
        assert str(LATENCY_RULES["RCP241"].severity) == "error"
        assert str(LATENCY_RULES["RCP242"].severity) == "warning"
        assert str(LATENCY_RULES["RCP243"].severity) == "error"
        assert str(LATENCY_RULES["RCP244"].severity) == "warning"
