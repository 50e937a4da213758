"""Scenario harness: invariants hold, and plan + seed => identical traces."""

import pytest

from repro.chaos import (
    BrokerRestart,
    FaultPlan,
    Heal,
    Injector,
    Invariants,
    NodeRestart,
    Partition,
    build_chaos_cluster,
    build_chaos_recipe,
    run_scenario,
    trace_digest,
)
from repro.errors import ConfigurationError
from repro.registry import fault_scenarios, resolve


def run_combo(seed: int):
    """Partition + node restart + broker restart in one plan (the
    acceptance-criterion combination)."""
    runtime, cluster = build_chaos_cluster(seed)
    app = cluster.submit(build_chaos_recipe())
    cluster.settle(2.0)
    assert app.assignment is not None
    victim = app.assignment.module_for("train")
    plan = FaultPlan(
        "combo",
        (
            Partition(at=8.0, group_a=("module-a",), group_b=("broker-node",)),
            Heal(at=12.0, group_a=("module-a",), group_b=("broker-node",)),
            NodeRestart(at=14.0, node=victim),
            BrokerRestart(at=18.0),
        ),
    )
    Injector(runtime, cluster=cluster).schedule(plan)
    runtime.run(until=32.0)
    return runtime, cluster


def render_trace(runtime):
    return [
        f"{r.time!r}|{r.source}|{r.event}|{sorted(r.fields.items())!r}"
        for r in runtime.tracer
    ]


def test_combo_plan_is_deterministic():
    """The tentpole acceptance check: running the same plan twice with the
    same seed yields byte-identical trace sequences."""
    first, _ = run_combo(seed=3)
    second, _ = run_combo(seed=3)
    assert render_trace(first) == render_trace(second)
    assert trace_digest(first.tracer) == trace_digest(second.tracer)


def test_combo_plan_differs_across_seeds():
    a, _ = run_combo(seed=1)
    b, _ = run_combo(seed=2)
    assert trace_digest(a.tracer) != trace_digest(b.tracer)


def test_combo_plan_satisfies_delivery_invariants():
    runtime, cluster = run_combo(seed=0)
    report = Invariants(runtime.tracer, cluster).check()
    assert report.ok, report.render()
    assert report.metrics["qos1_forwarded"] > 0


@pytest.mark.parametrize("name", fault_scenarios())
def test_scenario_invariants_hold(name):
    result = run_scenario(name, seed=0)
    assert result.report.ok, result.report.render()
    assert result.faults_applied >= 1


def test_run_scenario_is_deterministic():
    a = run_scenario("partition_heal", seed=5)
    b = run_scenario("partition_heal", seed=5)
    assert a.trace_digest == b.trace_digest
    assert a.trace_records == b.trace_records


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        resolve("meteor-strike")
