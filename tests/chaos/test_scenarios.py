"""Scenario harness: invariants hold, and plan + seed => identical traces."""

import pytest

import repro.scenario
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
)
from repro.errors import ConfigurationError
from repro.registry import fault_scenarios, resolve
from repro.sim.trace import render_record, trace_digest


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


def test_combo_plan_is_deterministic():
    """The tentpole acceptance check: running the same plan twice with the
    same seed yields byte-identical trace sequences."""
    first, _ = run_combo(seed=3)
    second, _ = run_combo(seed=3)
    assert list(map(render_record, first.tracer)) == list(
        map(render_record, second.tracer)
    )
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


def test_trace_digest_is_computed_on_first_read(monkeypatch):
    calls = []

    def counting(records):
        calls.append(records)
        return trace_digest(records)

    monkeypatch.setattr(repro.scenario, "trace_digest", counting)
    result = run_scenario("failover", seed=0)
    assert calls == []
    assert result.trace_digest == trace_digest(result.tracer)
    assert len(calls) == 1
    assert result.trace_digest == trace_digest(result.tracer)
    assert len(calls) == 1


def test_trace_digest_fingerprints_the_records_the_run_left():
    eager = trace_digest(run_scenario("failover", seed=0).tracer)
    result = run_scenario("failover", seed=0)
    result.tracer.emit(99.0, "test", "late.record")
    assert len(result.tracer) == result.trace_records + 1
    assert result.trace_digest == eager


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        resolve("meteor-strike")
