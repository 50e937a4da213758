"""Online SLO engine: policy derivation, violation kinds, burn alerts.

Two layers: synthetic span streams emitted straight into a bare
``SimRuntime``'s tracer pin the engine's mechanics exactly (good/late/
overdue classification, double-count suppression, burn-state machine),
and full scenario runs pin the integration the ISSUE's acceptance
criteria name — the failover crash window pages *online*, clean runs
stay silent, and the whole thing is deterministic.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos import run_scenario
from repro.chaos.scenarios import build_chaos_recipe
from repro.core.dsl import parse_recipe
from repro.errors import ConfigurationError
from repro.obs.context import SPAN_EVENT
from repro.obs.slo import (
    SLO_ALERT_EVENT,
    SLO_VIOLATION_EVENT,
    FlowSlo,
    SloEngine,
    enable_slo,
    policy_from_recipe,
)
from repro.runtime.sim import SimRuntime

# ----------------------------------------------------------------------
# Policy derivation
# ----------------------------------------------------------------------


def test_policy_from_chaos_recipe_pending_tracks_train():
    flows = {f.flow: f for f in policy_from_recipe(build_chaos_recipe())}
    assert "train" in flows
    train = flows["train"]
    assert train.roots == ("sense-a", "sense-b")
    # sense -> dedup -> train: every hop forwards, so overdue timers are
    # sound — a sensed record that never reaches train IS a violation.
    assert train.pending is True
    assert train.deadline_s == pytest.approx(10.0)


def test_policy_from_fig5_recipe_is_latency_only():
    from repro.bench.scenarios import FIG5_RECIPE_PATH

    recipe = parse_recipe(FIG5_RECIPE_PATH.read_text())
    flows = {f.flow: f for f in policy_from_recipe(recipe)}
    assert flows, "fig5 recipe declares at least one deadline"
    for flow in flows.values():
        # Every fig5 deadline sits downstream of a conditional operator
        # (command rules / window batching), so no pending timers.
        assert flow.pending is False


def test_flow_slo_validation():
    with pytest.raises(ConfigurationError):
        FlowSlo(flow="f", deadline_s=0.0)
    with pytest.raises(ConfigurationError):
        FlowSlo(flow="f", deadline_s=1.0, target=1.0)


def test_duplicate_flows_rejected():
    runtime = SimRuntime(seed=0)
    flow = FlowSlo(flow="f", deadline_s=1.0)
    with pytest.raises(ConfigurationError, match="duplicate"):
        SloEngine(runtime, [flow, flow])


# ----------------------------------------------------------------------
# Synthetic span streams: exact mechanics
# ----------------------------------------------------------------------


def _span(runtime, t, trace, name, parent="", start=None):
    runtime.tracer.emit(
        t,
        "obs",
        SPAN_EVENT,
        trace=trace,
        span=f"{trace}:{name}",
        parent=parent,
        name=name,
        hop=0 if not parent else 1,
        inc=0.0,
        start=t if start is None else start,
    )


def _engine(runtime, flows, **kwargs):
    kwargs.setdefault("status_interval_s", 0.0)  # no ticks unless asked
    return SloEngine(runtime, flows, **kwargs)


def test_good_late_and_overdue_classification():
    runtime = SimRuntime(seed=0)
    engine = _engine(
        runtime,
        [
            FlowSlo(
                flow="sink", deadline_s=0.5, roots=("src",), pending=True
            ),
            FlowSlo(flow="lazy", deadline_s=0.5, roots=(), pending=False),
        ],
    )
    # Trace A completes within deadline -> good.
    runtime.call_later(1.0, lambda: _span(runtime, 1.0, "A", "src"))
    runtime.call_later(
        1.2, lambda: _span(runtime, 1.2, "A", "sink", parent="A:src")
    )
    # Trace B's root never reaches the sink -> overdue at t=2.5.
    runtime.call_later(2.0, lambda: _span(runtime, 2.0, "B", "src"))
    # Trace C flows through the latency-only flow and completes late.
    runtime.call_later(3.0, lambda: _span(runtime, 3.0, "C", "src2"))
    runtime.call_later(
        3.8, lambda: _span(runtime, 3.8, "C", "lazy", parent="C:src2")
    )
    runtime.run(until=5.0)

    assert engine.good["sink"] == 1
    assert engine.overdue["sink"] == 1
    assert engine.violations["sink"] == 1
    assert engine.violations["lazy"] == 1
    assert engine.overdue["lazy"] == 0
    kinds = {
        (r["flow"], r["kind"])
        for r in runtime.tracer.select(SLO_VIOLATION_EVENT)
    }
    assert kinds == {("sink", "overdue"), ("lazy", "late")}
    # The overdue record carries the sim-time deadline anchor.
    overdue = [
        r
        for r in runtime.tracer.select(SLO_VIOLATION_EVENT)
        if r["kind"] == "overdue"
    ]
    assert overdue[0].time == pytest.approx(2.5)


def test_late_completion_after_overdue_does_not_double_count():
    runtime = SimRuntime(seed=0)
    engine = _engine(
        runtime,
        [FlowSlo(flow="sink", deadline_s=0.5, roots=("src",), pending=True)],
    )
    runtime.call_later(1.0, lambda: _span(runtime, 1.0, "A", "src"))
    # Completion arrives at 2.0, well past the 1.5 deadline timer.
    runtime.call_later(
        2.0, lambda: _span(runtime, 2.0, "A", "sink", parent="A:src")
    )
    runtime.run(until=3.0)
    assert engine.overdue["sink"] == 1
    assert engine.violations["sink"] == 1  # not 2
    # The eventual latency still lands in the distribution.
    assert engine.sketches["sink"].count == 1
    assert engine.sketches["sink"].maximum == pytest.approx(1.0)


def test_completion_cancels_pending_timer():
    runtime = SimRuntime(seed=0)
    engine = _engine(
        runtime,
        [FlowSlo(flow="sink", deadline_s=0.5, roots=("src",), pending=True)],
    )
    runtime.call_later(1.0, lambda: _span(runtime, 1.0, "A", "src"))
    runtime.call_later(
        1.1, lambda: _span(runtime, 1.1, "A", "sink", parent="A:src")
    )
    runtime.run(until=5.0)
    assert engine.overdue["sink"] == 0
    assert engine.violations["sink"] == 0
    assert not engine._pending


def test_burn_state_machine_pages_and_recovers():
    runtime = SimRuntime(seed=0)
    engine = _engine(
        runtime,
        [FlowSlo(flow="sink", deadline_s=0.1, roots=(), pending=False)],
    )

    def emit_pair(t, trace, latency):
        _span(runtime, t, trace, "src")
        _span(
            runtime,
            t + latency,
            trace,
            "sink",
            parent=f"{trace}:src",
            start=t + latency,
        )

    # 100% violations over both windows -> burn 100x budget -> page.
    for i in range(10):
        t = 1.0 + 0.2 * i
        runtime.call_later(t, emit_pair, t, f"T{i}", 0.15)
    # Then a long run of good completions drains the windows back to ok.
    for i in range(120):
        t = 5.0 + 0.25 * i
        runtime.call_later(t, emit_pair, t, f"G{i}", 0.01)
    runtime.run(until=40.0)

    states = [a["state"] for a in engine.alerts]
    assert "page" in states
    assert engine.paged["sink"] is True
    assert engine.state["sink"] == "ok"
    assert states[-1] == "ok"
    alert_records = runtime.tracer.select(SLO_ALERT_EVENT)
    assert len(alert_records) == len(engine.alerts)
    page_at = engine.first_page_at["sink"]
    assert any(
        r.time == page_at and r["state"] == "page" for r in alert_records
    )


def test_diagnostics_for_quiet_violations_use_slo302():
    runtime = SimRuntime(seed=0)
    engine = _engine(
        runtime,
        [FlowSlo(flow="sink", deadline_s=0.1, roots=(), pending=False)],
    )
    # A sea of good events first (the windows need volume), then one
    # lone violation: short-window burn spikes but the long window stays
    # healthy, so no alert state is ever entered.
    for i in range(200):
        t = 1.3 + 0.1 * i
        _span(runtime, t, f"G{i}", "src")
        _span(runtime, t, f"G{i}", "sink", parent=f"G{i}:src", start=t)
    _span(runtime, 21.5, "A", "src")
    _span(runtime, 21.7, "A", "sink", parent="A:src", start=21.7)
    diags = engine.diagnostics()
    rules = [d.rule for d in diags]
    assert "SLO302" in rules
    assert "SLO300" not in rules


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------


def test_enable_slo_is_idempotent():
    runtime = SimRuntime(seed=0)
    first = enable_slo(runtime, recipe=build_chaos_recipe())
    second = enable_slo(runtime, recipe=build_chaos_recipe())
    assert first is not None and second is first


def test_enable_slo_needs_a_policy():
    runtime = SimRuntime(seed=0)
    with pytest.raises(ConfigurationError, match="recipe or explicit flows"):
        enable_slo(runtime)


# ----------------------------------------------------------------------
# Full scenarios: the acceptance criteria
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def failover_slo():
    return run_scenario("failover", seed=0, slo=True, profile=True)


@pytest.mark.slow
def test_failover_crash_window_pages_online(failover_slo):
    engine = failover_slo.slo_engine
    assert engine is not None
    assert engine.flows["train"].pending is True
    # The crash window strands sensed records that never reach train:
    # only pending-overdue tracking can see them (the completed-latency
    # max stays far below the 10 s deadline).
    assert engine.overdue["train"] > 0
    assert engine.sketches["train"].maximum < engine.flows["train"].deadline_s
    assert engine.paged["train"] is True
    # The page lands inside/just after the crash window, sim-time anchored.
    assert 20.0 <= engine.first_page_at["train"] <= 25.0
    page_alerts = [a for a in engine.alerts if a["state"] == "page"]
    assert page_alerts
    assert page_alerts[0]["t"] == pytest.approx(engine.first_page_at["train"])
    rules = {d.rule for d in engine.diagnostics()}
    assert "SLO300" in rules


@pytest.mark.slow
def test_failover_violations_are_trace_records(failover_slo):
    tracer = failover_slo.tracer
    violations = tracer.select(SLO_VIOLATION_EVENT)
    assert violations
    assert all(r.source == "slo" for r in violations)
    assert all(r["kind"] == "overdue" for r in violations if r["flow"] == "train")
    alerts = tracer.select(SLO_ALERT_EVENT)
    assert any(r["state"] == "page" for r in alerts)
    # Report agrees with the trace.
    report = failover_slo.slo_engine.report()
    assert report["flows"]["train"]["overdue"] == len(
        [r for r in violations if r["kind"] == "overdue"]
    )


@pytest.mark.slow
def test_failover_slo_run_is_deterministic(failover_slo):
    again = run_scenario("failover", seed=0, slo=True, profile=True)
    assert again.trace_digest == failover_slo.trace_digest
    assert json.dumps(again.slo_engine.report(), sort_keys=True) == json.dumps(
        failover_slo.slo_engine.report(), sort_keys=True
    )


@pytest.mark.slow
def test_clean_fig5_run_stays_silent():
    import dataclasses

    from repro.bench.scenarios import FIG5, build_fig5_testbed
    from repro.scenario import run

    zero_cost = dataclasses.replace(FIG5, build=build_fig5_testbed)
    engine = run(zero_cost, duration_s=8.0, slo=True).runtime.slo
    assert engine is not None
    assert engine.alerts == []
    assert all(v == 0 for v in engine.violations.values())
    assert all(v == 0 for v in engine.overdue.values())
    assert engine.diagnostics() == []


@pytest.mark.slow
def test_injected_tight_deadline_flips_clean_run_to_violation():
    """Acceptance pair: the same scenario, one with the declared deadline
    (clean) and one with an injected 1 ms deadline (every completion
    late) — the engine must separate them."""
    from repro.bench.scenarios import FIG5_RECIPE_PATH, build_fig5_testbed
    from repro.core.dsl import parse_recipe as parse

    def run_with(flows):
        runtime, cluster = build_fig5_testbed(seed=55, observe=True)
        engine = enable_slo(runtime, flows=flows)
        app = cluster.submit(parse(FIG5_RECIPE_PATH.read_text()))
        cluster.settle(2.0)
        # Past the planted fall at t=20 — alert-messaging only completes
        # traces when the rule engine actually pages someone.
        runtime.run(until=runtime.now + 22.0)
        app.stop()
        return engine

    clean = run_with(
        [FlowSlo(flow="alert-messaging", deadline_s=16.0, pending=False)]
    )
    tight = run_with(
        [FlowSlo(flow="alert-messaging", deadline_s=0.001, pending=False)]
    )
    assert clean.violations["alert-messaging"] == 0
    assert tight.violations["alert-messaging"] > 0
    assert tight.violations["alert-messaging"] == clean.good["alert-messaging"]
    assert {d.rule for d in tight.diagnostics()} & {"SLO300", "SLO301", "SLO302"}


@pytest.mark.slow
def test_status_published_retained_on_control_topic(failover_slo):
    from repro.obs.slo import SLO_STATUS_EVENT, SLO_STATUS_TOPIC

    tracer = failover_slo.tracer
    status = tracer.select(SLO_STATUS_EVENT)
    assert status, "status ticks emit slo.status records"
    assert "train" in status[-1]["flows"]
    # The retained publication went through the management client.
    published = [
        r
        for r in tracer.select("mqtt.publish")
        if r.fields.get("topic") == SLO_STATUS_TOPIC
    ]
    assert published or tracer.count("mqtt.publish") == 0
