"""Online SLO engine: policy derivation, violation kinds, burn alerts.

Two layers: synthetic sensed/completed reports made straight to an
engine on a bare ``SimRuntime`` pin its mechanics exactly (good/late/
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
from repro.obs import enable_observability
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


def test_duplicate_flows_rejected():
    runtime = SimRuntime(seed=0)
    flow = FlowSlo(flow="f", deadline_s=1.0)
    with pytest.raises(ConfigurationError, match="duplicate"):
        SloEngine(runtime, [flow, flow])


# ----------------------------------------------------------------------
# Synthetic record reports: exact mechanics
# ----------------------------------------------------------------------


def _sense(runtime, engine, t, sample, task="src"):
    """A source task senses ``sample`` at ``t``."""
    runtime.call_later(t - runtime.now, engine.sensed, task, sample, t)


def _complete(runtime, engine, t, sample, sensed_at, task="sink"):
    """``task`` finishes processing a record of ``sample`` at ``t``."""
    runtime.call_later(t - runtime.now, engine.completed, task, sample, sensed_at)


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
    # Sample A completes within deadline -> good.
    _sense(runtime, engine, 1.0, "A")
    _complete(runtime, engine, 1.2, "A", 1.0)
    # Sample B never reaches the sink -> overdue at t=2.5.
    _sense(runtime, engine, 2.0, "B")
    # Sample C flows through the latency-only flow and completes late.
    _sense(runtime, engine, 3.0, "C", task="src2")
    _complete(runtime, engine, 3.8, "C", 3.0, task="lazy")
    runtime.run(until=5.0)

    assert engine.good["sink"] == 1
    assert engine.overdue["sink"] == 1
    assert engine.violations["sink"] == 1
    assert engine.violations["lazy"] == 1
    assert engine.overdue["lazy"] == 0
    kinds = {
        (r["flow"], r["kind"], r["sample"])
        for r in runtime.tracer.select(SLO_VIOLATION_EVENT)
    }
    assert kinds == {("sink", "overdue", "B"), ("lazy", "late", "C")}
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
    _sense(runtime, engine, 1.0, "A")
    # Completion arrives at 2.0, well past the 1.5 deadline timer.
    _complete(runtime, engine, 2.0, "A", 1.0)
    runtime.run(until=3.0)
    assert engine.overdue["sink"] == 1
    assert engine.violations["sink"] == 1  # not 2
    assert engine.good["sink"] == 0
    # The eventual latency still lands in the distribution.
    assert engine.latencies["sink"].count == 1
    assert engine.latencies["sink"].maximum == pytest.approx(1.0)
    assert engine.status_snapshot(3.0)["flows"]["sink"]["p95_ms"] == 1000.0
    assert engine.burn("sink", 3.0) == pytest.approx((100.0, 100.0))  # one bad, once


def test_status_p95_covers_the_long_window_only():
    runtime = SimRuntime(seed=0)
    engine = _engine(runtime, [FlowSlo(flow="sink", deadline_s=1.0)])
    for sensed_at, done_at, sample in ((1.0, 1.2, "A"), (2.0, 2.5, "B")):
        _sense(runtime, engine, sensed_at, sample)
        _complete(runtime, engine, done_at, sample, sensed_at)
    runtime.run(until=3.0)

    def p95(now):
        return engine.status_snapshot(now)["flows"]["sink"]["p95_ms"]

    assert p95(3.0) == 485.0  # 200 and 500 ms, interpolated
    assert p95(26.5) == 500.0  # A's 1 s bucket has left the 25 s window
    assert p95(28.0) == 0.0  # empty: a number the status JSON can carry
    assert engine.report()["flows"]["sink"]["count"] == 2  # the run total keeps both


def test_completion_cancels_pending_timer():
    runtime = SimRuntime(seed=0)
    engine = _engine(
        runtime,
        [FlowSlo(flow="sink", deadline_s=0.5, roots=("src",), pending=True)],
    )
    _sense(runtime, engine, 1.0, "A")
    _complete(runtime, engine, 1.1, "A", 1.0)
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

    def emit_pair(t, sample, latency):
        _sense(runtime, engine, t, sample)
        _complete(runtime, engine, t + latency, sample, t)

    # 100% violations over both windows -> burn 100x budget -> page.
    for i in range(10):
        emit_pair(1.0 + 0.2 * i, f"T{i}", 0.15)
    # Then a long run of good completions drains the windows back to ok.
    for i in range(120):
        emit_pair(5.0 + 0.25 * i, f"G{i}", 0.01)
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
        _sense(runtime, engine, t, f"G{i}")
        _complete(runtime, engine, t, f"G{i}", t)
    _sense(runtime, engine, 21.5, "A")
    _complete(runtime, engine, 21.7, "A", 21.5)
    runtime.run(until=22.0)
    diags = engine.diagnostics()
    rules = [d.rule for d in diags]
    assert "SLO302" in rules
    assert "SLO300" not in rules


def test_only_a_flow_sink_completes_and_only_a_pending_root_arms():
    runtime = SimRuntime(seed=0)
    engine = _engine(
        runtime,
        [FlowSlo(flow="sink", deadline_s=0.5, roots=("src",), pending=True)],
    )
    _sense(runtime, engine, 1.0, "A", task="other-src")  # roots no flow: no timer
    _complete(runtime, engine, 1.2, "A", 1.0, task="middle")  # not a sink: no sample
    runtime.run(until=5.0)
    assert engine.latencies["sink"].count == 0
    assert engine.violations["sink"] == 0 and not engine._pending


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
    engine = failover_slo.runtime.slo
    assert engine is not None
    assert engine.flows["train"].pending is True
    # The crash window strands sensed records that never reach train:
    # only pending-overdue tracking can see them (the completed-latency
    # max stays far below the 10 s deadline).
    assert engine.overdue["train"] > 0
    assert engine.latencies["train"].maximum < engine.flows["train"].deadline_s
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
    report = failover_slo.runtime.slo.report()
    assert report["flows"]["train"]["overdue"] == len(
        [r for r in violations if r["kind"] == "overdue"]
    )


@pytest.mark.slow
def test_failover_slo_run_is_deterministic(failover_slo):
    again = run_scenario("failover", seed=0, slo=True, profile=True)
    assert again.trace_digest == failover_slo.trace_digest
    assert json.dumps(again.runtime.slo.report(), sort_keys=True) == json.dumps(
        failover_slo.runtime.slo.report(), sort_keys=True
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


#: Flows whose sink reads a merge of several samples (fig5's ``merge``
#: stages, the paper recipe's ``align`` windows over its three sensors):
#: a merged record's age runs from its *oldest* contributor's
#: ``sensed_at`` (the paper's definition), while its span tree hangs off
#: the contributor whose arrival triggered the merge, so the engine's
#: latencies there are the larger ones.
MERGED_FLOWS = {("fig5", "alert-messaging"), ("paper", "predict"), ("paper", "train")}


@pytest.mark.slow
@pytest.mark.parametrize("name", ["failover", "fig5", "paper"])
def test_online_report_matches_offline_summary(name):
    """The engine's run-total quantiles are the ones ``repro trace
    --summary`` computes from the same run's spans, every sample traced:
    the same samples in the same store type and one quantile routine, so
    the views agree — except where a merge makes ``sensed_at`` older than
    the trace's root (:data:`MERGED_FLOWS`, listed so a new one fails)."""
    from repro.lint.latency import flows_from_trace
    from repro.registry import resolve
    from repro.scenario import run

    flags = {"slo": True, "observe": True}
    if name == "failover":
        out = run_scenario(name, seed=0, **flags)
    else:
        out = run(resolve(name), **flags)
    report = out.runtime.slo.report()["flows"]
    offline = flows_from_trace(out.tracer)
    quantiles = ("p50_ms", "p95_ms", "p99_ms", "max_ms")
    assert report
    differing = set()
    for flow, entry in report.items():
        assert entry["count"] == offline[flow]["count"] > 0, flow
        online = [entry[k] for k in quantiles]
        spans = [round(offline[flow][k], 3) for k in quantiles]
        if online != spans:
            differing.add((name, flow))
            assert all(a > b for a, b in zip(online, spans)), flow
    assert differing == {key for key in MERGED_FLOWS if key[0] == name}


@pytest.mark.slow
@pytest.mark.parametrize("name", ["failover", "fig5", "paper"])
def test_flow_count_is_every_record_the_sink_processed(name, monkeypatch):
    """At the default stride, with most records untraced, each flow still
    counts every record its sink task processed."""
    from collections import Counter

    from repro.core.operators import StreamOperator
    from repro.registry import resolve
    from repro.scenario import run

    processed: Counter = Counter()
    real = StreamOperator._process

    def counting(self, stream, record):
        before = (self.stopped, self.processing_errors)
        real(self, stream, record)
        if before == (False, self.processing_errors):
            processed[self.subtask.task_id] += 1

    monkeypatch.setattr(StreamOperator, "_process", counting)
    # ``run`` observes at stride 1; install the default stride first.
    flags = {"slo": True, "observe": True, "prepare": enable_observability}
    if name == "failover":
        out = run_scenario(name, seed=0, **flags)
    else:
        out = run(resolve(name), **flags)
    assert out.runtime.obs.sample_every > 1
    report = out.runtime.slo.report()["flows"]
    assert report
    for flow, entry in report.items():
        assert entry["count"] == processed[flow] > 0, flow


def test_enable_slo_needs_no_observability():
    """The engine reads records, not spans: no ObsState, no span, and
    still a latency per processed sink record and overdue timers."""
    out = run_scenario("failover", seed=0, slo=True)
    engine = out.runtime.slo
    assert out.runtime.obs is None
    assert not out.tracer.select("obs.span")
    assert engine.latencies["train"].count > 0
    assert engine.overdue["train"] > 0


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
