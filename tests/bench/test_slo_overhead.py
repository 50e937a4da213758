"""SLO-on overhead smoke: the engine must ride the hot path cheaply.

The engine is tap-driven and sketch-backed (fixed memory, O(1) per
span), so an SLO-on run should cost at most a small multiple of an
observe-only run. The band is deliberately generous — this is a smoke
test against pathological regressions (e.g. an accidental O(n) scan per
span), not a micro-benchmark; wall-clock on shared CI is noisy.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.bench.scenarios import FIG5, build_fig5_testbed
from repro.scenario import run

DURATION_S = 8.0
#: The zero-cost build these bands were set on.
FIG5_ZERO_COST = dataclasses.replace(FIG5, build=build_fig5_testbed)

#: SLO-on may cost at most this multiple of observe-only (plus a fixed
#: floor so sub-100ms baselines don't amplify scheduler noise).
MAX_RATIO = 4.0
FLOOR_S = 0.25


def _timed(slo: bool) -> float:
    start = time.perf_counter()
    run(FIG5_ZERO_COST, duration_s=DURATION_S, observe=True, slo=slo)
    return time.perf_counter() - start


@pytest.mark.slow
def test_slo_overhead_within_band():
    _timed(slo=False)  # warm imports/caches out of the measurement
    base = _timed(slo=False)
    with_slo = _timed(slo=True)
    budget = MAX_RATIO * max(base, FLOOR_S)
    assert with_slo <= budget, (
        f"SLO-on run took {with_slo:.3f}s vs observe-only {base:.3f}s "
        f"(budget {budget:.3f}s) — the engine is too heavy for the hot path"
    )


@pytest.mark.slow
def test_slo_state_stays_bounded():
    """Run-length-independent memory: pending/root bookkeeping is purged."""
    engine = run(FIG5_ZERO_COST, observe=True, slo=True).runtime.slo
    assert engine is not None
    assert len(engine._pending) == 0 or len(engine._pending) < 100
    # Root starts are purged past the horizon, not accumulated all run.
    horizon_traces = len(engine._roots)
    assert horizon_traces < 2000
    for window in engine.windows.values():
        assert len(window) <= window.slices + 1


def test_unconsumed_spans_and_scrapes_build_nothing(monkeypatch):
    """The deterministic cost guard: a count cannot flake on a shared runner.

    Storage off and no ``obs.span``/``obs.metrics`` tap: every finished
    span and every scrape tick builds zero trace records and takes zero
    registry snapshots, while the SLO engine still sees every span. One
    generic tap added mid-run gets full, correctly keyed records from
    then on.
    """
    import repro.sim.trace as trace_module
    from repro.obs import METRICS_EVENT, SPAN_EVENT
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.slo import enable_slo
    from repro.prof import enable_profiling

    runtime, cluster = build_fig5_testbed(seed=1, observe=True, prepare=enable_profiling)
    runtime.tracer.enabled = False
    stored = len(runtime.tracer)  # the builder's own, from before the gate
    recipe = FIG5.recipe()
    engine = enable_slo(runtime, recipe=recipe, cluster=cluster)
    cluster.submit(recipe)
    cluster.settle(2.0)
    obs = runtime.obs

    built: list[str] = []
    real_record = trace_module.TraceRecord

    def counting_record(time, source, event, fields):
        built.append(event)
        return real_record(time, source, event, fields)

    snapshots: list[float] = []
    real_snapshot = MetricsRegistry.snapshot

    def counting_snapshot(self):
        snapshots.append(runtime.now)
        return real_snapshot(self)

    monkeypatch.setattr(trace_module, "TraceRecord", counting_record)
    monkeypatch.setattr(MetricsRegistry, "snapshot", counting_snapshot)

    spans_before, scrapes_before = obs.spans_emitted, obs.scrapes
    roots_before = len(engine._roots)
    runtime.run(until=runtime.now + 4.0)
    assert obs.spans_emitted - spans_before > 100
    assert obs.scrapes - scrapes_before >= 3
    assert len(engine._roots) > roots_before  # the engine consumed them
    assert built == []
    assert snapshots == []

    spans: list = []
    scrapes: list = []
    runtime.tracer.tap(SPAN_EVENT, spans.append)
    runtime.tracer.tap(METRICS_EVENT, scrapes.append)
    spans_before, scrapes_before = obs.spans_emitted, obs.scrapes
    runtime.run(until=runtime.now + 2.0)
    assert len(spans) == obs.spans_emitted - spans_before > 0
    assert len(scrapes) == obs.scrapes - scrapes_before == len(snapshots) > 0
    assert sorted(built) == [METRICS_EVENT] * len(scrapes) + [SPAN_EVENT] * len(spans)
    for record in spans:
        assert list(record.fields)[:7] == [
            "trace", "span", "parent", "name", "hop", "inc", "start"
        ]
        assert record.source in runtime.nodes
        assert record["span"].startswith("sp-") and record["trace"].startswith("tr-")
        assert record["start"] <= record.time
        assert (record["hop"] == 0) == (record["parent"] == "")
    assert any("task" in r.fields and "sample" in r.fields for r in spans)
    assert "wlan.airtime_share" in scrapes[-1]["m"]
    assert len(runtime.tracer) == stored  # taps only; storage stayed off
