"""Instruments build a trace record only for a consumer — and behave the same.

With trace storage off and no tap, ``ObsState.finish`` builds no
``obs.span`` record and the scrape tick takes no registry snapshot; the
SLO engine gets its spans as a typed consumer either way. These runs pin
that the gated path and the materialised path are one behaviour: the same
scenario with ``observe+slo+profile`` on, trace storage on vs off, ends
with identical SLO state, profile and metrics.
"""

from __future__ import annotations

import pytest

from repro import scenario as scenario_module
from repro.prof import profile_digest
from repro.registry import resolve
from repro.scenario import run


def _instrumented(scenario, monkeypatch, storage: bool, **kwargs):
    """``run`` with every instrument on; ``storage=False`` turns trace
    storage back off as soon as the pipeline's attach step turned it on."""
    attach = scenario_module.attach_instruments

    def attach_then_gate(runtime, **flags):
        attach(runtime, **flags)
        runtime.tracer.enabled = storage

    with monkeypatch.context() as patch:
        patch.setattr(scenario_module, "attach_instruments", attach_then_gate)
        return run(scenario, observe=True, slo=True, profile=True, **kwargs).runtime


def _end_state(runtime) -> dict:
    engine, profiler = runtime.slo, runtime.prof
    return {
        "alerts": engine.alerts,
        "violation_log": engine.violation_log,
        "status": engine.status_snapshot(),
        "report": engine.report(),
        "latencies": {
            flow: (recorder.count, recorder.percentiles(50, 95, 99))
            for flow, recorder in sorted(engine.latencies.items())
            if recorder.count
        },
        "busy": profiler.busy,
        "profile_digest": profile_digest(profiler),
        "events_profiled": profiler.events_profiled,
        "metrics": runtime.obs.metrics.snapshot(),
        "spans": runtime.obs.spans_emitted,
        "scrapes": runtime.obs.scrapes,
        "events": runtime.kernel.events_processed,
    }


@pytest.mark.parametrize(
    ("name", "kwargs"),
    [
        ("fig5", {"seed": 55, "duration_s": 12.0}),  # declares the Pi cost model
        ("failover", {"seed": 0}),
    ],
)
def test_storage_on_and_off_end_in_the_same_state(name, kwargs, monkeypatch):
    scenario = resolve(name)
    stored = _instrumented(scenario, monkeypatch, storage=True, **kwargs)
    gated = _instrumented(scenario, monkeypatch, storage=False, **kwargs)

    assert len(gated.tracer) < len(stored.tracer) // 10  # storage really was off
    assert stored.obs.spans_emitted > 100
    want, got = _end_state(stored), _end_state(gated)
    for key in want:
        assert got[key] == want[key], key
    if name == "failover":
        # The crash window pages: the timeline being compared is not empty.
        assert any(alert["state"] == "page" for alert in want["alerts"])
        assert want["violation_log"]
