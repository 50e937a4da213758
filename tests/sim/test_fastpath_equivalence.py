"""Differential equivalence suite for the kernel hot-path optimizations.

The speed campaign (monitor-hook skipping, the MQTT wire fast path,
broker fan-out caching) must be *invisible* to the simulation: the
schedule, the trace, and the profile are functions of (scenario, seed)
only, never of which optimizations happen to be enabled. These tests run
the same scenario under each toggle and require byte-identical digests:

* ``packets.WIRE_FASTPATH = False`` — every packet round-trips through
  canonical JSON bytes instead of the in-process decode bypass;
* profiler attached / detached — the kernel's run loop with and without
  monitor hooks.
"""

from __future__ import annotations

import pytest

from repro.chaos import run_scenario, trace_digest
from repro.mqtt import packets
from repro.prof import profile_digest
from repro.registry import fault_scenarios

CHAOS_SCENARIOS = fault_scenarios()


def _digest_excluding_prof(tracer) -> str:
    """The trace digest minus profiler-emitted sampling records.

    Attaching the profiler adds periodic ``prof``-source utilization
    records (and the sampler events that produce them) — legitimately.
    Hooks ON/OFF equivalence therefore compares the *application* trace:
    everything except what the observer itself wrote.
    """
    import hashlib

    digest = hashlib.sha256()
    for record in tracer:
        if record.source == "prof":
            continue
        line = (
            f"{record.time!r}|{record.source}|{record.event}"
            f"|{sorted(record.fields.items())!r}\n"
        )
        digest.update(line.encode())
    return digest.hexdigest()

#: Short fig5 run — equivalence is about digests matching across
#: configurations, not about the full 30 s workload.
FIG5_DURATION_S = 8.0


# ----------------------------------------------------------------------
# Chaos scenarios: all 7, every toggle
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def chaos_baseline():
    """Every scenario once under default toggles (wire fast path on, no
    monitor hooks) — the reference digests."""
    return {name: run_scenario(name, seed=0) for name in CHAOS_SCENARIOS}


@pytest.mark.parametrize("name", CHAOS_SCENARIOS)
def test_hooks_on_equivalence(name, chaos_baseline):
    """Attaching the profiler adds only its own ``prof`` sampling records;
    the application trace is untouched."""
    profiled = run_scenario(name, seed=0, profile=True)
    base = chaos_baseline[name]
    assert profiled.tracer is not None and base.tracer is not None
    assert _digest_excluding_prof(profiled.tracer) == _digest_excluding_prof(
        base.tracer
    )
    assert profiled.profiler is not None
    assert profiled.profiler.events_profiled > 0


@pytest.mark.parametrize("name", CHAOS_SCENARIOS)
def test_wire_fastpath_off_equivalence(name, chaos_baseline, monkeypatch):
    monkeypatch.setattr(packets, "WIRE_FASTPATH", False)
    slow = run_scenario(name, seed=0)
    base = chaos_baseline[name]
    assert slow.trace_records == base.trace_records
    assert slow.trace_digest == base.trace_digest


# ----------------------------------------------------------------------
# Fig. 5: the benchmark workload itself
# ----------------------------------------------------------------------


def _run_fig5(profiled: bool = True):
    from repro.bench.scenarios import FIG5
    from repro.scenario import run

    return run(
        FIG5, seed=55, duration_s=FIG5_DURATION_S, profile=profiled
    ).runtime


@pytest.fixture(scope="module")
def fig5_baseline():
    runtime = _run_fig5(profiled=True)
    assert runtime.prof is not None
    return {
        "trace_digest": trace_digest(runtime.tracer),
        "app_trace_digest": _digest_excluding_prof(runtime.tracer),
        "trace_records": len(runtime.tracer),
        "events": runtime.prof.events_profiled,
        "profile_digest": profile_digest(runtime.prof),
    }


def test_fig5_wire_fastpath_off_equivalence(fig5_baseline, monkeypatch):
    monkeypatch.setattr(packets, "WIRE_FASTPATH", False)
    runtime = _run_fig5(profiled=True)
    assert trace_digest(runtime.tracer) == fig5_baseline["trace_digest"]
    assert len(runtime.tracer) == fig5_baseline["trace_records"]
    assert runtime.prof.events_profiled == fig5_baseline["events"]
    assert profile_digest(runtime.prof) == fig5_baseline["profile_digest"]


def test_fig5_hooks_off_equivalence(fig5_baseline):
    """With no monitor attached the kernel calls no hook; the application
    trace must not notice."""
    runtime = _run_fig5(profiled=False)
    assert runtime.prof is None
    assert trace_digest(runtime.tracer) == fig5_baseline["app_trace_digest"]


def test_fig5_all_toggles_off_equivalence(fig5_baseline, monkeypatch):
    """Belt and braces: every optimization off at once, hooks on."""
    monkeypatch.setattr(packets, "WIRE_FASTPATH", False)
    runtime = _run_fig5(profiled=True)
    assert trace_digest(runtime.tracer) == fig5_baseline["trace_digest"]
    assert profile_digest(runtime.prof) == fig5_baseline["profile_digest"]


# ----------------------------------------------------------------------
# SLO engine: on = app-trace invisible
# ----------------------------------------------------------------------


def _digest_excluding(tracer, sources: frozenset) -> str:
    """Trace digest minus records the given observer sources wrote.

    The SLO engine registers extra gauges in the shared metrics registry,
    so ``obs.metrics`` scrape records legitimately differ with it on; the
    *application* trace (everything not written by an observer) must not.
    """
    import hashlib

    digest = hashlib.sha256()
    for record in tracer:
        if record.source in sources:
            continue
        line = (
            f"{record.time!r}|{record.source}|{record.event}"
            f"|{sorted(record.fields.items())!r}\n"
        )
        digest.update(line.encode())
    return digest.hexdigest()


_OBSERVER_SOURCES = frozenset({"slo", "obs", "prof"})


def _suppress_status_publisher(monkeypatch):
    """Install enable_slo without the retained-status MQTT publisher.

    The engine's *computation* (taps, timers, sketches) must be invisible
    to the application trace; the retained ``ifot/ctl/status/slo``
    publication is deliberate control-plane traffic that shares the
    simulated WLAN and therefore legitimately perturbs frame timing.
    Equivalence is asserted on the former.
    """
    import repro.obs.slo as slo_module

    real_enable = slo_module.enable_slo

    def quiet_enable(runtime, recipe=None, flows=None, cluster=None, **kwargs):
        return real_enable(
            runtime, recipe=recipe, flows=flows, cluster=None, **kwargs
        )

    monkeypatch.setattr(slo_module, "enable_slo", quiet_enable)


def _run_fig5_observed(slo: bool):
    import dataclasses

    from repro.bench.scenarios import FIG5, build_fig5_testbed
    from repro.scenario import run

    # The zero-cost build, as before fig5 declared the Pi calibration.
    zero_cost = dataclasses.replace(FIG5, build=build_fig5_testbed)
    return run(
        zero_cost, seed=55, duration_s=FIG5_DURATION_S, observe=True, slo=slo
    ).runtime


def test_fig5_slo_on_leaves_app_trace_unchanged(monkeypatch):
    _suppress_status_publisher(monkeypatch)
    base = _run_fig5_observed(slo=False)
    slo_run = _run_fig5_observed(slo=True)
    assert slo_run.slo is not None
    assert _digest_excluding(
        slo_run.tracer, _OBSERVER_SOURCES
    ) == _digest_excluding(base.tracer, _OBSERVER_SOURCES)


def test_failover_slo_on_leaves_app_trace_unchanged(monkeypatch):
    _suppress_status_publisher(monkeypatch)
    base = run_scenario("failover", seed=0, observe=True)
    slo_run = run_scenario("failover", seed=0, slo=True)
    assert slo_run.slo_engine is not None
    # The engine wrote its own records (the crash window pages)...
    assert any(r.source == "slo" for r in slo_run.tracer)
    # ...but the application's records are untouched.
    assert _digest_excluding(
        slo_run.tracer, _OBSERVER_SOURCES
    ) == _digest_excluding(base.tracer, _OBSERVER_SOURCES)


# ----------------------------------------------------------------------
# Every instrument on, wire fast path on vs off
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    ("name", "kwargs"),
    [("fig5", {"seed": 55, "duration_s": FIG5_DURATION_S}), ("failover", {"seed": 0})],
)
def test_instrumented_wire_fastpath_off_equivalence(name, kwargs, monkeypatch):
    """With the fast path on, the ``obs`` header dict travels in-process
    and hands its FlowContext back without a parse; off, every hop parses
    a plain dict decoded from wire bytes. Trace (``obs.span`` parents and
    hops included), profile and SLO state must not tell the two apart."""
    from repro.registry import resolve
    from repro.scenario import run

    def state():
        runtime = run(
            resolve(name), observe=True, slo=True, profile=True, **kwargs
        ).runtime
        assert runtime.tracer.count("obs.span") > 100
        return (
            trace_digest(runtime.tracer),
            len(runtime.tracer),
            profile_digest(runtime.prof),
            runtime.slo.report(),
        )

    fast = state()
    monkeypatch.setattr(packets, "WIRE_FASTPATH", False)
    assert state() == fast
