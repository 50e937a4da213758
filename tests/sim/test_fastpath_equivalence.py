"""Differential equivalence suite for the kernel hot-path optimizations.

The speed campaign (monitor-hook skipping, the MQTT wire fast path,
broker fan-out caching) must be *invisible* to the simulation: the
schedule, the trace, and the profile are functions of (scenario, seed)
only, never of which optimizations happen to be enabled. These tests run
the same scenario under each toggle and require byte-identical digests:

* ``packets.WIRE_FASTPATH = False`` — every packet round-trips through
  canonical JSON bytes instead of the in-process decode bypass;
* profiler attached / detached — the kernel's run loop with and without
  the profiler's tally;
* a pass-through :class:`~repro.sim.kernel.KernelMonitor`, and the schedule
  sanitizer attached but not perturbing — the kernel's monitor gate and
  every tracked cell's ``runtime.san`` gate taken the other way.
"""

from __future__ import annotations

import pytest

from repro.chaos import run_scenario
from repro.mqtt import packets
from repro.prof import profile_digest
from repro.registry import fault_scenarios
from repro.san import SimSan
from repro.sim.trace import trace_digest

CHAOS_SCENARIOS = fault_scenarios()


def _digest_excluding(tracer, sources) -> str:
    """The trace digest minus records the given observer sources wrote.

    Attaching the profiler adds periodic ``prof``-source utilization
    records (and the sampler events that produce them), and the SLO
    engine's extra gauges change ``obs.metrics`` scrapes — legitimately.
    Equivalence therefore compares the *application* trace: everything
    except what the observers themselves wrote.
    """
    return trace_digest(r for r in tracer if r.source not in sources)


class _PassThrough:
    """A :class:`~repro.sim.kernel.KernelMonitor` that does nothing."""

    def event_scheduled(self, handle, parent):
        pass

    def event_begin(self, handle):
        pass

    def event_end(self, handle):
        pass


def _attach_pass_through(runtime) -> None:
    runtime.kernel.monitor = _PassThrough()


def _attach_san(runtime) -> None:
    SimSan().install(runtime)


#: The gate branches a ``prepare`` hook can take the other way.
GATES = {"monitor": _attach_pass_through, "san": _attach_san}

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
    assert _digest_excluding(profiled.tracer, {"prof"}) == _digest_excluding(
        base.tracer, {"prof"}
    )
    assert profiled.runtime.prof is not None
    assert profiled.runtime.prof.events_profiled > 0


@pytest.mark.parametrize("gate", GATES)
@pytest.mark.parametrize("name", CHAOS_SCENARIOS)
def test_gate_branch_equivalence(name, gate, chaos_baseline):
    """A monitor on the kernel, or the sanitizer on the kernel and every
    state cell, observes the run without changing it."""
    watched = run_scenario(name, seed=0, prepare=GATES[gate])
    base = chaos_baseline[name]
    assert watched.runtime.kernel.monitor is not None
    assert watched.trace_digest == base.trace_digest
    assert (
        watched.runtime.kernel.events_processed
        == base.runtime.kernel.events_processed
    )


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


def _run_fig5(profiled: bool = True, prepare=None):
    from repro.bench.scenarios import FIG5
    from repro.scenario import run

    return run(
        FIG5,
        seed=55,
        duration_s=FIG5_DURATION_S,
        profile=profiled,
        prepare=prepare,
    ).runtime


@pytest.fixture(scope="module")
def fig5_baseline():
    runtime = _run_fig5(profiled=True)
    assert runtime.prof is not None
    return {
        "trace_digest": trace_digest(runtime.tracer),
        "app_trace_digest": _digest_excluding(runtime.tracer, {"prof"}),
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


@pytest.fixture(scope="module")
def fig5_plain():
    return _run_fig5(profiled=False)


def test_fig5_hooks_off_equivalence(fig5_baseline, fig5_plain):
    """With no profiler attached the kernel tallies nothing; the
    application trace must not notice."""
    assert fig5_plain.prof is None
    assert trace_digest(fig5_plain.tracer) == fig5_baseline["app_trace_digest"]


@pytest.mark.parametrize("gate", GATES)
def test_fig5_gate_branch_equivalence(gate, fig5_plain):
    runtime = _run_fig5(profiled=False, prepare=GATES[gate])
    assert runtime.kernel.monitor is not None
    assert trace_digest(runtime.tracer) == trace_digest(fig5_plain.tracer)
    assert runtime.kernel.events_processed == fig5_plain.kernel.events_processed


def test_fig5_all_toggles_off_equivalence(fig5_baseline, monkeypatch):
    """Belt and braces: every optimization off at once, hooks on."""
    monkeypatch.setattr(packets, "WIRE_FASTPATH", False)
    runtime = _run_fig5(profiled=True)
    assert trace_digest(runtime.tracer) == fig5_baseline["trace_digest"]
    assert profile_digest(runtime.prof) == fig5_baseline["profile_digest"]


# ----------------------------------------------------------------------
# SLO engine: on = app-trace invisible
# ----------------------------------------------------------------------


_OBSERVER_SOURCES = frozenset({"slo", "obs", "prof"})


def _suppress_status_publisher(monkeypatch):
    """Install enable_slo without the retained-status MQTT publisher.

    The engine's *computation* (taps, timers, sample stores) must be invisible
    to the application trace; the retained ``ifot/ctl/status/slo``
    publication is deliberate control-plane traffic that shares the
    simulated WLAN and therefore legitimately perturbs frame timing.
    Equivalence is asserted on the former.
    """
    import repro.obs.slo as slo_module

    real_enable = slo_module.enable_slo

    def quiet_enable(runtime, recipe=None, flows=None, cluster=None):
        return real_enable(runtime, recipe=recipe, flows=flows)

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
    # The engine needs no observability, so the base is the plain run.
    base = run_scenario("failover", seed=0)
    slo_run = run_scenario("failover", seed=0, slo=True)
    assert slo_run.runtime.obs is None
    assert slo_run.runtime.slo is not None
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
