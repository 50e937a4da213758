"""Unit tests for the sim-time profiler core (``repro.prof``)."""

from __future__ import annotations

import pytest

from repro.prof import (
    PROF_SAMPLE_EVENT,
    BusyIntegrator,
    Profiler,
    enable_profiling,
)
from repro.runtime.costs import CostModel, OpCost
from repro.runtime.sim import SimRuntime
from repro.sim.kernel import CompositeMonitor, SimKernel


def work_model() -> CostModel:
    model = CostModel()
    model.define("crunch", OpCost(base_s=0.010))
    model.define("light", OpCost(base_s=0.002))
    return model


# ----------------------------------------------------------------------
# BusyIntegrator
# ----------------------------------------------------------------------


def test_integrator_totals_and_grants():
    integrator = BusyIntegrator()
    integrator.add(0.0, 1.0)
    integrator.add(2.0, 0.5)
    assert integrator.total == pytest.approx(1.5)
    assert integrator.grants == 2


def test_integrator_ignores_nonpositive_durations():
    integrator = BusyIntegrator()
    integrator.add(1.0, 0.0)
    integrator.add(1.0, -0.5)
    assert integrator.grants == 0
    assert integrator.total == 0.0


def test_integrator_window_overlap_clips_both_ends():
    integrator = BusyIntegrator()
    integrator.add(1.0, 2.0)  # busy on [1, 3]
    assert integrator.busy_between(0.0, 4.0) == pytest.approx(2.0)
    assert integrator.busy_between(1.5, 2.5) == pytest.approx(1.0)
    assert integrator.busy_between(0.0, 1.0) == 0.0
    assert integrator.busy_between(3.0, 9.0) == 0.0
    assert integrator.busy_between(2.0, 2.0) == 0.0
    assert integrator.busy_up_to(2.0) == pytest.approx(1.0)


def test_integrator_sums_overlapping_grants():
    # Two servers busy at once: window overlap counts both.
    integrator = BusyIntegrator()
    integrator.add(0.0, 1.0)
    integrator.add(0.5, 1.0)
    assert integrator.busy_between(0.0, 2.0) == pytest.approx(2.0)
    assert integrator.busy_between(0.5, 1.0) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Hooks through a live simulated node
# ----------------------------------------------------------------------


def run_small_workload(jobs: int = 5) -> SimRuntime:
    runtime = SimRuntime(seed=3, cost_model=work_model())
    profiler = enable_profiling(runtime, interval_s=0.25)
    assert profiler is runtime.prof
    node = runtime.add_node("worker")
    for _ in range(jobs):
        node.execute("crunch", lambda: None)
    node.execute("light", lambda: None)
    runtime.run(until=1.0)
    return runtime


def test_cpu_busy_attributed_per_operation():
    runtime = run_small_workload()
    busy = runtime.prof.busy
    crunch_s, crunch_n = busy[("worker", "cpu", "crunch")]
    light_s, light_n = busy[("worker", "cpu", "light")]
    assert crunch_n == 5
    assert crunch_s == pytest.approx(0.050)
    assert light_n == 1
    assert light_s == pytest.approx(0.002)


def test_cpu_utilization_matches_serialized_service():
    runtime = run_small_workload()
    # 52 ms of serialized work in a 1 s window on one core.
    assert runtime.prof.cpu_utilization("worker") == pytest.approx(0.052)
    assert runtime.prof.cpu_nodes() == ["worker"]


def test_sampler_emits_prof_sample_records():
    runtime = run_small_workload()
    records = runtime.tracer.select(event=PROF_SAMPLE_EVENT)
    assert len(records) == runtime.prof.samples >= 3
    first = records[0]["u"]
    assert "prof.cpu.util{node=worker}" in first
    assert "prof.cpu.queue_peak{node=worker}" in first
    assert "prof.wlan.util" in first
    # Jobs queue behind each other at t=0, so the first window sees a
    # nonzero waiting-queue watermark and full utilization.
    assert first["prof.cpu.queue_peak{node=worker}"] >= 1.0
    assert 0.0 < first["prof.cpu.util{node=worker}"] <= 1.0


def test_kernel_event_counts_accumulate():
    runtime = run_small_workload()
    assert runtime.prof.events_profiled > 0
    assert sum(runtime.prof.event_counts.values()) == runtime.prof.events_profiled


def test_enable_profiling_is_idempotent():
    runtime = SimRuntime(seed=0)
    first = enable_profiling(runtime)
    assert enable_profiling(runtime) is first


def test_enable_profiling_requires_a_sim_kernel():
    class FakeRealRuntime:
        prof = None
        kernel = None

    assert enable_profiling(FakeRealRuntime()) is None  # type: ignore[arg-type]


def test_wlan_airtime_attributed_to_sender():
    from repro.bench.harness import run_paper_experiment

    result = run_paper_experiment(5.0, duration_s=1.0, seed=2, profile=True)
    busy = result.profiler.busy
    wlan_keys = [key for key in busy if key[1] == "wlan"]
    assert wlan_keys, "no airtime charged"
    assert all(key[2] == "airtime" for key in wlan_keys)
    # Aggregate per-station airtime equals the medium's own accounting.
    total = sum(busy[key][0] for key in wlan_keys)
    assert total == pytest.approx(result.profiler._wlan_timeline.total)


# ----------------------------------------------------------------------
# CompositeMonitor
# ----------------------------------------------------------------------


class RecordingMonitor:
    def __init__(self, log: list, tag: str) -> None:
        self.log = log
        self.tag = tag

    def event_scheduled(self, handle, parent) -> None:
        self.log.append((self.tag, "scheduled"))

    def event_begin(self, handle) -> None:
        self.log.append((self.tag, "begin"))

    def event_end(self, handle) -> None:
        self.log.append((self.tag, "end"))


def test_composite_monitor_nests_brackets():
    log: list = []
    kernel = SimKernel()
    kernel.monitor = CompositeMonitor(
        (RecordingMonitor(log, "a"), RecordingMonitor(log, "b"))
    )
    kernel.schedule(0.0, lambda: None)
    kernel.run_until_idle()
    assert log == [
        ("a", "scheduled"),
        ("b", "scheduled"),
        ("a", "begin"),
        ("b", "begin"),
        ("b", "end"),  # reversed on end: brackets nest
        ("a", "end"),
    ]


def test_profiler_chains_behind_existing_monitor():
    log: list = []
    runtime = SimRuntime(seed=0)
    runtime.kernel.monitor = RecordingMonitor(log, "san")
    profiler = enable_profiling(runtime)
    assert isinstance(runtime.kernel.monitor, CompositeMonitor)
    runtime.kernel.schedule(0.0, lambda: None)
    runtime.run(until=0.1)
    assert ("san", "begin") in log  # prior monitor still sees events
    assert profiler.events_profiled > 0


# ----------------------------------------------------------------------
# Hook bindings are per profiler, per resource
# ----------------------------------------------------------------------


def test_hook_bindings_are_per_instance():
    """The resource -> timeline / busy-cell bindings live on the profiler
    (a class-level memo used to be shared by every profiler in the
    process): one profiler's charges never show up in another's."""
    first = Profiler(SimRuntime(seed=0))
    second = Profiler(SimRuntime(seed=0))
    first.on_cpu_start("worker.cpu", "crunch", 0.5)
    first.on_cpu_end("worker.cpu", "crunch", 0.5)
    first.on_airtime("worker", 0.0, 0.25)
    assert first.busy == {
        ("worker", "cpu", "crunch"): (0.5, 1),
        ("worker", "wlan", "airtime"): (0.25, 1),
    }
    assert first.cpu_nodes() == ["worker"]
    assert second.busy == {} and second.cpu_nodes() == []
    mutable_class_state = {
        name: value
        for name, value in vars(Profiler).items()
        if isinstance(value, (dict, list, set))
    }
    assert mutable_class_state == {}


def test_bare_and_suffixed_resource_names_share_one_node_timeline():
    profiler = Profiler(SimRuntime(seed=0))
    profiler.on_cpu_start("worker.cpu", "a", 1.0)
    profiler.on_cpu_start("worker", "b", 2.0)
    profiler.on_cpu_end("worker.cpu", "a", 1.0)
    profiler.on_cpu_end("worker", "a", 2.0)
    assert profiler.cpu_nodes() == ["worker"]
    assert profiler.cpu_busy_between("worker", 0.0, 10.0) == pytest.approx(3.0)
    assert profiler.busy == {("worker", "cpu", "a"): (3.0, 2)}
