"""Unit tests for the sim-time profiler core (``repro.prof``)."""

from __future__ import annotations

import pytest

from repro.bench.scenarios import FIG5
from repro.chaos import run_scenario
from repro.prof import PROF_SAMPLE_EVENT, Profiler, enable_profiling
from repro.prof.report import profile_digest
from repro.runtime.costs import CostModel, OpCost
from repro.runtime.sim import SimRuntime
from repro.san.recorder import SimSan
from repro.scenario import run


def work_model() -> CostModel:
    model = CostModel()
    model.define("crunch", OpCost(base_s=0.010))
    model.define("light", OpCost(base_s=0.002))
    return model


# ----------------------------------------------------------------------
# Readings from the resources' own totals
# ----------------------------------------------------------------------


def _cpu_readings(jobs, at, servers=1):
    """``cpu_busy`` of a profiled node at the instants ``at``, ``jobs``
    being ``(submit time, service)``."""
    runtime = SimRuntime(seed=0)
    profiler = enable_profiling(runtime, interval_s=0.0)
    node = runtime.add_node("worker", cpu_cores=servers)
    for submit, service in jobs:
        runtime.kernel.schedule(submit, node.cpu.submit, service)
    readings = []
    for t in at:
        runtime.run(until=t)
        readings.append(profiler.cpu_busy("worker"))
    return readings


def test_cpu_reading_totals_elapsed_jobs():
    assert _cpu_readings([(0.0, 1.0), (2.0, 0.5)], [1.0, 9.0]) == pytest.approx([1.0, 1.5])


def test_cpu_reading_ignores_zero_cost_jobs():
    readings = _cpu_readings([(1.0, 0.0), (1.0, 0.0)], [5.0])
    assert readings == [0.0] and str(readings[0]) == "0.0"  # not -0.0


def test_cpu_reading_clips_a_job_in_service():
    readings = _cpu_readings([(1.0, 2.0)], [0.0, 1.0, 1.5, 2.0, 2.0, 2.5, 9.0])  # busy on [1, 3]
    assert readings == pytest.approx([0.0, 0.0, 0.5, 1.0, 1.0, 1.5, 2.0])
    assert readings[5] - readings[2] == pytest.approx(1.0)  # the window [1.5, 2.5]


def test_cpu_reading_sums_overlapping_servers():
    # Two servers busy at once: the reading counts both.
    readings = _cpu_readings([(0.0, 1.0), (0.5, 1.0)], [0.5, 1.0, 2.0], servers=2)
    assert readings == pytest.approx([0.5, 1.5, 2.0])


def test_a_profiler_bound_mid_run_counts_from_the_bind():
    """A CPU job started while no profiler was set counts as elapsed at the
    bind; airtime queued on the channel counts as it elapses after it."""
    runtime = SimRuntime(seed=3, cost_model=work_model())
    worker, peer = runtime.add_node("worker"), runtime.add_node("peer")
    worker.cpu.submit(1.0)  # busy on [0, 1], untracked
    for _ in range(3):
        peer.send("out", worker.address("in"), b"x" * 1000)
    runtime.run(until=0.001)  # the channel still holds most of three frames
    profiler = enable_profiling(runtime, interval_s=0.0)
    worker.cpu.submit(0.5)  # waits for the server: busy on [1, 1.5]
    peer.send("out", worker.address("in"), b"x")  # binds the channel
    runtime.run(until=5.0)
    assert profiler.cpu_busy("worker") == pytest.approx(0.5)
    assert profiler.wlan_busy() == pytest.approx(runtime.wlan.total_airtime - 0.001)


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


def test_a_replaced_profiler_stops_sampling():
    runtime = SimRuntime(seed=0)
    runtime.add_node("n")
    first = enable_profiling(runtime)
    runtime.run(until=2.5)
    runtime.prof = None
    second = enable_profiling(runtime)
    runtime.run(until=6.0)
    times = [record.time for record in runtime.tracer.select(event=PROF_SAMPLE_EVENT)]
    assert times == [1.0, 2.0, 3.5, 4.5, 5.5]
    assert (first.samples, second.samples) == (2, 3)


def test_cpu_utilization_answers_from_zero_or_a_registered_origin():
    runtime = SimRuntime(seed=3, cost_model=work_model())
    profiler = enable_profiling(runtime)
    node = runtime.add_node("worker")
    node.execute("crunch", lambda: None)  # busy on [0, 0.01]
    runtime.run(until=0.005)
    profiler.register_origin()
    runtime.kernel.schedule(0.5, node.execute, "crunch", lambda: None)
    runtime.run(until=1.0)
    assert profiler.cpu_utilization("worker") == pytest.approx(0.020)
    assert profiler.cpu_utilization("worker", since=0.005) == pytest.approx(0.015 / 0.995)
    with pytest.raises(ValueError, match="nor the registered origin"):
        profiler.cpu_utilization("worker", since=0.5)


def test_wlan_airtime_attributed_to_sender():
    from repro.bench.harness import run_paper_experiment

    result = run_paper_experiment(5.0, duration_s=1.0, seed=2, profile=True)
    busy = result.profiler.busy
    wlan_keys = [key for key in busy if key[1] == "wlan"]
    assert wlan_keys, "no airtime charged"
    assert all(key[2] == "airtime" for key in wlan_keys)
    # Aggregate per-station airtime equals the channel timeline, all of it
    # elapsed; the medium also counts the airtime before profiling began.
    total = sum(busy[key][0] for key in wlan_keys)
    profiler = result.profiler
    assert total == pytest.approx(profiler.wlan_utilization() * profiler.runtime.now)
    assert total <= profiler.runtime.wlan.total_airtime


# ----------------------------------------------------------------------
# The sanitizer and the profiler, in either install order
# ----------------------------------------------------------------------


def _profile_only(runtime) -> None:
    enable_profiling(runtime)


def _san_then_profile(runtime) -> None:
    SimSan().install(runtime)
    enable_profiling(runtime)


def _profile_then_san(runtime) -> None:
    enable_profiling(runtime)
    SimSan().install(runtime)


@pytest.mark.parametrize("scenario", ["fig5", "failover"])
def test_sanitizer_in_either_install_order_leaves_the_profile_alone(scenario):
    """The kernel counts handlers into the profiler's tally whatever monitor
    it has, and a bound grant site goes back to the public hooks while the
    sanitizer is installed: installing SimSan after the profiler used to
    drop the profiler's kernel counts (``events_profiled`` stayed put)."""

    def profile(prepare):
        if scenario == "fig5":
            profiler = run(FIG5, profile=True, prepare=prepare).runtime.prof
        else:
            profiler = run_scenario(scenario, seed=0, profile=True, prepare=prepare).runtime.prof
        return profile_digest(profiler), profiler.events_profiled, profiler.event_counts

    alone = profile(_profile_only)
    assert alone[1] > 0
    assert profile(_san_then_profile) == alone
    assert profile(_profile_then_san) == alone


class _AccountingWrites:
    """A ``runtime.san`` hook that counts writes to the profiler's cell."""

    def __init__(self):
        self.writes = 0

    def on_access(self, cell, kind):
        self.writes += cell.key == "prof:accounting" and kind == "write"


def test_a_sanitizer_installed_after_binding_sees_every_grant():
    runtime = SimRuntime(seed=3, cost_model=work_model())
    enable_profiling(runtime, interval_s=10.0)  # no sample tick in the run
    worker, peer = runtime.add_node("worker"), runtime.add_node("peer")

    def burst():
        worker.execute("crunch", lambda: None)
        worker.execute("light", lambda: None)
        worker.send("out", peer.address("in"), b"frame")

    burst()
    runtime.run(until=1.0)  # the CPU and the medium bind to the profiler
    runtime.san = san = _AccountingWrites()
    burst()
    runtime.run(until=2.0)
    assert san.writes == 2 + 2 + 1  # two starts, two completions, one airtime grant
    runtime.san = None
    burst()
    runtime.run(until=3.0)
    assert runtime.prof.busy[("worker", "cpu", "crunch")][1] == 3
    assert runtime.prof.busy[("worker", "wlan", "airtime")][1] == 3


# ----------------------------------------------------------------------
# Hook bindings are per profiler, per resource
# ----------------------------------------------------------------------


def test_hook_bindings_are_per_instance():
    """The resource -> timeline / busy-cell bindings live on the profiler
    (a class-level memo used to be shared by every profiler in the
    process): one profiler's charges never show up in another's."""
    runtime = SimRuntime(seed=0)
    cpu = runtime.add_node("worker").cpu
    first, second = Profiler(runtime), Profiler(runtime)
    first.on_cpu_start(cpu, "crunch", 0.5)
    first.on_cpu_end(cpu, "crunch", 0.5)
    first.on_airtime(runtime.wlan, "worker", 0.25)
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
