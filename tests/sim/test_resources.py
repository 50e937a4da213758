"""The simulated CPU: FIFO service at the node's speed on one or more
servers, a bounded queue that drops the newest job, and statistics whose
service-mean gauge equals a Welford mean over the same Pi-model costs."""

import random

import pytest

from repro.bench.calibration import pi_cost_model
from repro.errors import ConfigurationError
from repro.obs.state import enable_observability
from repro.runtime.sim import SimRuntime
from repro.sim.kernel import SimKernel
from repro.sim.resources import CpuResource
from repro.util.stats import RunningStats


def test_fifo_serialization():
    k = SimKernel()
    cpu = CpuResource(k)
    done = []
    for i in range(3):
        cpu.submit(1.0, lambda i=i: done.append((i, k.now)))
    k.run()
    assert done == [(0, 1.0), (1, 2.0), (2, 3.0)]


def test_speed_scales_service_time():
    k = SimKernel()
    cpu = CpuResource(k, speed=2.0)
    done = []
    cpu.submit(1.0, lambda: done.append(k.now))
    k.run()
    assert done == [0.5]


def test_multiple_servers_run_in_parallel():
    k = SimKernel()
    cpu = CpuResource(k, servers=2)
    done = []
    for i in range(3):
        cpu.submit(1.0, lambda i=i: done.append((i, k.now)))
    k.run()
    assert done == [(0, 1.0), (1, 1.0), (2, 2.0)]


def test_zero_cost_job_completes_immediately():
    k = SimKernel()
    cpu = CpuResource(k)
    done = []
    cpu.submit(0.0, lambda: done.append(k.now))
    k.run()
    assert done == [0.0]


def test_negative_cost_rejected():
    k = SimKernel()
    cpu = CpuResource(k)
    with pytest.raises(ConfigurationError):
        cpu.submit(-1.0, lambda: None)


def test_stats_and_utilization():
    k = SimKernel()
    cpu = CpuResource(k)
    for _ in range(4):
        cpu.submit(0.5, None)
    k.run(until=10.0)
    assert cpu.stats.jobs_submitted == 4
    assert cpu.stats.jobs_completed == 4
    assert cpu.stats.busy_time == pytest.approx(2.0)
    assert cpu.stats.utilization(10.0) == pytest.approx(0.2)
    assert cpu.stats.max_queue_length >= 1


def _service_mean():
    """A node's CPU and a reader of its ``node.cpu.service_mean_s`` gauge,
    as the metrics snapshot reports it."""
    runtime = SimRuntime(seed=1)
    obs = enable_observability(runtime, scrape_interval_s=0)
    node = runtime.add_node("n")
    obs.register_node(node)
    snapshot = obs.metrics.snapshot
    return runtime, node.cpu, lambda: snapshot()["node.cpu.service_mean_s{node=n}"]


def test_service_mean_gauge_is_busy_time_per_started_job():
    runtime, cpu, gauge = _service_mean()
    assert gauge() == 0.0  # nothing started yet
    cpu.submit(2.0, None)
    cpu.submit(1.0, None)
    assert gauge() == 2.0  # one job in service, one waiting
    runtime.run(until=2.5)
    assert cpu.busy_servers == 1 and cpu.stats.jobs_completed == 1
    assert gauge() == 1.5
    runtime.run(until=10.0)
    assert cpu.busy_servers == 0 and cpu.stats.jobs_completed == 2
    assert gauge() == 1.5 == cpu.stats.busy_time / 2


def test_service_mean_gauge_matches_a_welford_mean_over_pi_costs():
    runtime, cpu, gauge = _service_mean()
    model = pi_cost_model()
    rng = random.Random(7)
    ops = sorted(model.ops)
    reference = RunningStats()
    for i in range(10_000):
        cost = model.cost(
            rng.choice(ops),
            nbytes=rng.choice((0, 48, 300, 1500)),
            invocation_index=i % 50,
        )
        reference.add(cost / cpu.speed)
        cpu.submit(cost, None)
    runtime.run(until=1e6)
    assert cpu.stats.jobs_completed == 10_000
    assert gauge() == round(reference.mean, 9)


def test_queue_limit_drops_newest():
    k = SimKernel()
    cpu = CpuResource(k, queue_limit=2)
    done = []
    # One in service + two queued = capacity; the 4th is dropped.
    for i in range(4):
        cpu.submit(1.0, lambda i=i: done.append(i))
    k.run()
    assert done == [0, 1, 2]
    assert cpu.stats.jobs_dropped == 1
    assert cpu.stats.jobs_submitted == 4
    assert cpu.stats.jobs_completed == 3


def test_queue_limit_allows_after_drain():
    k = SimKernel()
    cpu = CpuResource(k, queue_limit=1)
    done = []
    cpu.submit(1.0, lambda: done.append("a"))
    cpu.submit(1.0, lambda: done.append("b"))
    k.run()
    cpu.submit(1.0, lambda: done.append("c"))
    k.run()
    assert done == ["a", "b", "c"]


def test_submit_runs_fn_with_its_args():
    k = SimKernel()
    cpu = CpuResource(k)
    out = []
    cpu.submit(0.25, out.append, "append", (7,))
    k.run()
    assert out == [7]
    assert k.now == 0.25


def test_queue_length_property():
    k = SimKernel()
    cpu = CpuResource(k)
    cpu.submit(1.0, None)
    cpu.submit(1.0, None)
    assert cpu.busy_servers == 1
    assert cpu.queue_length == 1
