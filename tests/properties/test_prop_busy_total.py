"""The profiler's busy readings against a naive per-grant overlap.

A profiler reads a CPU's busy time from ``stats.busy_time`` less the
unelapsed part of its jobs in service, and the channel's from
``total_airtime`` less its backlog. Driven through a live node — a
1–3-server CPU with a queue limit, restarted mid-job — and a queued WLAN
channel, and read at nondecreasing instants, each window (the difference
of two consecutive readings) must equal the window's overlap with every
grant summed one by one, no reading may be negative (``-0.0`` included),
and no window may exceed ``servers`` times its length. The grants are
logged apart from the profiler: a CPU job's from its completion event,
a frame's from the medium's totals around its transmission.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prof import enable_profiling
from repro.runtime.costs import CostModel, OpCost
from repro.runtime.sim import SimRuntime

steps = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.001, 0.01, 0.05, 0.3]),  # advance of now
        st.sampled_from(["read", "job", "job", "send", "restart"]),
        st.sampled_from(["short", "long", "free"]),  # job op
        st.integers(1, 1500),  # frame size
    ),
    max_size=50,
)


def _overlap(grants: list[tuple[float, float]], a: float, b: float) -> float:
    busy = 0.0
    for start, duration in grants:
        busy += max(0.0, min(start + duration, b) - max(start, a))
    return busy


def _log_grants(runtime, node):
    """``{"cpu": [...], "wlan": [...]}`` of ``(start, duration)``, filled as
    CPU jobs complete and frames take the channel."""
    grants: dict[str, list[tuple[float, float]]] = {"cpu": [], "wlan": []}
    cpu, medium = node.cpu, runtime.wlan
    complete, transmit = cpu._complete, medium._transmit_now

    def logged_complete(label, service, on_done, args):
        grants["cpu"].append((runtime.now - service, service))
        complete(label, service, on_done, args)

    def logged_transmit(frame):
        before = medium.total_airtime
        transmit(frame)
        airtime = medium.total_airtime - before
        grants["wlan"].append((medium._channel_free_at - airtime, airtime))

    cpu._complete = logged_complete
    medium._transmit_now = logged_transmit
    return grants


def _positive(reading: float) -> bool:
    return reading >= 0.0 and math.copysign(1.0, reading) > 0.0


@settings(max_examples=60, deadline=None)
@given(steps=steps, servers=st.integers(1, 3), queue_limit=st.sampled_from([None, 1, 2]))
def test_each_window_equals_the_per_grant_overlap(steps, servers, queue_limit):
    model = CostModel()
    model.define("short", OpCost(base_s=0.004))
    model.define("long", OpCost(base_s=0.07, warmup_extra_s=0.05, warmup_ops=2))
    model.define("free", OpCost(base_s=0.0))
    runtime = SimRuntime(seed=5, cost_model=model)
    profiler = enable_profiling(runtime, interval_s=0.0)  # read here, not sampled
    node = runtime.add_node("n", cpu_cores=servers, queue_limit=queue_limit)
    peer = runtime.add_node("peer")
    grants = _log_grants(runtime, node)
    reads: list[tuple[float, float, float]] = []

    def read() -> None:
        reads.append((runtime.now, profiler.cpu_busy("n"), profiler.wlan_busy()))

    read()
    for advance, action, op, size in steps:
        runtime.run(until=runtime.now + advance)
        if action == "read":
            read()
        elif action == "job":
            node.execute(op, lambda: None)
        elif action == "send":
            peer.send("out", node.address("in"), b"x" * size)
        else:
            node.restart()  # jobs in service run on; the queued ones surface dead
    runtime.run(until=runtime.now + 5.0)  # every grant elapsed
    read()

    for (a, cpu_a, wlan_a), (b, cpu_b, wlan_b) in zip(reads, reads[1:]):
        for reading in (cpu_b, wlan_b):
            assert _positive(reading), reading
        for kind, busy, limit in (
            ("cpu", cpu_b - cpu_a, servers),
            ("wlan", wlan_b - wlan_a, 1),
        ):
            assert abs(busy - _overlap(grants[kind], a, b)) <= 1e-9, (kind, a, b)
            assert busy <= limit * (b - a) + 1e-9, (kind, a, b)
    assert node.cpu.ends_in_service == []
