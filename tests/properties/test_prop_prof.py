"""Property tests for the profiler's resource accounting.

The load-bearing invariant: a node's accounted CPU busy time inside any
window can never exceed ``servers * window`` — utilization is a share,
never more than 100%. Driven two ways: directly against the
:class:`BusyIntegrator` interval algebra, and end-to-end through a live
simulated node fed a random job mix.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prof import BusyIntegrator, enable_profiling
from repro.runtime.costs import CostModel, OpCost
from repro.runtime.sim import SimRuntime

# ----------------------------------------------------------------------
# BusyIntegrator interval algebra
# ----------------------------------------------------------------------

grants = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0),  # start offset increment
        st.floats(min_value=0.0, max_value=10.0),  # duration
    ),
    max_size=40,
)
windows = st.tuples(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=100.0),
)


@given(grants=grants, window=windows)
def test_window_overlap_is_bounded_and_monotone(grants, window):
    integrator = BusyIntegrator()
    start = 0.0
    for increment, duration in grants:
        start += increment  # nondecreasing starts, as the hook sites guarantee
        integrator.add(start, duration)
    a, b = sorted(window)
    busy = integrator.busy_between(a, b)
    assert 0.0 <= busy <= integrator.total + 1e-9
    # Widening the window can only add busy time.
    assert busy <= integrator.busy_between(a, b + 1.0) + 1e-9
    assert busy <= integrator.busy_between(max(0.0, a - 1.0), b) + 1e-9
    # The full timeline accounts for every grant exactly.
    end = start + max((d for _i, d in grants), default=0.0)
    assert integrator.busy_between(0.0, end + 1.0) <= integrator.total + 1e-9


@given(
    durations=st.lists(
        st.floats(min_value=0.001, max_value=0.5), min_size=1, max_size=30
    ),
    gap=st.floats(min_value=0.0, max_value=0.2),
)
def test_serial_grants_never_exceed_elapsed(durations, gap):
    """Back-to-back single-server grants: busy share of any window <= 1."""
    integrator = BusyIntegrator()
    t = 0.0
    for duration in durations:
        integrator.add(t, duration)
        t += duration + gap
    assert integrator.busy_between(0.0, t) <= t + 1e-9
    mid = t / 2.0
    assert integrator.busy_between(0.0, mid) <= mid + 1e-9
    assert integrator.busy_between(mid, t) <= (t - mid) + 1e-9


# ----------------------------------------------------------------------
# Live simulation: utilization <= 100% whatever the job mix
# ----------------------------------------------------------------------

job_mixes = st.lists(
    st.tuples(
        st.sampled_from(["alpha", "beta", "gamma"]),
        st.floats(min_value=0.0, max_value=0.3),  # submit-time offset
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=30, deadline=None)
@given(jobs=job_mixes, cores=st.integers(min_value=1, max_value=3), seed=st.integers(min_value=0, max_value=999))
def test_node_busy_time_never_exceeds_elapsed(jobs, cores, seed):
    model = CostModel()
    model.define("alpha", OpCost(base_s=0.05))
    model.define("beta", OpCost(base_s=0.011, warmup_extra_s=0.02, warmup_ops=2))
    model.define("gamma", OpCost(base_s=0.002))
    runtime = SimRuntime(seed=seed, cost_model=model)
    profiler = enable_profiling(runtime, interval_s=0.1)
    node = runtime.add_node("n", cpu_cores=cores)
    for op, offset in jobs:
        runtime.kernel.schedule(
            offset, lambda _op=op: node.execute(_op, lambda: None)
        )
    runtime.run(until=2.0)
    elapsed = runtime.now
    assert elapsed > 0.0
    busy = profiler.cpu_busy_between("n", 0.0, elapsed)
    assert busy <= cores * elapsed + 1e-9
    assert 0.0 <= profiler.cpu_utilization("n") <= float(cores) + 1e-9
    # Per-op charges only cover completed work, so the busy tree is also
    # bounded by what the timeline granted.
    charged = sum(
        seconds for (n, domain, _op), (seconds, _c) in profiler.busy.items()
        if n == "n" and domain == "cpu"
    )
    assert charged <= profiler._cpu_timeline["n"].total + 1e-9


# ----------------------------------------------------------------------
# Bound recording path == the public hooks, bit for bit
# ----------------------------------------------------------------------


class _PublicPath:
    """Sends every grant and event through the profiler's public API: as
    ``runtime.san`` it keeps the CPU and WLAN sites on the hook calls (they
    bind only while no sanitizer is set); as the kernel's monitor, with the
    kernel's tally detached, it counts each handler through ``event_begin``
    of the profiler the tally would belong to — the last one enabled, which
    keeps counting when ``runtime.prof`` is cleared. It records nothing
    itself, so the run is the same run."""

    counting = None

    def on_access(self, cell, kind):
        pass

    def event_scheduled(self, handle, parent):
        pass

    def event_begin(self, handle):
        self.counting.event_begin(handle)

    def event_end(self, handle):
        pass


def _enable(runtime, hooks):
    profiler = enable_profiling(runtime, interval_s=0.1)
    if hooks is not None:
        runtime.kernel.tally = None
        hooks.counting = profiler
    return profiler


def _state(profiler):
    timelines = {"wlan": profiler._wlan_timeline, **profiler._cpu_timeline}
    arrays = {}
    for name, timeline in timelines.items():
        total = timeline.total  # folds what is still queued
        arrays[name] = (timeline._starts, timeline._ends, timeline._maxends, total)
    return arrays, profiler.busy, dict(profiler._tally), profiler.event_counts


cpu_jobs = st.lists(
    st.tuples(
        st.integers(0, 2),  # node
        st.sampled_from(["alpha", "beta", "gamma"]),
        st.floats(min_value=0.0, max_value=0.6),  # submit time
    ),
    max_size=30,
)
frames = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, 400), st.floats(0.0, 0.6)),
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(
    jobs=cpu_jobs,
    sends=frames,
    cores=st.lists(st.integers(1, 3), min_size=3, max_size=3),
    queue_limit=st.sampled_from([None, 1, 2]),
    restart=st.one_of(st.none(), st.tuples(st.integers(0, 2), st.floats(0.0, 0.6))),
    handover=st.sampled_from(["keep", "clear", "swap", "clear-then-enable"]),
    handover_at=st.floats(min_value=0.05, max_value=0.5),
)
def test_bound_recording_equals_the_public_hooks(
    jobs, sends, cores, queue_limit, restart, handover, handover_at
):
    def profiles(public):
        model = CostModel()
        model.define("alpha", OpCost(base_s=0.05))
        model.define("beta", OpCost(base_s=0.011, warmup_extra_s=0.02, warmup_ops=2))
        model.define("gamma", OpCost(base_s=0.002, per_byte_s=1e-6))
        runtime = SimRuntime(seed=3, cost_model=model)
        hooks = _PublicPath() if public else None
        runtime.san = runtime.kernel.monitor = hooks
        profilers = [_enable(runtime, hooks)]
        nodes = [
            runtime.add_node(f"n{i}", cpu_cores=cores[i], queue_limit=queue_limit)
            for i in range(3)
        ]
        for node in nodes:
            node.bind("in", lambda source, payload, node=node: node.execute("gamma", lambda: None))
        for i, op, at in jobs:
            runtime.kernel.schedule(at, nodes[i].execute, op, lambda: None)
        for src, dst, size, at in sends:
            runtime.kernel.schedule(at, nodes[src].send, "out", nodes[dst].address("in"), b"x" * size)
        if restart is not None:
            runtime.kernel.schedule(restart[1], nodes[restart[0]].restart)
        runtime.run(until=handover_at)  # jobs in service and frames queued across the handover
        if handover != "keep":
            runtime.prof = None
        if handover == "swap":
            profilers.append(_enable(runtime, hooks))
        runtime.run(until=handover_at + 0.2)
        if handover == "clear-then-enable":
            profilers.append(_enable(runtime, hooks))
        runtime.run(until=2.0)
        return [_state(profiler) for profiler in profilers]

    assert profiles(public=False) == profiles(public=True)
