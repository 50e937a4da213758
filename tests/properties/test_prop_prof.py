"""Property tests for the profiler's resource accounting.

The load-bearing invariant: a node's accounted CPU busy time inside any
window can never exceed ``servers * window`` — utilization is a share,
never more than 100%. Driven two ways: directly against the
:class:`BusyIntegrator` running total, and end-to-end through a live
simulated node fed a random job mix.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prof import PROF_SAMPLE_EVENT, BusyIntegrator, enable_profiling
from repro.runtime.costs import CostModel, OpCost
from repro.runtime.sim import SimRuntime

# ----------------------------------------------------------------------
# BusyIntegrator windows: two readings, one difference
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


def _window(grants: list[tuple[float, float]], a: float, b: float) -> float:
    """Busy seconds in ``[a, b]`` of a fresh integrator holding ``grants``."""
    integrator = BusyIntegrator()
    integrator.pending.extend(grants)
    before = integrator.busy_until(a)
    return integrator.busy_until(b) - before


@given(grants=grants, window=windows)
def test_window_overlap_is_bounded_and_monotone(grants, window):
    timeline, start = [], 0.0
    for increment, duration in grants:
        start += increment  # nondecreasing starts, as the hook sites guarantee
        timeline.append((start, duration))
    granted = sum(d for _s, d in timeline)
    a, b = sorted(window)
    busy = _window(timeline, a, b)
    assert 0.0 <= busy <= granted + 1e-9
    # Widening the window can only add busy time.
    assert busy <= _window(timeline, a, b + 1.0) + 1e-9
    assert busy <= _window(timeline, max(0.0, a - 1.0), b) + 1e-9
    # The full timeline accounts for every grant exactly.
    end = start + max((d for _i, d in grants), default=0.0)
    assert abs(_window(timeline, 0.0, end + 1.0) - granted) <= 1e-9


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
        integrator.pending.append((t, duration))
        t += duration + gap
    mid = t / 2.0
    first = integrator.busy_until(mid)
    assert first <= mid + 1e-9
    whole = integrator.busy_until(t)
    assert whole <= t + 1e-9
    assert whole - first <= (t - mid) + 1e-9


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
    busy = profiler.cpu_busy("n")
    assert busy <= cores * elapsed + 1e-9
    assert busy <= node.cpu.stats.busy_time + 1e-9  # the queue counts a grant when it starts
    assert 0.0 <= profiler.cpu_utilization("n") <= float(cores) + 1e-9
    # Per-op charges only cover completed work, so the busy tree is also
    # bounded by what the timeline granted.
    charged = sum(
        seconds for (n, domain, _op), (seconds, _c) in profiler.busy.items()
        if n == "n" and domain == "cpu"
    )
    assert charged <= node.cpu.stats.busy_time + 1e-9


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
    """Every timeline read now, and the profile so far."""
    now = profiler.runtime.now
    timelines = {"wlan": profiler._wlan_timeline, **profiler._cpu_timeline}
    readings = {name: timeline.busy_until(now) for name, timeline in timelines.items()}
    return readings, profiler.busy, dict(profiler._tally), profiler.event_counts


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
        states = []
        runtime.run(until=handover_at)  # jobs in service and frames queued across the handover
        states.append([_state(profiler) for profiler in profilers])
        if handover != "keep":
            runtime.prof = None
        if handover == "swap":
            profilers.append(_enable(runtime, hooks))
        runtime.run(until=handover_at + 0.2)
        states.append([_state(profiler) for profiler in profilers])
        if handover == "clear-then-enable":
            profilers.append(_enable(runtime, hooks))
        runtime.run(until=2.0)
        states.append([_state(profiler) for profiler in profilers])
        samples = [(r.time, r.fields) for r in runtime.tracer.select(event=PROF_SAMPLE_EVENT)]
        return states, samples

    assert profiles(public=False) == profiles(public=True)
