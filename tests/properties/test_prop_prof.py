"""Property tests for the profiler's resource accounting.

The load-bearing invariant: a node's accounted CPU busy time inside any
window can never exceed ``servers * window`` — utilization is a share,
never more than 100%. Driven two ways: through a bare CPU's readings at
chosen instants, and end-to-end through a live simulated node fed a
random job mix. Then the bound recording path against the public hooks,
and the kernel's folded handler tally against a per-event count.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prof import PROF_SAMPLE_EVENT, enable_profiling
from repro.runtime.costs import CostModel, OpCost
from repro.runtime.sim import SimRuntime
from repro.san.recorder import SimSan
from repro.sim.kernel import handler_key

# ----------------------------------------------------------------------
# CPU readings: two readings, one difference
# ----------------------------------------------------------------------

grants = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0),  # submit offset increment
        st.floats(min_value=0.0, max_value=10.0),  # service
    ),
    max_size=40,
)
windows = st.tuples(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=100.0),
)


def _readings(jobs: list[tuple[float, float]], at: list[float], servers: int = 1) -> list[float]:
    """A profiled CPU's busy readings at the nondecreasing instants ``at``,
    ``jobs`` being ``(submit time, service)``."""
    runtime = SimRuntime(seed=0)
    profiler = enable_profiling(runtime, interval_s=0.0)
    node = runtime.add_node("n", cpu_cores=servers)
    for submit, service in jobs:
        runtime.kernel.schedule(submit, node.cpu.submit, service)
    readings = []
    for t in at:
        runtime.run(until=t)
        readings.append(profiler.cpu_busy("n"))
    return readings


@settings(max_examples=60, deadline=None)
@given(grants=grants, window=windows, servers=st.integers(1, 3))
def test_window_overlap_is_bounded_and_monotone(grants, window, servers):
    jobs, submit = [], 0.0
    for increment, service in grants:
        submit += increment
        jobs.append((submit, service))
    granted = sum(service for _s, service in jobs)
    a, b = sorted(window)
    before, after, wider = _readings(jobs, [a, b, b + 1.0], servers)
    busy = after - before
    assert 0.0 <= busy <= granted + 1e-9
    assert busy <= servers * (b - a) + 1e-9
    # Widening the window can only add busy time.
    assert busy <= wider - before + 1e-9
    earlier, _a, _b = _readings(jobs, [max(0.0, a - 1.0), a, b], servers)
    assert busy <= after - earlier + 1e-9
    # Once every job has been served, the readings account for all of it.
    (whole,) = _readings(jobs, [submit + granted + 1.0], servers)
    assert abs(whole - granted) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(
    durations=st.lists(
        st.floats(min_value=0.001, max_value=0.5), min_size=1, max_size=30
    ),
    gap=st.floats(min_value=0.0, max_value=0.2),
)
def test_serial_grants_never_exceed_elapsed(durations, gap):
    """Back-to-back single-server jobs: busy share of any window <= 1."""
    jobs, t = [], 0.0
    for duration in durations:
        jobs.append((t, duration))
        t += duration + gap
    mid = t / 2.0
    first, whole = _readings(jobs, [mid, t])
    assert first <= mid + 1e-9
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
    counts = profiler.event_counts  # folds the kernel's handlers first
    readings = {node: profiler.cpu_busy(node) for node in profiler.cpu_nodes()}
    readings["wlan"] = profiler.wlan_busy()
    return readings, profiler.busy, dict(profiler._tally), counts


def _workload(runtime, jobs, sends, cores, queue_limit, restart):
    """Three nodes fed CPU jobs, frames to each other and a restart."""
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
    return nodes


def _cost_model():
    model = CostModel()
    model.define("alpha", OpCost(base_s=0.05))
    model.define("beta", OpCost(base_s=0.011, warmup_extra_s=0.02, warmup_ops=2))
    model.define("gamma", OpCost(base_s=0.002, per_byte_s=1e-6))
    return model


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
        runtime = SimRuntime(seed=3, cost_model=_cost_model())
        hooks = _PublicPath() if public else None
        runtime.san = runtime.kernel.monitor = hooks
        profilers = [_enable(runtime, hooks)]
        _workload(runtime, jobs, sends, cores, queue_limit, restart)
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


# ----------------------------------------------------------------------
# The folded tally == a per-event count, whenever it is folded
# ----------------------------------------------------------------------


class _Counting:
    """A kernel monitor that counts each handler by :func:`handler_key` as
    it begins — as the kernel once did inline — into the reference of
    whichever tally the kernel counts into; it forwards to SimSan when one
    is attached."""

    def __init__(self, kernel, inner):
        self.kernel, self.inner = kernel, inner
        self.counts: dict[int, dict] = {}

    def event_scheduled(self, handle, parent):
        if self.inner is not None:
            self.inner.event_scheduled(handle, parent)

    def event_begin(self, handle):
        tally = self.kernel.tally
        if tally is not None:
            reference = self.counts.setdefault(id(tally), {})
            key = handler_key(handle.callback)
            reference[key] = reference.get(key, 0) + 1
        if self.inner is not None:
            self.inner.event_begin(handle)

    def event_end(self, handle):
        if self.inner is not None:
            self.inner.event_end(handle)


@settings(max_examples=40, deadline=None)
@given(
    jobs=cpu_jobs,
    sends=frames,
    cores=st.lists(st.integers(1, 3), min_size=3, max_size=3),
    restart=st.one_of(st.none(), st.tuples(st.integers(0, 2), st.floats(0.0, 0.6))),
    handover=st.sampled_from(["keep", "clear", "swap", "clear-then-enable"]),
    handover_at=st.floats(min_value=0.05, max_value=0.5),
    folds=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=6),
    interval=st.sampled_from([0.0, 0.1, 0.25]),
    sanitized=st.booleans(),
)
def test_folded_tally_equals_the_inline_count(
    jobs, sends, cores, restart, handover, handover_at, folds, interval, sanitized
):
    """Folds come from sample ticks, reads inside handlers and ``run``
    returning; a handover happens inside a handler, so a running loop
    keeps appending to the list a fold has just emptied."""
    runtime = SimRuntime(seed=3, cost_model=_cost_model())
    kernel = runtime.kernel
    san = None
    if sanitized:
        san = SimSan()
        san.install(runtime)
    counting = kernel.monitor = _Counting(kernel, san)
    profilers = [enable_profiling(runtime, interval_s=interval)]
    _workload(runtime, jobs, sends, cores, None, restart)
    mismatches = []

    def check():
        for profiler in profilers:
            profiler.event_counts  # folds when the kernel counts into it
            reference = counting.counts.get(id(profiler._tally), {})
            if list(profiler._tally.items()) != list(reference.items()):
                mismatches.append((runtime.now, profilers.index(profiler)))

    def hand_over():
        if handover != "keep":
            runtime.prof = None
        if handover == "swap":
            profilers.append(enable_profiling(runtime, interval_s=interval))

    def re_enable():
        if handover == "clear-then-enable":
            profilers.append(enable_profiling(runtime, interval_s=interval))

    for at in folds:
        kernel.schedule(at, check)
    kernel.schedule(handover_at, hand_over)
    kernel.schedule(handover_at + 0.2, re_enable)
    runtime.run(until=handover_at + 0.1)
    check()
    runtime.run(until=2.0)
    check()
    assert mismatches == []
    assert sum(p.events_profiled for p in profilers) == kernel.events_processed
