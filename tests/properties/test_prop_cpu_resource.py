"""Model-based tests for the CPU queue and the node's liveness guards.

``CpuResource`` starts a job on an idle server without the queue round
trip and re-enters the dispatcher only when something waits. The
reference below always appends and always dispatches; under any
interleaving of submissions (re-entrant ones included) and clock
advances the two must be indistinguishable: completions, statistics,
watermarks, profiler hook calls and drops.

The example tests pin the other half of the hop path: the guards read
the node's ``alive``/``incarnation`` cells directly, so the sanitizer
must see exactly the reads it saw through the ``Node`` properties.
"""

from __future__ import annotations

from collections import deque
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.registry import resolve
from repro.runtime.component import Component
from repro.runtime.sim import SimRuntime
from repro.san.recorder import SimSan
from repro.scenario import run
from repro.sim.kernel import SimKernel
from repro.sim.resources import CpuResource, ResourceStats
from repro.util.stats import RunningStats

# ----------------------------------------------------------------------
# Reference: append, then dispatch — every time
# ----------------------------------------------------------------------


class ReferenceCpu:
    """The k-server FIFO queue with no shortcut."""

    def __init__(self, kernel, name, servers, speed, queue_limit, runtime):
        self._kernel = kernel
        self.name = name
        self._servers = servers
        self._speed = speed
        self.queue_limit = queue_limit
        self._runtime = runtime
        self._queue = deque()
        self._busy = 0
        self.stats = ResourceStats()
        self.wait_times = RunningStats()
        self.service_times = RunningStats()
        self._window_peak_queue = 0

    def submit(self, cost, on_done=None, label="job", args=()):
        job = (cost, on_done, label, self._kernel.now, args)
        self.stats.jobs_submitted += 1
        if (
            self.queue_limit is not None
            and self._busy >= self._servers
            and len(self._queue) >= self.queue_limit
        ):
            self.stats.jobs_dropped += 1
            return
        self._queue.append(job)
        depth = len(self._queue)
        self.stats.max_queue_length = max(self.stats.max_queue_length, depth)
        self._window_peak_queue = max(self._window_peak_queue, depth)
        self._dispatch()

    def take_queue_watermark(self):
        peak = self._window_peak_queue
        self._window_peak_queue = len(self._queue)
        return peak

    def _dispatch(self):
        while self._busy < self._servers and self._queue:
            job = self._queue.popleft()
            cost, _on_done, label, submitted_at, _args = job
            self._busy += 1
            self.wait_times.add(self._kernel.now - submitted_at)
            service = cost / self._speed
            self.service_times.add(service)
            self.stats.busy_time += service
            if self._runtime.prof is not None:
                self._runtime.prof.on_cpu_start(self.name, label, service)
            self._kernel.schedule(service, self._complete, job)

    def _complete(self, job):
        cost, on_done, label, _submitted_at, args = job
        self._busy -= 1
        self.stats.jobs_completed += 1
        if self._runtime.prof is not None:
            self._runtime.prof.on_cpu_end(self.name, label, cost / self._speed)
        if on_done is not None:
            on_done(*args)
        self._dispatch()


class RecordingProf:
    def __init__(self, kernel):
        self._kernel = kernel
        self.calls = []

    def on_cpu_start(self, name, label, service):
        self.calls.append(("start", self._kernel.now, name, label, service))

    def on_cpu_end(self, name, label, service):
        self.calls.append(("end", self._kernel.now, name, label, service))


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

COSTS = (0.0, 0.002, 0.1)  # free, small, large against the advances below

operations = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), st.sampled_from([0.0, 0.001, 0.004, 0.05, 0.3])),
        # (cost, follow-ups submitted from inside the completion callback)
        st.tuples(st.just("submit"), st.sampled_from(COSTS), st.integers(0, 2)),
        st.tuples(st.just("watermark")),
    ),
    max_size=60,
)


def _observe(make_cpu, script, profiled):
    """Everything observable about one CPU driven through ``script``."""
    kernel = SimKernel()
    prof = RecordingProf(kernel) if profiled else None
    cpu = make_cpu(kernel, SimpleNamespace(prof=prof))
    completions, watermarks = [], []
    ids = iter(range(10_000))

    def submit(cost, follow_ups):
        cpu.submit(cost, done, f"op{follow_ups}", (next(ids), cost, follow_ups))

    def done(job_id, cost, follow_ups):
        completions.append((kernel.now, job_id))
        if follow_ups:
            submit(cost, follow_ups - 1)

    for op in script:
        if op[0] == "advance":
            kernel.run(until=kernel.now + op[1])
        elif op[0] == "submit":
            submit(op[1], op[2])
        else:
            watermarks.append(cpu.take_queue_watermark())
    kernel.run_until_idle()
    watermarks.append(cpu.take_queue_watermark())
    return {
        "completions": completions,
        "watermarks": watermarks,
        "stats": vars(cpu.stats).copy(),
        "wait": _welford(cpu.wait_times),
        "service": _welford(cpu.service_times),
        "prof": prof.calls if profiled else None,
        "end": kernel.now,
        "events": kernel.events_processed,
    }


def _welford(stats: RunningStats):
    # repr(): NaN (no samples yet) must compare equal to itself.
    fields = (stats.mean, stats.variance, stats.minimum, stats.maximum)
    return (stats.count, *map(repr, fields))


@settings(max_examples=150, deadline=None)
@given(
    script=operations,
    servers=st.integers(1, 3),
    speed=st.sampled_from([0.5, 1.0, 3.0]),
    queue_limit=st.sampled_from([None, 1, 3]),
    profiled=st.booleans(),
)
def test_idle_start_is_indistinguishable_from_append_and_dispatch(
    script, servers, speed, queue_limit, profiled
):
    def real(kernel, runtime):
        return CpuResource(
            kernel, "cpu", servers=servers, speed=speed,
            queue_limit=queue_limit, runtime=runtime,
        )

    def reference(kernel, runtime):
        return ReferenceCpu(kernel, "cpu", servers, speed, queue_limit, runtime)

    assert _observe(real, script, profiled) == _observe(reference, script, profiled)


def test_idle_start_still_counts_a_depth_one_queue():
    kernel = SimKernel()
    cpu = CpuResource(kernel, "cpu")
    cpu.submit(0.01)
    assert cpu.queue_length == 0 and cpu.busy_servers == 1
    assert cpu.stats.max_queue_length == 1
    assert cpu.take_queue_watermark() == 1
    assert cpu.take_queue_watermark() == 0
    assert (cpu.wait_times.count, cpu.wait_times.maximum) == (1, 0.0)


def test_job_carries_its_arguments():
    kernel = SimKernel()
    cpu = CpuResource(kernel, "cpu")
    seen = []
    cpu.submit(0.01, lambda *args: seen.append(args), "op", ("a", 2))
    cpu.submit(0.01, lambda: seen.append("bare"))  # the three-argument form
    cpu.execute(0.01, lambda *args: seen.append(args), "b")
    kernel.run_until_idle()
    assert seen == [("a", 2), "bare", ("b",)]


# ----------------------------------------------------------------------
# Liveness guards
# ----------------------------------------------------------------------


def test_work_queued_before_restart_never_runs():
    runtime = SimRuntime(seed=0)
    node = runtime.add_node("n")
    ran = []
    for i in range(3):  # one in service, two waiting behind it
        node.execute("op", ran.append, i)
    node.restart()
    node.execute("op", ran.append, "new")
    runtime.run(until=1.0)
    assert ran == ["new"]
    assert node.cpu.stats.jobs_completed == 4  # surfaced, then discarded


def test_fail_drops_and_recover_resumes_queued_work():
    runtime = SimRuntime(seed=0)
    node = runtime.add_node("n")
    ran = []
    node.cpu.submit(1.0)  # keeps the server busy until t = 1
    node.execute("op", ran.append, "surfaces while down")
    node.cpu.submit(2.0)  # ... until t = 3
    node.execute("op", ran.append, "surfaces after recovery")
    runtime.call_later(0.5, node.fail)
    runtime.call_later(2.0, node.recover)
    runtime.run(until=5.0)
    assert ran == ["surfaces after recovery"]
    node.fail()
    node.execute("op", ran.append, "submitted while down")
    assert node.cpu.stats.jobs_submitted == 4  # never reached the queue


class _Reads:
    """A ``runtime.san`` hook that keeps the access sequence."""

    def __init__(self):
        self.log = []

    def on_access(self, cell, kind):
        self.log.append((cell.key, kind))

    def take(self):
        log, self.log = self.log, []
        return log


def test_guards_record_the_same_cell_reads_as_the_node_properties():
    runtime = SimRuntime(seed=0)
    node = runtime.add_node("n")
    peer = runtime.add_node("peer")
    component = Component(node, "c")
    got = []
    node.bind("svc", lambda source, payload: got.append(payload))
    runtime.san = reads = _Reads()
    alive, incarnation = ("node.n:alive", "read"), ("node.n:incarnation", "read")

    node.execute("op", got.append, "job")
    assert reads.take() == [alive, incarnation]  # admission, then the job's stamp
    runtime.run(until=0.1)
    assert reads.take() == [alive, incarnation]  # the guard at completion

    component.after(0.1, got.append, "timer")
    assert reads.take() == []
    runtime.run(until=0.3)
    assert reads.take() == [alive]  # the timer guard

    peer.send("out", node.address("svc"), b"frame")
    assert reads.take() == [("node.peer:alive", "read"), ("wlan:pending", "write")]
    runtime.run(until=0.5)
    assert reads.take()[-1] == alive  # the receiver guard, after the channel cells
    assert got == ["job", "timer", b"frame"]

    node.fail()
    assert reads.take() == [("node.n:alive", "write")]
    node.execute("op", got.append, "dropped")
    node.send("out", peer.address("svc"), b"dropped")
    assert reads.take() == [alive, alive]  # one read each, nothing past it


def test_sanitizer_sees_the_same_number_of_accesses_on_whole_scenarios():
    def accesses(name, **kwargs):
        san = SimSan()
        run(resolve(name), prepare=san.install, **kwargs)
        return san.accesses_recorded

    # A wake-up of a broker session's inflight table reads the session cell
    # once; a client's table has no cell: failover has 133 by session
    # tables, 77 of them with nothing due (30 681 + 133). fig5 moved once,
    # 63 539 -> 70 770, with its placement (by predicted CPU load under the
    # Pi model): records `pi-analysis` used to queue past the 6 s now flow
    # through the rest of the pipeline inside it.
    assert accesses("fig5", duration_s=6.0) == 70_770
    assert accesses("failover") == 30_814
