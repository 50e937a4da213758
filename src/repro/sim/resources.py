"""CPU resources: FIFO service queues over the simulation kernel.

A Pi-class neuron module executes middleware work (MQTT routing, feature
extraction, model updates) one job at a time per core. Modelling the CPU as a
single-server (or k-server) FIFO queue makes queueing delay — the effect that
dominates the paper's Tables II/III above 20 Hz — emerge from first
principles instead of being hard-coded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SimulationError
from repro.sim.kernel import SimKernel
from repro.util.stats import RunningStats
from repro.util.validate import require_non_negative, require_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.base import Runtime

__all__ = ["CpuResource", "ResourceStats"]


@dataclass(slots=True)
class _Job:
    cost: float
    on_done: Callable[..., None] | None
    label: str
    submitted_at: float
    args: tuple[Any, ...] = ()


@dataclass
class ResourceStats:
    """Aggregate service statistics for one :class:`CpuResource`."""

    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_dropped: int = 0
    busy_time: float = 0.0
    max_queue_length: int = 0

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` during which at least one server was busy.

        With multiple servers this counts aggregate service time and may
        exceed 1.0; divide by the server count for per-server utilization.
        """
        return self.busy_time / elapsed if elapsed > 0 else 0.0


class CpuResource:
    """A k-server FIFO queue with deterministic service order.

    Jobs are ``(cost, on_done, args)`` triples; ``on_done(*args)`` fires
    when the job's service time has elapsed. ``speed`` scales costs — a
    node with ``speed=2.0`` serves every job in half its nominal cost,
    letting one cost model describe heterogeneous hardware.

    ``queue_limit`` bounds the number of *waiting* jobs. When the queue is
    full a newly submitted job is dropped on the floor (its ``on_done``
    never fires) — the fate of QoS 0 messages on an overloaded device.
    Bounded queues are what make end-to-end latency *plateau* instead of
    growing without bound once the offered load exceeds capacity, the
    regime the paper's 40 and 80 Hz rows sit in.
    """

    def __init__(
        self,
        kernel: SimKernel,
        name: str = "cpu",
        servers: int = 1,
        speed: float = 1.0,
        queue_limit: int | None = None,
        runtime: "Runtime | None" = None,
    ) -> None:
        self._kernel = kernel
        self.name = name
        self._servers = require_positive(servers, "servers")
        self._speed = require_positive(speed, "speed")
        if queue_limit is not None:
            require_positive(queue_limit, "queue_limit")
        self.queue_limit = queue_limit
        self._queue: deque[_Job] = deque()
        self._busy = 0
        self.stats = ResourceStats()
        self.wait_times = RunningStats()
        self.service_times = RunningStats()
        # Optional owner; the profiler hook (``runtime.prof``) brackets
        # every service through it. Standalone resources stay unprofiled.
        self._runtime = runtime
        self._window_peak_queue = 0

    @property
    def speed(self) -> float:
        return self._speed

    @property
    def servers(self) -> int:
        return self._servers

    def _prof(self) -> Any:
        runtime = self._runtime
        return None if runtime is None else runtime.prof

    @property
    def busy_servers(self) -> int:
        return self._busy

    @property
    def queue_length(self) -> int:
        """Jobs waiting (not counting those in service)."""
        return len(self._queue)

    def submit(
        self,
        cost: float,
        on_done: Callable[..., None] | None = None,
        label: str = "job",
        args: tuple[Any, ...] = (),
    ) -> None:
        """Enqueue a job needing ``cost`` seconds of nominal CPU time;
        ``on_done(*args)`` runs when it has been served.

        Zero-cost jobs still take a kernel event so event ordering stays
        consistent, but consume no virtual time when the CPU is idle.
        """
        if not cost >= 0:  # noqa: SIM201 - also catches NaN
            require_non_negative(cost, "cost")
        stats = self.stats
        queue = self._queue
        job = _Job(cost, on_done, label, self._kernel.now, args)
        stats.jobs_submitted += 1
        if not queue and self._busy < self._servers:
            # Idle server: the job would be appended and popped at once.
            # Start it directly; the depth-1 queue it would have formed
            # still counts in both watermarks.
            if stats.max_queue_length < 1:
                stats.max_queue_length = 1
            if self._window_peak_queue < 1:
                self._window_peak_queue = 1
            self._start(job, 0.0)
            return
        if (
            self.queue_limit is not None
            and self._busy >= self._servers
            and len(queue) >= self.queue_limit
        ):
            stats.jobs_dropped += 1
            return
        queue.append(job)
        depth = len(queue)
        if depth > stats.max_queue_length:
            stats.max_queue_length = depth
        if depth > self._window_peak_queue:
            self._window_peak_queue = depth
        self._dispatch()

    def execute(self, cost: float, fn: Callable[..., Any], *args: Any) -> None:
        """Convenience: run ``fn(*args)`` after ``cost`` CPU seconds."""
        self.submit(cost, fn, getattr(fn, "__name__", "fn"), args)

    def take_queue_watermark(self) -> int:
        """Peak waiting-queue depth since the last call (then reset).

        The profiler's sampler reads this once per sampling window, so
        transient bursts between samples stay visible in the timeline.
        """
        peak = self._window_peak_queue
        self._window_peak_queue = len(self._queue)
        return peak

    def _dispatch(self) -> None:
        queue = self._queue
        while self._busy < self._servers and queue:
            job = queue.popleft()
            self._start(job, self._kernel.now - job.submitted_at)

    def _start(self, job: _Job, waited: float) -> None:
        self._busy += 1
        self.wait_times.add(waited)
        service = job.cost / self._speed
        self.service_times.add(service)
        self.stats.busy_time += service
        runtime = self._runtime
        prof = None if runtime is None else runtime.prof
        if prof is not None:
            prof.on_cpu_start(self.name, job.label, service)
        self._kernel.schedule(service, self._complete, job)

    def _complete(self, job: _Job) -> None:
        if self._busy <= 0:
            raise SimulationError(f"{self.name}: completion with no busy server")
        self._busy -= 1
        self.stats.jobs_completed += 1
        runtime = self._runtime
        prof = None if runtime is None else runtime.prof
        if prof is not None:
            prof.on_cpu_end(self.name, job.label, job.cost / self._speed)
        if job.on_done is not None:
            job.on_done(*job.args)
        if self._queue:
            self._dispatch()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CpuResource({self.name!r}, busy={self._busy}/{self._servers}, "
            f"queued={len(self._queue)})"
        )
