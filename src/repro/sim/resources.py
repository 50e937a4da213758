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
from repro.util.validate import require_non_negative, require_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.base import Runtime

__all__ = ["NO_RUNTIME", "CpuResource", "ResourceStats"]


class _NoRuntime:
    """Stand-in runtime for standalone resources and media (sanitizer and
    profiler permanently off)."""

    san: Any = None
    prof: Any = None


NO_RUNTIME: Any = _NoRuntime()


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

    A job is ``cost`` nominal CPU seconds and ``on_done(*args)``, which
    fires when its service time has elapsed. A waiting job is the tuple
    ``(cost, on_done, label, args)``; a started one is its completion
    event's own arguments. No per-job statistics are kept: ``stats`` holds
    the aggregates (and, while a profiler is set, ``ends_in_service`` the
    end instants of its jobs in service). ``speed`` scales costs — a node
    with ``speed=2.0`` serves every job in half its nominal cost, letting
    one cost model describe heterogeneous hardware.

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
        self._queue: deque[
            tuple[float, Callable[..., None] | None, str, tuple[Any, ...]]
        ] = deque()
        self._busy = 0
        self.stats = ResourceStats()
        #: End instants of the jobs in service, kept while ``runtime.prof`` is set.
        self.ends_in_service: list[float] = []
        # Optional owner, whose ``runtime.prof`` is charged with every
        # completion: through its hooks until they return the label cells.
        self._runtime = runtime if runtime is not None else NO_RUNTIME
        self._window_peak_queue = 0
        self._prof_started: Any = None
        self._prof_ended: Any = None
        self._prof_cells: Any = None

    @property
    def speed(self) -> float:
        return self._speed

    @property
    def servers(self) -> int:
        return self._servers

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
        stats.jobs_submitted += 1
        if not queue and self._busy < self._servers:
            # Idle server: the job would be appended and popped at once.
            # Start it here, as ``_start`` would; the depth-1 queue it would
            # have formed still counts in both watermarks.
            if stats.max_queue_length < 1:
                stats.max_queue_length = 1
            if self._window_peak_queue < 1:
                self._window_peak_queue = 1
            self._busy += 1
            service = cost / self._speed
            stats.busy_time += service
            runtime = self._runtime
            prof = runtime.prof
            if prof is not None:
                self.ends_in_service.append(self._kernel._now + service)
                if prof is not self._prof_started or runtime.san is not None:
                    prof.on_cpu_start(self, label, service)
                    self._prof_started = prof
            self._kernel.schedule(
                service, self._complete, label, service, on_done, args
            )
            return
        if (
            self.queue_limit is not None
            and self._busy >= self._servers
            and len(queue) >= self.queue_limit
        ):
            stats.jobs_dropped += 1
            return
        queue.append((cost, on_done, label, args))
        depth = len(queue)
        if depth > stats.max_queue_length:
            stats.max_queue_length = depth
        if depth > self._window_peak_queue:
            self._window_peak_queue = depth
        while self._busy < self._servers and queue:
            self._start(*queue.popleft())

    def take_queue_watermark(self) -> int:
        """Peak waiting-queue depth since the last call (then reset).

        The profiler's sampler reads this once per sampling window, so
        transient bursts between samples stay visible in the timeline.
        """
        peak = self._window_peak_queue
        self._window_peak_queue = len(self._queue)
        return peak

    def _start(
        self,
        cost: float,
        on_done: Callable[..., None] | None,
        label: str,
        args: tuple[Any, ...],
    ) -> None:
        """Start a job taken from the waiting queue (an idle server's job
        starts inline in :meth:`submit`)."""
        self._busy += 1
        service = cost / self._speed
        self.stats.busy_time += service
        runtime = self._runtime
        prof = runtime.prof
        if prof is not None:
            self.ends_in_service.append(self._kernel._now + service)
            if prof is not self._prof_started or runtime.san is not None:
                prof.on_cpu_start(self, label, service)
                self._prof_started = prof
        self._kernel.schedule(service, self._complete, label, service, on_done, args)

    def _complete(
        self,
        label: str,
        service: float,
        on_done: Callable[..., None] | None,
        args: tuple[Any, ...],
    ) -> None:
        if self._busy <= 0:
            raise SimulationError(f"{self.name}: completion with no busy server")
        self._busy -= 1
        self.stats.jobs_completed += 1
        runtime = self._runtime
        prof = runtime.prof
        if prof is not None:
            try:
                self.ends_in_service.remove(self._kernel._now)
            except ValueError:  # started while no profiler was set
                pass
            entry = (
                self._prof_cells.get(label)
                if prof is self._prof_ended and runtime.san is None
                else None
            )
            if entry is not None:
                entry[0] += service
                entry[1] += 1.0
            else:
                self._prof_cells = prof.on_cpu_end(self, label, service)
                self._prof_ended = prof
        if on_done is not None:
            on_done(*args)
        queue = self._queue
        while queue and self._busy < self._servers:
            self._start(*queue.popleft())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CpuResource({self.name!r}, busy={self._busy}/{self._servers}, "
            f"queued={len(self._queue)})"
        )
