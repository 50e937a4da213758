"""The discrete-event kernel: a virtual clock and its pending-event set.

The kernel is single-threaded and deterministic. Time only advances inside
:meth:`SimKernel.run` / :meth:`SimKernel.step`, by jumping to the timestamp of
the next scheduled event. All higher layers (network medium, CPU resources,
MQTT broker, middleware classes) are plain callbacks scheduled here.

Hot path
--------
``run`` is the one pop/fire loop over the queue's tuple heap;
:meth:`step` runs a single event through that same loop.  Monitor hooks
follow the one-attribute-load gate pattern used throughout the runtime
(``repro.runtime.state``): the ``monitor`` setter caches one bound method
per hook (or ``None``), so a detached monitor costs nothing and a monitor
that declares a hook uninteresting (``wants_scheduled`` /
``wants_begin`` / ``wants_end`` = False) skips that hook's call entirely —
the profiler, for example, only pays for ``event_begin``.
"""

from __future__ import annotations

import random
from heapq import heappop
from typing import Any, Callable, Protocol

from repro.errors import ClockError
from repro.sim.events import EventHandle, EventQueue

__all__ = ["CompositeMonitor", "KernelMonitor", "SimKernel"]


class KernelMonitor(Protocol):
    """Observer of the kernel's schedule, attached via ``kernel.monitor``.

    The schedule sanitizer (:mod:`repro.san`) implements this to build a
    happens-before graph: ``event_scheduled`` links every new event to the
    event during whose execution it was created (its *schedule parent*),
    and ``event_begin``/``event_end`` bracket handler execution so state
    accesses can be attributed to the running event.  ``kernel.monitor``
    is ``None`` in normal operation and every hook site guards on that, so
    the monitoring cost when disabled is one attribute load per event.

    A monitor may additionally expose boolean attributes
    ``wants_scheduled`` / ``wants_begin`` / ``wants_end`` (default: True)
    to declare a hook it never acts on; the kernel then skips that hook's
    dispatch entirely.
    """

    def event_scheduled(
        self, handle: EventHandle, parent: EventHandle | None
    ) -> None: ...

    def event_begin(self, handle: EventHandle) -> None: ...

    def event_end(self, handle: EventHandle) -> None: ...


class CompositeMonitor:
    """Fan-out :class:`KernelMonitor`: forwards every hook to each child.

    ``kernel.monitor`` is a single slot; when two observers need the
    schedule at once (the sanitizer and the profiler), they are chained
    through one of these. Children are invoked in attachment order for
    ``event_scheduled``/``event_begin`` and in reverse order for
    ``event_end``, so brackets nest.  Children that declare a hook
    uninteresting via ``wants_*`` are left out of that hook's dispatch
    list, and the composite's own ``wants_*`` flags reflect whether any
    child remains — so hook skipping composes through the chain.
    """

    __slots__ = (
        "monitors",
        "_scheduled",
        "_begin",
        "_end",
        "wants_scheduled",
        "wants_begin",
        "wants_end",
    )

    def __init__(self, monitors: tuple[KernelMonitor, ...]) -> None:
        self.monitors = monitors
        self._scheduled = tuple(
            m.event_scheduled
            for m in monitors
            if getattr(m, "wants_scheduled", True)
        )
        self._begin = tuple(
            m.event_begin for m in monitors if getattr(m, "wants_begin", True)
        )
        self._end = tuple(
            m.event_end
            for m in reversed(monitors)
            if getattr(m, "wants_end", True)
        )
        self.wants_scheduled = bool(self._scheduled)
        self.wants_begin = bool(self._begin)
        self.wants_end = bool(self._end)

    def event_scheduled(
        self, handle: EventHandle, parent: EventHandle | None
    ) -> None:
        for hook in self._scheduled:
            hook(handle, parent)

    def event_begin(self, handle: EventHandle) -> None:
        for hook in self._begin:
            hook(handle)

    def event_end(self, handle: EventHandle) -> None:
        for hook in self._end:
            hook(handle)


class SimKernel:
    """Deterministic discrete-event scheduler with a virtual clock.

    >>> k = SimKernel()
    >>> fired = []
    >>> _ = k.schedule(5.0, fired.append, "a")
    >>> _ = k.schedule(2.0, fired.append, "b")
    >>> k.run()
    >>> (fired, k.now)
    (['b', 'a'], 5.0)
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue = EventQueue()
        self._running = False
        self._events_processed = 0
        self._monitor: KernelMonitor | None = None
        #: Cached bound hooks (None when detached or uninterested).
        self._hook_scheduled: Callable[..., None] | None = None
        self._hook_begin: Callable[..., None] | None = None
        self._hook_end: Callable[..., None] | None = None
        self._current: EventHandle | None = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for tests and sanity checks)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still scheduled (including cancelled husks)."""
        return len(self._queue)

    @property
    def current_event(self) -> EventHandle | None:
        """The event whose handler is executing right now, if any."""
        return self._current

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------

    @property
    def monitor(self) -> KernelMonitor | None:
        """The attached :class:`KernelMonitor`; ``None`` disables all hooks."""
        return self._monitor

    @monitor.setter
    def monitor(self, monitor: KernelMonitor | None) -> None:
        self._monitor = monitor
        if monitor is None:
            self._hook_scheduled = None
            self._hook_begin = None
            self._hook_end = None
            return
        self._hook_scheduled = (
            monitor.event_scheduled
            if getattr(monitor, "wants_scheduled", True)
            else None
        )
        self._hook_begin = (
            monitor.event_begin if getattr(monitor, "wants_begin", True) else None
        )
        self._hook_end = (
            monitor.event_end if getattr(monitor, "wants_end", True) else None
        )

    # ------------------------------------------------------------------
    # Schedule perturbation (see repro.san)
    # ------------------------------------------------------------------

    def perturb_ties(self, seed: int | None) -> None:
        """Install seeded permutation of equal-timestamp tie-breaking.

        With a seed, events scheduled from now on pop in a seeded
        pseudo-random order among equal timestamps instead of FIFO (the
        timestamps themselves are untouched, and the permuted schedule is
        itself exactly reproducible from the seed — see the ordering
        contract in :mod:`repro.sim.events`).  ``None`` restores FIFO.
        Only the sanitizer's perturbation replay uses this; it must be
        called before the events of interest are scheduled.
        """
        self._queue.set_perturbation(
            None if seed is None else random.Random(seed)
        )

    @property
    def perturbed(self) -> bool:
        """Whether equal-timestamp perturbation is currently installed."""
        return self._queue.perturbed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ClockError(f"cannot schedule in the past (delay={delay})")
        handle = self._queue.push(self._now + delay, callback, args)
        hook = self._hook_scheduled
        if hook is not None:
            hook(handle, self._current)
        return handle

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` at absolute virtual ``time``."""
        if time < self._now:
            raise ClockError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        handle = self._queue.push(time, callback, args)
        hook = self._hook_scheduled
        if hook is not None:
            hook(handle, self._current)
        return handle

    def call_soon(self, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``callback(*args)`` at the current instant, after pending
        same-instant events already queued."""
        handle = self._queue.push(self._now, callback, args)
        hook = self._hook_scheduled
        if hook is not None:
            hook(handle, self._current)
        return handle

    def schedule_epilogue(
        self,
        callback: Callable[..., None],
        *args: Any,
        delay: float = 0.0,
        priority: int = 0,
    ) -> EventHandle:
        """Run ``callback(*args)`` at ``now + delay``, after **every**
        normal event scheduled for that instant — including ones not queued
        yet, and regardless of tie-break perturbation.  Epilogues at one
        instant run in ``priority`` order (then FIFO within a priority).

        This is the flush half of the buffer-then-flush pattern (e.g. the
        WLAN medium collects same-instant transmits and flushes them onto
        the channel in canonical order, at priority 0), which makes
        same-instant fan-in schedule-invariant by construction.  Higher
        priorities are for work that must deterministically follow those
        flushes — e.g. chaos fault application (priority 1), so a fault at
        *t* lands after the instant's normal traffic under every schedule.
        """
        if delay < 0:
            raise ClockError(f"cannot schedule in the past (delay={delay})")
        handle = self._queue.push(
            self._now + delay, callback, args, epilogue=True, priority=priority
        )
        hook = self._hook_scheduled
        if hook is not None:
            hook(handle, self._current)
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the single next event. Returns False when drained."""
        before = self._events_processed
        self.run(max_events=1)
        return self._events_processed != before

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so repeated ``run(until=...)``
        calls behave like wall-clock epochs.
        """
        if self._running:
            raise ClockError("kernel is already running (re-entrant run call)")
        self._running = True
        heap = self._queue._heap
        pop = heappop
        hook_begin = self._hook_begin
        hook_end = self._hook_end
        executed = 0
        try:
            while True:
                if max_events is not None and executed >= max_events:
                    break
                while heap and heap[0][3].cancelled:
                    pop(heap)
                if not heap:
                    break
                if until is not None and heap[0][0] > until:
                    break
                handle = pop(heap)[3]
                self._now = handle.time
                self._events_processed += 1
                self._current = handle
                if hook_begin is not None:
                    hook_begin(handle)
                try:
                    handle.callback(*handle.args)
                finally:
                    if hook_end is not None:
                        hook_end(handle)
                    self._current = None
                executed += 1
        finally:
            self._running = False
        if until is not None and until > self._now:
            self._now = until

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Run until no events remain; guard against runaway loops."""
        self.run(max_events=max_events)
        if self._queue.peek_time() is not None:
            raise ClockError(
                f"kernel still busy after {max_events} events — runaway schedule?"
            )

    def reset(self, start_time: float = 0.0) -> None:
        """Drop all pending events and rewind the clock."""
        if self._running:
            raise ClockError("cannot reset a running kernel")
        self._queue.clear()
        self._now = float(start_time)
        self._events_processed = 0
