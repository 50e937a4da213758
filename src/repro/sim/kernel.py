"""The discrete-event kernel: a virtual clock and its pending-event set.

The kernel is single-threaded and deterministic. Time only advances inside
:meth:`SimKernel.run` / :meth:`SimKernel.step`, by jumping to the timestamp of
the next scheduled event. All higher layers (network medium, CPU resources,
MQTT broker, middleware classes) are plain callbacks scheduled here.

Hot path
--------
The kernel owns its heap of ``(time, tiebreak, seq, handle)`` entries
(ordering contract: :mod:`repro.sim.events`).  Each scheduler — ``schedule``,
``schedule_at``, ``call_soon``, ``schedule_epilogue`` — is the push itself,
so scheduling an event costs one Python frame: they differ only in how the
time and the tiebreak are chosen.  ``run`` is the one pop/fire loop over the
heap; :meth:`step` runs a single event through that same loop.  Three
optional observers follow the one-attribute-load gate pattern used
throughout the runtime (``repro.runtime.state``), each ``None`` by default:
the tie-break perturbation (the sanitizer's replay), read once per push; the
``monitor`` (the schedule sanitizer), whose setter caches its three bound
hooks, read once per push and once per ``run``; and the ``tally`` mapping:
while it is set the loop appends each handler to a list (one C call), which
:meth:`fold_tally` counts in at the profiler's ticks and reads and when
``run`` returns.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Any, Callable, Protocol

from repro.errors import ClockError
from repro.sim.events import _EPILOGUE_BASE, EventHandle

__all__ = ["KernelMonitor", "SimKernel", "handler_key"]

_new_handle = EventHandle.__new__


class KernelMonitor(Protocol):
    """Observer of the kernel's schedule, attached via ``kernel.monitor``.

    The schedule sanitizer (:mod:`repro.san`) implements this to build a
    happens-before graph: ``event_scheduled`` links every new event to the
    event during whose execution it was created (its *schedule parent*),
    and ``event_begin``/``event_end`` bracket handler execution so state
    accesses can be attributed to the running event.  ``kernel.monitor``
    is ``None`` in normal operation and every hook site guards on that, so
    the monitoring cost when disabled is one attribute load per event.
    """

    def event_scheduled(
        self, handle: EventHandle, parent: EventHandle | None
    ) -> None: ...

    def event_begin(self, handle: EventHandle) -> None: ...

    def event_end(self, handle: EventHandle) -> None: ...


def handler_key(callback: Callable[..., Any]) -> Any:
    """A handler's tally key (inlined in :meth:`SimKernel.fold_tally`): a bound
    method's function, else its name — bounded however many closures run."""
    return (
        getattr(callback, "__func__", None)
        or getattr(callback, "__qualname__", None)
        or type(callback).__name__
    )


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

    def __init__(self) -> None:
        self._now = 0.0
        #: Heap of ``(time, tiebreak, seq, handle)`` entries.
        self._heap: list[tuple[float, float, int, EventHandle]] = []
        self._seq = 0
        #: Seeded tie-break source (see :meth:`perturb_ties`); ``None`` is FIFO.
        self._perturb: random.Random | None = None
        self._running = False
        self._events_processed = 0
        self._monitor: KernelMonitor | None = None
        #: Cached bound hooks (None when detached).
        self._hook_scheduled: Callable[..., None] | None = None
        self._hook_begin: Callable[..., None] | None = None
        self._hook_end: Callable[..., None] | None = None
        self._current: EventHandle | None = None
        #: Executed handlers by :func:`handler_key` (the profiler's event
        #: counts); ``None`` counts nothing.
        self.tally: dict[Any, int] | None = None
        #: Handlers run since the last :meth:`fold_tally` (cleared in place).
        self._ran: list[Callable[..., Any]] = []

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
        return len(self._heap)

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
            self._hook_scheduled = self._hook_begin = self._hook_end = None
            return
        self._hook_scheduled = monitor.event_scheduled
        self._hook_begin = monitor.event_begin
        self._hook_end = monitor.event_end

    # ------------------------------------------------------------------
    # Schedule perturbation (see repro.san)
    # ------------------------------------------------------------------

    def perturb_ties(self, seed: int | None) -> None:
        """Install seeded permutation of equal-timestamp tie-breaking.

        With a seed, events scheduled from now on pop in a seeded
        pseudo-random order among equal timestamps instead of FIFO (the
        timestamps themselves are untouched, and the permuted schedule is
        itself exactly reproducible from the seed — see the ordering
        contract in :mod:`repro.sim.events`).  Events already pending keep
        the tiebreak they were pushed with.  ``None`` restores FIFO.
        Only the sanitizer's perturbation replay uses this; it must be
        called before the events of interest are scheduled.
        """
        self._perturb = None if seed is None else random.Random(seed)

    @property
    def perturbed(self) -> bool:
        """Whether equal-timestamp perturbation is currently installed."""
        return self._perturb is not None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    # Each scheduler below is the push: a NaN time or delay fails its
    # inverted comparison, so it is refused at no extra cost.

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if not delay >= 0:  # noqa: SIM201 - also catches NaN
            raise ClockError(f"cannot schedule in the past (delay={delay})")
        time = self._now + delay
        perturb = self._perturb
        tiebreak = 0.0 if perturb is None else perturb.random()
        seq = self._seq
        self._seq = seq + 1
        handle = _new_handle(EventHandle)
        handle.time = time
        handle.seq = seq
        handle.tiebreak = tiebreak
        handle.callback = callback
        handle.args = args
        handle.cancelled = False
        heappush(self._heap, (time, tiebreak, seq, handle))
        hook = self._hook_scheduled
        if hook is not None:
            hook(handle, self._current)
        return handle

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` at absolute virtual ``time``."""
        if not time >= self._now:  # noqa: SIM201 - also catches NaN
            raise ClockError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        perturb = self._perturb
        tiebreak = 0.0 if perturb is None else perturb.random()
        seq = self._seq
        self._seq = seq + 1
        handle = _new_handle(EventHandle)
        handle.time = time
        handle.seq = seq
        handle.tiebreak = tiebreak
        handle.callback = callback
        handle.args = args
        handle.cancelled = False
        heappush(self._heap, (time, tiebreak, seq, handle))
        hook = self._hook_scheduled
        if hook is not None:
            hook(handle, self._current)
        return handle

    def call_soon(self, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Run ``callback(*args)`` at the current instant, after pending
        same-instant events already queued.  (The clock is never NaN: every
        other scheduler refuses one.)"""
        time = self._now
        perturb = self._perturb
        tiebreak = 0.0 if perturb is None else perturb.random()
        seq = self._seq
        self._seq = seq + 1
        handle = _new_handle(EventHandle)
        handle.time = time
        handle.seq = seq
        handle.tiebreak = tiebreak
        handle.callback = callback
        handle.args = args
        handle.cancelled = False
        heappush(self._heap, (time, tiebreak, seq, handle))
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
        (A normal event scheduled *while* an epilogue runs still precedes
        any epilogue scheduled later; the contract is only meaningful for
        the buffer-then-flush pattern, where the epilogue schedules
        strictly-future work.)

        This is the flush half of the buffer-then-flush pattern (e.g. the
        WLAN medium collects same-instant transmits and flushes them onto
        the channel in canonical order, at priority 0), which makes
        same-instant fan-in schedule-invariant by construction.  Higher
        priorities are for work that must deterministically follow those
        flushes — e.g. chaos fault application (priority 1), so a fault at
        *t* lands after the instant's normal traffic under every schedule.
        """
        if not delay >= 0:  # noqa: SIM201 - also catches NaN
            raise ClockError(f"cannot schedule in the past (delay={delay})")
        if priority < 0:
            raise ValueError(f"epilogue priority must be >= 0, got {priority}")
        time = self._now + delay
        tiebreak = _EPILOGUE_BASE + priority
        seq = self._seq
        self._seq = seq + 1
        handle = _new_handle(EventHandle)
        handle.time = time
        handle.seq = seq
        handle.tiebreak = tiebreak
        handle.callback = callback
        handle.args = args
        handle.cancelled = False
        heappush(self._heap, (time, tiebreak, seq, handle))
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
        heap = self._heap
        pop = heappop
        hook_begin = self._hook_begin
        hook_end = self._hook_end
        ran = None if self.tally is None else self._ran.append
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
                if ran is not None:
                    ran(handle.callback)
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
            if self._ran:
                self.fold_tally()
        if until is not None and until > self._now:
            self._now = until

    def fold_tally(self) -> None:
        """Count the handlers run since the last fold into :attr:`tally`, if set."""
        tally = self.tally
        if tally is not None:
            for callback in self._ran:
                key = (  # handler_key, inline
                    getattr(callback, "__func__", None)
                    or getattr(callback, "__qualname__", None)
                    or type(callback).__name__
                )
                tally[key] = tally.get(key, 0) + 1
        self._ran.clear()

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Run until no events remain; guard against runaway loops."""
        self.run(max_events=max_events)
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
        if heap:
            raise ClockError(
                f"kernel still busy after {max_events} events — runaway schedule?"
            )
