"""Component base class.

Every long-lived piece of software hosted on a node — MQTT broker, MQTT
client, all the middleware classes of Fig. 4 — derives from
:class:`Component`: a named, stoppable bundle of timers and trace helpers.
Components are strictly non-blocking; all waiting happens through timers or
inbound messages.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.runtime.base import Runtime, TimerHandle
from repro.runtime.node import Node

__all__ = ["Component", "PeriodicTimer"]


def _pending(handles: list[Any], runtime: Runtime) -> list[Any]:
    """The ``call_later`` handles that are neither cancelled nor past due.

    A sim ``EventHandle`` carries ``cancelled``/``time`` on the runtime
    clock; an asyncio ``TimerHandle`` answers ``cancelled()``/``when()`` on
    its loop's clock.
    """
    if hasattr(handles[0], "when"):
        now = runtime.loop.time()
        return [h for h in handles if not h.cancelled() and h.when() >= now]
    now = runtime.now
    return [h for h in handles if not h.cancelled and h.time >= now]


class PeriodicTimer:
    """Drift-free periodic callback.

    The k-th firing (k = 1, 2, ...) is scheduled at ``epoch + k * interval``
    (not ``now + interval`` each time), so a 20 Hz sensor emits exactly 20
    samples per virtual second regardless of how long each callback takes
    to schedule. The first firing happens one interval after the epoch
    (= creation time + ``start_delay``).
    """

    def __init__(
        self,
        runtime: Runtime,
        interval: float,
        callback: Callable[[], None],
        start_delay: float = 0.0,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._runtime = runtime
        self.interval = interval
        self._callback = callback
        self._epoch = runtime.now + start_delay
        self._count = 0
        self._handle: TimerHandle | None = None
        self.cancelled = False
        self._arm()

    def _arm(self) -> None:
        next_time = self._epoch + (self._count + 1) * self.interval
        delay = max(0.0, next_time - self._runtime.now)
        self._handle = self._runtime.call_later(delay, self._fire)

    def _fire(self) -> None:
        if self.cancelled:
            return
        self._count += 1
        self._arm()  # re-arm first so callbacks may cancel the timer
        self._callback()

    @property
    def fire_count(self) -> int:
        return self._count

    def cancel(self) -> None:
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None


class Component:
    """A named, stoppable, timer-owning unit of behaviour on a node."""

    def __init__(self, node: Node, name: str) -> None:
        self.node = node
        self.runtime: Runtime = node.runtime
        self.name = name
        self._timers: list[TimerHandle] = []
        self._timers_sweep_at = 16
        self._periodic: list[PeriodicTimer] = []
        self.stopped = False
        node.components.append(self)
        if self.runtime.obs is not None:
            self.runtime.obs.register_node(node)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def after(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> TimerHandle:
        """One-shot timer owned by this component."""
        runtime = self.runtime
        handle = runtime.call_later(delay, self._guard(callback), *args)
        self._timers.append(handle)  # repro: san-ok[SAN020] registration; stop() cancels all
        if len(self._timers) >= self._timers_sweep_at:
            # The list has doubled since the last sweep: forget the handles
            # that can no longer fire, so a long-lived component holds its
            # pending timers and not every timer it ever armed. Which dead
            # handles are held is invisible to the schedule.
            self._timers[:] = _pending(self._timers, runtime)  # repro: san-ok[SAN020] drops spent handles only
            self._timers_sweep_at = max(16, 2 * len(self._timers))  # repro: san-ok[SAN020] sweep bookkeeping
        return handle

    def every(
        self, interval: float, callback: Callable[[], None], start_delay: float = 0.0
    ) -> PeriodicTimer:
        """Drift-free periodic timer owned by this component."""
        timer = PeriodicTimer(
            self.runtime, interval, self._guard(callback), start_delay=start_delay
        )
        # Live timers only: a reconnecting client cancels one keep-alive
        # timer and arms the next.
        self._periodic[:] = [t for t in self._periodic if not t.cancelled]  # repro: san-ok[SAN020] drops cancelled timers only
        self._periodic.append(timer)  # repro: san-ok[SAN020] registration; stop() cancels all
        return timer

    def _guard(self, callback: Callable[..., None]) -> Callable[..., None]:
        alive = self.node._alive  # the cell: one recorded read per firing

        def guarded(*args: Any) -> None:
            if not self.stopped and alive.value:
                callback(*args)

        return guarded

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------

    def trace(self, event: str, **fields: Any) -> None:
        runtime = self.runtime
        tracer = runtime.tracer
        if tracer.wants(event):
            tracer.emit_fields(runtime.now, self.name, event, fields)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Cancel all timers and mark the component stopped. Idempotent."""
        if self.stopped:
            return
        self.stopped = True  # repro: san-ok[SAN020] monotonic latch, guarded re-entry
        for handle in self._timers:
            handle.cancel()
        self._timers.clear()  # repro: san-ok[SAN020] idempotent teardown
        for timer in self._periodic:
            timer.cancel()
        self._periodic.clear()  # repro: san-ok[SAN020] idempotent teardown
        if self in self.node.components:
            self.node.components.remove(self)  # repro: san-ok[SAN020] idempotent teardown
        self.on_stop()

    def on_stop(self) -> None:
        """Subclass hook: release subscriptions, flush state..."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "stopped" if self.stopped else "running"
        return f"{type(self).__name__}({self.name!r} on {self.node.name!r}, {state})"
