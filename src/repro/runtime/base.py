"""The runtime contract shared by simulated and real execution."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Protocol

from repro.sim.trace import Tracer
from repro.util.ids import IdGenerator
from repro.util.rng import RngRegistry

__all__ = ["Runtime", "TimerHandle"]


class TimerHandle(Protocol):
    """Anything with a ``cancel()`` method; returned by timer calls."""

    def cancel(self) -> None: ...


class Runtime(ABC):
    """Clock, timers, identifiers, randomness and tracing for components.

    Components never import ``time``, ``random`` or ``asyncio`` directly;
    everything temporal or stochastic flows through the runtime so that a
    simulation run is exactly reproducible and a real run uses the wall
    clock, with identical component code.
    """

    def __init__(self, seed: int = 0, tracer: Tracer | None = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.rng = RngRegistry(seed)
        self.ids = IdGenerator()
        # Observability hook (repro.obs.ObsState). None means disabled, and
        # every instrumentation site guards on that — the hot path cost of
        # tracing being off is one attribute load + identity check.
        self.obs: Any = None
        # Schedule-sanitizer hook (repro.san.SimSan), gated exactly like
        # ``obs``: tracked state cells (repro.runtime.state) probe it on
        # every access, and None short-circuits the probe.
        self.san: Any = None
        # Sim-time profiler hook (repro.prof.Profiler), same gating: the
        # CPU and WLAN sites charge grants to it, straight into its storage
        # once bound, and None keeps the hot path at one attribute load per
        # site. The kernel counts handlers into the profiler's tally.
        self.prof: Any = None
        # Online SLO engine hook (repro.obs.slo.SloEngine), same gating.
        # The engine is a pure consumer of finished spans and timers; None
        # means no SLO evaluation and zero added events.
        self.slo: Any = None

    @property
    @abstractmethod
    def now(self) -> float:
        """Current time in seconds (virtual or wall-clock epoch)."""

    @abstractmethod
    def call_later(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> TimerHandle:
        """Invoke ``callback(*args)`` after ``delay`` seconds."""

    @abstractmethod
    def call_at(
        self, when: float, callback: Callable[..., None], *args: Any
    ) -> TimerHandle:
        """Invoke ``callback(*args)`` at the instant ``when`` on the :attr:`now` clock."""

    @abstractmethod
    def call_soon(self, callback: Callable[..., None], *args: Any) -> TimerHandle:
        """Invoke ``callback(*args)`` as soon as possible, preserving order."""

    def trace(self, source: str, event: str, **fields: Any) -> None:
        """Emit a trace record stamped with the current time."""
        self.tracer.emit(self.now, source, event, **fields)
