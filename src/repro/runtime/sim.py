"""Simulated runtime: virtual clock, WLAN medium, Pi-class CPUs."""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.net.wlan import WlanConfig, WlanMedium
from repro.runtime.base import Runtime, TimerHandle
from repro.runtime.costs import CostModel, NULL_COST_MODEL
from repro.runtime.node import Node
from repro.sim.kernel import SimKernel
from repro.sim.resources import CpuResource
from repro.sim.trace import Tracer

__all__ = ["SimRuntime"]


class SimRuntime(Runtime):
    """Deterministic runtime over a discrete-event kernel.

    Owns the kernel, one shared WLAN medium, and the set of nodes. A typical
    experiment builds a runtime, adds nodes, instantiates middleware classes
    on them, and calls :meth:`run`.

    >>> rt = SimRuntime(seed=1)
    >>> node = rt.add_node("pi-a")
    >>> ticks = []
    >>> _ = rt.call_later(1.5, lambda: ticks.append(rt.now))
    >>> rt.run(until=10.0)
    >>> ticks
    [1.5]
    """

    def __init__(
        self,
        seed: int = 0,
        wlan_config: WlanConfig | None = None,
        cost_model: CostModel = NULL_COST_MODEL,
        tracer: Tracer | None = None,
    ) -> None:
        super().__init__(seed=seed, tracer=tracer)
        self.kernel = SimKernel()
        self.cost_model = cost_model
        self.wlan = WlanMedium(
            self.kernel,
            config=wlan_config,
            # A forked sub-registry gives the medium independent named
            # streams (jitter / loss / burst), all derived from this
            # runtime's seed: identical seeds replay identical runs,
            # chaos schedules included.
            rng=self.rng.fork("wlan"),
            tracer=self.tracer,
            runtime=self,
        )
        self.nodes: dict[str, Node] = {}

    # ------------------------------------------------------------------
    # Runtime contract
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.kernel.now

    def call_later(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> TimerHandle:
        return self.kernel.schedule(delay, callback, *args)

    def call_at(
        self, when: float, callback: Callable[..., None], *args: Any
    ) -> TimerHandle:
        return self.kernel.schedule_at(when, callback, *args)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> TimerHandle:
        return self.kernel.call_soon(callback, *args)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def add_node(
        self,
        name: str,
        cpu_speed: float = 1.0,
        cpu_cores: int = 1,
        cost_model: CostModel | None = None,
        queue_limit: int | None = None,
    ) -> Node:
        """Attach a new device to the WLAN and give it a CPU queue.

        ``cpu_speed`` scales the shared cost model (2.0 = twice as fast as
        the Pi-class reference); ``cost_model`` overrides it entirely.
        ``queue_limit`` bounds the CPU's waiting queue (overload drops).
        """
        if name in self.nodes:
            raise ConfigurationError(f"node {name!r} already exists")
        interface = self.wlan.attach(name)
        cpu = CpuResource(
            self.kernel,
            name=f"{name}.cpu",
            servers=cpu_cores,
            speed=cpu_speed,
            queue_limit=queue_limit,
            runtime=self,
        )
        node = Node(
            runtime=self,
            name=name,
            interface=interface,
            cpu=cpu,
            cost_model=cost_model if cost_model is not None else self.cost_model,
        )
        self.nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise ConfigurationError(f"unknown node {name!r}") from None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Advance virtual time (see :meth:`repro.sim.SimKernel.run`)."""
        self.kernel.run(until=until, max_events=max_events)

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        self.kernel.run_until_idle(max_events=max_events)
