"""Real runtime: wall-clock execution over asyncio.

Used by the runnable examples. Components are identical to the simulated
case; only the clock, the timers and the transport differ. Computation here
is *actual* computation, so the cost model is the null model.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.net.inproc import InprocNetwork
from repro.runtime.base import Runtime, TimerHandle
from repro.runtime.costs import NULL_COST_MODEL
from repro.runtime.node import Node
from repro.sim.trace import Tracer

__all__ = ["AsyncioRuntime"]


class AsyncioRuntime(Runtime):
    """Wall-clock runtime on a private asyncio event loop.

    The runtime owns its loop: construct the runtime, add nodes and
    components (timers may be armed before the loop runs), then call
    :meth:`run_for`. ``now`` reports seconds since construction so traces
    from both runtimes share an epoch at zero.
    """

    def __init__(
        self,
        seed: int = 0,
        network_latency_s: float = 0.0,
        tracer: Tracer | None = None,
    ) -> None:
        super().__init__(seed=seed, tracer=tracer)
        self.loop = asyncio.new_event_loop()
        self._epoch = self.loop.time()
        self.network = InprocNetwork(loop=self.loop, latency_s=network_latency_s)
        self.nodes: dict[str, Node] = {}
        self._metrics_server: Any = None

    # ------------------------------------------------------------------
    # Runtime contract
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.loop.time() - self._epoch

    def call_later(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> TimerHandle:
        return self.loop.call_later(delay, callback, *args)

    def call_at(
        self, when: float, callback: Callable[..., None], *args: Any
    ) -> TimerHandle:
        return self.loop.call_at(self._epoch + when, callback, *args)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> TimerHandle:
        return self.loop.call_soon(callback, *args)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def add_node(self, name: str) -> Node:
        """Attach a new in-process device."""
        if name in self.nodes:
            raise ConfigurationError(f"node {name!r} already exists")
        interface = self.network.attach(name)
        node = Node(
            runtime=self,
            name=name,
            interface=interface,
            cpu=None,
            cost_model=NULL_COST_MODEL,
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

    def run_for(self, duration_s: float) -> None:
        """Run the loop for ``duration_s`` wall-clock seconds, then return."""

        async def _sleep() -> None:
            await asyncio.sleep(duration_s)

        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(_sleep())
        finally:
            asyncio.set_event_loop(None)

    def serve_metrics(self, host: str = "127.0.0.1", port: int = 0) -> Any:
        """Bind the telemetry scrape endpoint (``repro.obs.export``).

        The socket binds synchronously — the loop is idle outside
        :meth:`run_for` — so the ephemeral port is known immediately;
        requests are served while the loop runs. Returns the
        :class:`~repro.obs.export.MetricsServer`.
        """
        if self._metrics_server is None:
            from repro.obs.export import MetricsServer

            self._metrics_server = MetricsServer(self, host=host, port=port).start()
        return self._metrics_server

    def close(self) -> None:
        """Dispose of the event loop. The runtime is unusable afterwards."""
        if self._metrics_server is not None:
            self._metrics_server.stop()
            self._metrics_server = None
        if not self.loop.is_closed():
            self.loop.close()

    def __enter__(self) -> "AsyncioRuntime":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
