"""A node: one device hosting middleware classes.

A :class:`Node` bundles what a component needs from "the machine it runs
on": a network attachment (:class:`~repro.net.medium.NetworkInterface`), an
optional CPU queue (simulation only), and a cost model. ``execute`` is the
single choke point through which all simulated compute flows.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable

from repro.net.address import Address
from repro.net.medium import NetworkInterface, Receiver
from repro.runtime.base import Runtime
from repro.runtime.costs import CostModel, NULL_COST_MODEL
from repro.runtime.state import tracked_state
from repro.sim.resources import CpuResource

__all__ = ["Node"]


class Node:
    """One device (neuron module, sensor node, management laptop...).

    Parameters
    ----------
    runtime:
        The runtime this node lives on.
    name:
        Unique station name; also the node's address stem.
    interface:
        Network attachment created by the owning runtime.
    cpu:
        FIFO CPU queue in simulation; ``None`` under the real runtime
        (real computation occupies the event loop directly).
    cost_model:
        Operation costs charged by :meth:`execute`.
    """

    def __init__(
        self,
        runtime: Runtime,
        name: str,
        interface: NetworkInterface,
        cpu: CpuResource | None = None,
        cost_model: CostModel = NULL_COST_MODEL,
    ) -> None:
        self.runtime = runtime
        self.name = name
        self.interface = interface
        self.cpu = cpu
        self.cost_model = cost_model
        self._op_counts: dict[str, int] = defaultdict(int)
        # Liveness and incarnation are tracked state (repro.runtime.state):
        # fault injection writes them while delivery/compute paths read
        # them, and the schedule sanitizer checks those accesses for
        # schedule-order races.
        self._alive = tracked_state(runtime, f"node.{name}", "alive", True)
        self._incarnation = tracked_state(runtime, f"node.{name}", "incarnation", 0)
        #: Components currently hosted here (self-registered by
        #: :class:`~repro.runtime.component.Component`).
        self.components: list[Any] = []
        #: Callbacks invoked after :meth:`restart` brings the node back.
        self.restart_hooks: list[Callable[["Node"], None]] = []

    @property
    def alive(self) -> bool:
        """Whether the node is up (reads are visible to the sanitizer)."""
        return self._alive.value

    @alive.setter
    def alive(self, up: bool) -> None:
        self._alive.value = up

    @property
    def incarnation(self) -> int:
        """Bumped by :meth:`restart`; queued CPU work from an earlier
        incarnation is discarded when it completes."""
        return self._incarnation.value

    @incarnation.setter
    def incarnation(self, value: int) -> None:
        self._incarnation.value = value

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------

    def execute(
        self,
        op: str,
        fn: Callable[..., None],
        *args: Any,
        nbytes: int = 0,
    ) -> None:
        """Run ``fn(*args)`` after charging the cost of operation ``op``.

        In simulation the job is queued on this node's CPU, so concurrent
        work serializes and queueing delay accumulates under load. Under the
        real runtime the function runs immediately. Dead nodes drop work
        silently (used by failure-injection tests).
        """
        # Cell fields are read directly unless the sanitizer is watching,
        # when ``.value`` records the same reads in the same order.
        san = self.runtime.san
        if not (self._alive._value if san is None else self._alive.value):
            return
        index = self._op_counts[op]
        self._op_counts[op] = index + 1
        if self.cpu is not None:
            # ``CostModel.cost(op, nbytes, index)``, priced inline: the
            # same float expression, without its two frames.
            model = self.cost_model
            entry = model.ops.get(op)
            if entry is None:
                cost = 0.0
            else:
                cost = entry.base_s + entry.per_byte_s * nbytes
                if index < entry.warmup_ops:
                    cost += entry.warmup_extra_s
                cost *= model.scale
            incarnation = (
                self._incarnation._value if san is None else self._incarnation.value
            )
            # The op name becomes the job label, which is how the
            # profiler attributes this node's busy time per operation.
            self.cpu.submit(cost, self._guarded, op, (fn, args, incarnation))
        else:
            fn(*args)  # liveness was read above, in this same call

    def _guarded(
        self, fn: Callable[..., None], args: tuple[Any, ...], incarnation: int
    ) -> None:
        # Work queued before a restart belongs to a dead incarnation: its
        # closures reference components that no longer exist.
        if self.runtime.san is None:
            if self._alive._value and incarnation == self._incarnation._value:
                fn(*args)
        elif self._alive.value and incarnation == self._incarnation.value:
            fn(*args)

    def op_count(self, op: str) -> int:
        """How many times ``op`` has been charged on this node."""
        return self._op_counts[op]

    # ------------------------------------------------------------------
    # Network
    # ------------------------------------------------------------------

    def address(self, service: str = "default") -> Address:
        return Address(self.name, service)

    def bind(self, service: str, receiver: Receiver) -> None:
        """Register ``receiver`` for datagrams addressed to ``service``."""
        self.interface.bind(service, self._guard_receiver(receiver))

    def _guard_receiver(self, receiver: Receiver) -> Receiver:
        runtime = self.runtime
        alive = self._alive

        def guarded(source: Address, payload: bytes) -> None:
            if alive._value if runtime.san is None else alive.value:
                receiver(source, payload)

        return guarded

    def unbind(self, service: str) -> None:
        self.interface.unbind(service)

    def send(self, source_service: str, destination: Address, payload: bytes) -> None:
        """Transmit a datagram from this node."""
        alive = self._alive
        if not (alive._value if self.runtime.san is None else alive.value):
            return
        self.interface.send(source_service, destination, payload)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    def fail(self) -> None:
        """Crash-stop the node: it stops sending, receiving and computing."""
        self.alive = False

    def recover(self) -> None:
        """Blip recovery: bring a failed node back **with its state intact**.

        Guarantees:

        * all component state (queues, sessions, windows) survives — the
          node behaves as if it merely lost power to its radio and CPU for
          the failure window;
        * timers armed before the failure fire again (their callbacks were
          guarded, not cancelled), so periodic behaviour resumes without
          re-registration;
        * CPU work queued before the failure runs only if its job completes
          after the recovery (same incarnation); a job that completes while
          the node is down is dropped, not deferred — a 1 s job started at
          0, with ``fail()`` at 0.5 and ``recover()`` at 1.5, never runs.

        Models a brief freeze (GC pause, transient brown-out). For a crash
        that loses RAM contents, use :meth:`restart`.
        """
        self.alive = True

    def restart(self) -> None:
        """Amnesia restart: crash the node and boot a **fresh incarnation**.

        Guarantees:

        * every component hosted on the node is stopped (timers cancelled,
          services unbound via ``on_stop``) — no timer armed before the
          restart ever fires afterwards;
        * CPU work queued by the previous incarnation is discarded when it
          surfaces, never executed;
        * per-operation cost counters reset (warm-up costs are charged
          again, as on a real reboot);
        * the node comes back ``alive`` with no components; callers rebuild
          the software stack, then :attr:`restart_hooks` fire so
          orchestration layers (e.g. a cluster) can re-announce/re-deploy.

        Models a power-cycled device whose RAM is lost but whose identity
        (station name, address) persists.
        """
        self.alive = False  # no goodbye packets escape mid-teardown
        # LIFO: dependents (agents, operators) stop before what they were
        # built on (MQTT client), mirroring construction order.
        for component in reversed(list(self.components)):
            component.stop()
        self.components.clear()
        self._op_counts.clear()
        self.incarnation += 1
        self.alive = True
        self.runtime.trace(self.name, "node.restart", incarnation=self.incarnation)
        for hook in list(self.restart_hooks):
            hook(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "failed"
        return f"Node({self.name!r}, {state})"
