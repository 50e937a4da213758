"""Top-level facade: build a cluster, submit recipes, run applications.

:class:`IFoTCluster` assembles the pieces of the paper's Fig. 7 in a few
lines — a broker module, worker neuron modules with attached devices, and
a management node — on either runtime. Examples and benchmarks start here:

    runtime = SimRuntime(seed=1, cost_model=pi_cost_model())
    cluster = IFoTCluster(runtime)
    module_a = cluster.add_module("module-a")
    module_a.attach_sensor("accel", AccelerometerModel(events))
    ...
    app = cluster.submit(recipe)
    runtime.run(until=30.0)
    app.stop()
"""

from __future__ import annotations

from typing import Any

from repro.core.assignment import Assignment, AssignmentStrategy
from repro.core.management import ManagementNode
from repro.core.node import NeuronModule
from repro.core.recipe import Recipe
from repro.errors import ConfigurationError, DeploymentError
from repro.mqtt.broker import Broker
from repro.runtime.base import Runtime
from repro.runtime.node import Node
from repro.runtime.real import AsyncioRuntime
from repro.runtime.sim import SimRuntime

__all__ = ["IFoTCluster", "Application"]


class Application:
    """A deployed recipe: handle for inspection and teardown."""

    def __init__(
        self,
        cluster: "IFoTCluster",
        recipe: Recipe,
        assignment: Assignment | None,
    ) -> None:
        self.cluster = cluster
        self.recipe = recipe
        self.assignment = assignment
        self.stopped = False

    @property
    def name(self) -> str:
        return self.recipe.name

    def operator(self, subtask_id: str) -> Any:
        """The live operator instance for ``subtask_id`` (local lookup)."""
        if self.assignment is None:
            raise DeploymentError(
                "assignment unknown (recipe was led remotely); "
                "look the operator up on its module directly"
            )
        if subtask_id not in self.assignment.placements:
            raise DeploymentError(f"no such subtask {subtask_id!r} in {self.name!r}")
        module_name = self.assignment.module_for(subtask_id)
        module = self.cluster.module(module_name)
        key = f"{self.recipe.name}/{subtask_id}"
        operator = module.operators.get(key)
        if operator is None:
            raise DeploymentError(f"{key!r} not (yet) deployed on {module_name!r}")
        return operator

    def stop(self) -> None:
        if self.stopped:
            return
        self.cluster.management.stop_application(self.recipe.name)
        self.stopped = True


class IFoTCluster:
    """One broker + N neuron modules + a management node."""

    def __init__(
        self,
        runtime: Runtime,
        broker_node_name: str = "broker-node",
        broker_kwargs: dict[str, Any] | None = None,
        node_kwargs: dict[str, Any] | None = None,
        heartbeat_s: float = 5.0,
        auto_failover: bool = False,
        client_keepalive_s: float = 30.0,
        auto_reconnect: bool = False,
        broker_params: dict[str, Any] | None = None,
    ) -> None:
        self.runtime = runtime
        self.heartbeat_s = heartbeat_s
        #: Keep-alive applied to every module's MQTT session. Chaos
        #: scenarios shrink this so failure detection (and therefore
        #: recovery) happens within a short simulated window.
        self.client_keepalive_s = client_keepalive_s
        self.auto_reconnect = auto_reconnect
        self._broker_params = dict(broker_params or {})
        self.modules: dict[str, NeuronModule] = {}
        broker_node = self._make_node(broker_node_name, **(broker_kwargs or {}))
        self.broker = Broker(broker_node, **self._broker_params)
        management_node = self._make_node("mgmt", **(node_kwargs or {}))
        self.management = ManagementNode(
            NeuronModule(
                management_node,
                self.broker.address,
                keepalive_s=client_keepalive_s,
                auto_reconnect=auto_reconnect,
            ),
            heartbeat_s=heartbeat_s,
            auto_failover=auto_failover,
        )

    # ------------------------------------------------------------------
    # Topology building
    # ------------------------------------------------------------------

    def _make_node(self, name: str, **kwargs: Any) -> Node:
        runtime = self.runtime
        if isinstance(runtime, SimRuntime):
            return runtime.add_node(name, **kwargs)
        if isinstance(runtime, AsyncioRuntime):
            if kwargs:
                raise ConfigurationError(
                    f"node kwargs {sorted(kwargs)} are simulation-only"
                )
            return runtime.add_node(name)
        raise ConfigurationError(
            f"unsupported runtime type {type(runtime).__name__}"
        )

    def add_module(
        self,
        name: str,
        extra_capabilities: set[str] | None = None,
        **node_kwargs: Any,
    ) -> NeuronModule:
        """Create a neuron module (node + MQTT session + agent)."""
        from repro.core.management import ModuleAgent  # late: avoid cycle at import

        if name in self.modules:
            raise ConfigurationError(f"module {name!r} already exists")
        node = self._make_node(name, **node_kwargs)
        module = NeuronModule(
            node,
            self.broker.address,
            extra_capabilities=extra_capabilities,
            keepalive_s=self.client_keepalive_s,
            auto_reconnect=self.auto_reconnect,
        )
        module.agent = ModuleAgent(module, heartbeat_s=self.heartbeat_s)  # type: ignore[attr-defined]
        self.modules[name] = module
        return module

    def module(self, name: str) -> NeuronModule:
        try:
            return self.modules[name]
        except KeyError:
            raise ConfigurationError(f"unknown module {name!r}") from None

    # ------------------------------------------------------------------
    # Restart orchestration (chaos / dynamic join-leave)
    # ------------------------------------------------------------------

    def restart_module(self, name: str) -> NeuronModule:
        """Power-cycle module ``name``: amnesia restart + software re-boot.

        The node loses all component state (operators, MQTT session,
        directory view); its physical devices (sensor/actuator models) and
        identity survive, as on a real reboot. A fresh
        :class:`NeuronModule` + agent come up and announce a new
        incarnation, which triggers management-side re-deployment when
        auto-failover is on.
        """
        from repro.core.management import ModuleAgent  # late: avoid cycle at import

        old = self.module(name)
        sensors = dict(old.sensors)
        actuators = dict(old.actuators)
        extra = set(old._extra_capabilities)
        node = old.node
        node.restart()
        module = NeuronModule(
            node,
            self.broker.address,
            extra_capabilities=extra,
            keepalive_s=self.client_keepalive_s,
            auto_reconnect=self.auto_reconnect,
        )
        for device, model in sensors.items():
            module.attach_sensor(device, model)
        for device, model in actuators.items():
            module.attach_actuator(device, model)
        module.agent = ModuleAgent(module, heartbeat_s=self.heartbeat_s)  # type: ignore[attr-defined]
        self.modules[name] = module
        return module

    def restart_broker(self) -> Broker:
        """Power-cycle the broker node and boot a fresh broker.

        All sessions, subscriptions, retained messages and queued QoS 1
        messages are lost (this broker has no persistence). Clients with
        auto-reconnect re-establish sessions via their keep-alive
        watchdogs, observe ``session_present=False`` and replay their
        subscriptions; agents then re-announce, rebuilding the retained
        registry from live state.
        """
        node = self.broker.node
        node.restart()
        self.broker = Broker(node, **self._broker_params)
        return self.broker

    # ------------------------------------------------------------------
    # Applications
    # ------------------------------------------------------------------

    def settle(self, duration_s: float = 1.0) -> None:
        """Advance a simulated runtime so sessions, announcements and
        subscriptions settle. No-op under the real runtime (callers use
        wall-clock sleeps there)."""
        if isinstance(self.runtime, SimRuntime):
            self.runtime.run(until=self.runtime.now + duration_s)

    def submit(
        self,
        recipe: Recipe,
        strategy: AssignmentStrategy | str | None = None,
        via_module: str | None = None,
    ) -> Application:
        """Deploy ``recipe`` through the management node."""
        assignment = self.management.submit_recipe(
            recipe, strategy=strategy, via_module=via_module
        )
        return Application(self, recipe, assignment)

    def shutdown(self) -> None:
        """Tear the whole cluster down (modules, management, broker)."""
        for module in self.modules.values():
            module.agent.stop()  # type: ignore[attr-defined]
            module.shutdown()
        self.management.shutdown()
        self.broker.stop()
