"""The IFoT neuron module: one device running the middleware.

Paper Fig. 2: an *IFoT neuron module* is "a small computer running IFoT
middleware for processing data streams", with short-range interfaces to
sensors/actuators and a network link to its peers. Here a
:class:`NeuronModule` wraps a runtime :class:`~repro.runtime.node.Node`
with:

* one shared MQTT client session to the cluster broker;
* a registry of locally attached devices (sensor/actuator models), which
  determines the module's capability tags for task assignment;
* the set of operator instances currently deployed on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.splitter import SubTask
from repro.errors import DeploymentError
from repro.mqtt.client import MqttClient
from repro.net.address import Address
from repro.runtime.node import Node
from repro.sensors.base import ActuatorModel, SensorModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.component import Component

__all__ = ["NeuronModule"]


class NeuronModule:
    """A device participating in the IFoT cluster."""

    def __init__(
        self,
        node: Node,
        broker: Address,
        extra_capabilities: set[str] | None = None,
        keepalive_s: float = 30.0,
        auto_reconnect: bool = False,
    ) -> None:
        self.node = node
        self.name = node.name
        self.client = MqttClient(
            node,
            broker,
            client_id=f"ifot.{node.name}",
            keepalive_s=keepalive_s,
            auto_reconnect=auto_reconnect,
        )
        self.client.connect()
        self.sensors: dict[str, SensorModel] = {}
        self.actuators: dict[str, ActuatorModel] = {}
        self.operators: dict[str, "Component"] = {}
        self._extra_capabilities = set(extra_capabilities or ())
        #: Called (no args) whenever the capability set changes; the module
        #: agent hooks this to re-announce immediately instead of waiting
        #: for the next heartbeat.
        self.capability_listeners: list[Any] = []

    # ------------------------------------------------------------------
    # Device registry (the hardware side of sensor/actuator integration)
    # ------------------------------------------------------------------

    def attach_sensor(self, device: str, model: SensorModel) -> None:
        """Wire a sensor device to this module (capability ``sensor:<device>``)."""
        if device in self.sensors:
            raise DeploymentError(f"{self.name}: sensor {device!r} already attached")
        self.sensors[device] = model
        self._notify_capabilities()

    def attach_actuator(self, device: str, model: ActuatorModel) -> None:
        """Wire an actuator device (capability ``actuator:<device>``)."""
        if device in self.actuators:
            raise DeploymentError(
                f"{self.name}: actuator {device!r} already attached"
            )
        self.actuators[device] = model
        self._notify_capabilities()

    def _notify_capabilities(self) -> None:
        for listener in self.capability_listeners:
            listener()

    def sensor(self, device: str) -> SensorModel:
        try:
            return self.sensors[device]
        except KeyError:
            raise DeploymentError(
                f"{self.name}: no sensor {device!r} attached"
            ) from None

    def actuator(self, device: str) -> ActuatorModel:
        try:
            return self.actuators[device]
        except KeyError:
            raise DeploymentError(
                f"{self.name}: no actuator {device!r} attached"
            ) from None

    def current_load(self) -> float:
        """Load points of everything deployed here (assignment units).

        The rate-blind per-operator estimates placement keeps as its
        tie-break: announcements stay in the currency peers already read,
        while the leader prices CPU from its own assignment table.
        """
        from repro.core.assignment import estimate_cost  # avoid import cycle

        total = 0.0
        for operator in self.operators.values():
            subtask = getattr(operator, "subtask", None)
            if subtask is not None:
                total += estimate_cost(subtask)
        return total

    @property
    def capabilities(self) -> set[str]:
        """Capability tags used by capability-aware task assignment."""
        tags = set(self._extra_capabilities)
        tags.update(f"sensor:{name}" for name in self.sensors)
        tags.update(f"actuator:{name}" for name in self.actuators)
        return tags

    # ------------------------------------------------------------------
    # Operator hosting
    # ------------------------------------------------------------------

    def deploy(self, application: str, subtask: SubTask) -> "Component":
        """Instantiate and start ``subtask``'s operator on this module."""
        from repro.core.operators import create_operator  # avoid import cycle

        key = f"{application}/{subtask.subtask_id}"
        if key in self.operators:
            raise DeploymentError(f"{self.name}: {key!r} already deployed")
        operator = create_operator(self, application, subtask)
        self.operators[key] = operator
        self._notify_capabilities()  # announced state includes load
        self.node.runtime.trace(
            self.name,
            "module.deploy",
            application=application,
            subtask=subtask.subtask_id,
            operator=subtask.operator,
        )
        return operator

    def undeploy(self, application: str, subtask_id: str) -> bool:
        """Stop and remove one operator instance. Returns True if found."""
        key = f"{application}/{subtask_id}"
        operator = self.operators.pop(key, None)
        if operator is None:
            return False
        operator.stop()
        self._notify_capabilities()
        return True

    def undeploy_application(self, application: str) -> int:
        """Stop every operator of ``application``; returns how many."""
        prefix = f"{application}/"
        keys = [k for k in self.operators if k.startswith(prefix)]
        for key in keys:
            self.operators.pop(key).stop()
        if keys:
            self._notify_capabilities()
        return len(keys)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """Snapshot published to the management node."""
        cpu = self.node.cpu
        return {
            "module": self.name,
            # Incarnation stamps every liveness-bearing message (registry
            # announcements already carry it); consumers can tell a fresh
            # boot's report from a stale pre-restart one.
            "incarnation": self.node.incarnation,
            "operators": sorted(self.operators),
            "sensors": sorted(self.sensors),
            "actuators": sorted(self.actuators),
            "capabilities": sorted(self.capabilities),
            "cpu_queue": cpu.queue_length if cpu is not None else 0,
            "jobs_completed": cpu.stats.jobs_completed if cpu is not None else 0,
            "jobs_dropped": cpu.stats.jobs_dropped if cpu is not None else 0,
        }

    def shutdown(self) -> None:
        """Stop all operators and the MQTT session."""
        for operator in list(self.operators.values()):
            operator.stop()
        self.operators.clear()
        self.client.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NeuronModule({self.name!r}, {len(self.operators)} operators)"
