"""Schedules a :class:`~repro.chaos.plan.FaultPlan` onto a runtime.

The injector turns declarative fault events into concrete actions on the
simulation — ``Node.fail()``, ``Medium.partition()``, cluster-level
restarts — at their planned virtual times, and narrates what it does into
the trace:

* ``chaos.fault`` is emitted the moment a fault is applied;
* ``chaos.restored`` is emitted the moment the *fault condition* ends
  (a heal, a restart completing, a degradation window expiring). The
  invariant checker measures recovery time from these marks.

Injection is deterministic: the injector itself draws no randomness, and
everything it perturbs (loss, backoff, jitter) draws from seed-derived
streams, so the same plan on the same seed replays the same trace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.chaos.plan import (
    BrokerRestart,
    FaultEvent,
    FaultPlan,
    Heal,
    LinkDegrade,
    NodeCrash,
    NodeRecover,
    NodeRestart,
    Partition,
    SensorFlap,
)
from repro.errors import ConfigurationError
from repro.net.medium import Medium
from repro.runtime.base import Runtime
from repro.runtime.node import Node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.middleware import IFoTCluster

__all__ = ["Injector"]

#: Trace source used for all injector events.
TRACE_SOURCE = "chaos"

#: Epilogue priority fault application runs at: after every normal event
#: at the fault instant *and* after the WLAN's canonical flush (priority
#: 0), so a fault at t never races the instant's regular traffic — frames
#: already offered at t are on the channel before the fault lands.
FAULT_EPILOGUE_PRIORITY = 1


class Injector:
    """Applies fault plans to a runtime (and optionally its cluster).

    Node-level faults (crash/recover) need only the runtime; restart
    orchestration (module/broker re-boot with software re-deploy) needs
    the ``cluster``; network faults need the runtime's WLAN.
    """

    def __init__(
        self,
        runtime: Runtime,
        cluster: "IFoTCluster | None" = None,
    ) -> None:
        self.runtime = runtime
        self.cluster = cluster
        self.faults_applied = 0
        self.plans_scheduled = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, plan: FaultPlan) -> None:
        """Arm every event of ``plan`` relative to virtual time zero."""
        plan.validate()
        now = self.runtime.now
        kernel = getattr(self.runtime, "kernel", None)
        for event in plan.events:
            if event.at < now:
                raise ConfigurationError(
                    f"{plan.name}: event {event.kind} at t={event.at} is in "
                    f"the past (now={now})"
                )
            if kernel is not None:
                # Apply as an end-of-instant epilogue: planned fault times
                # routinely coincide with timer multiples (keepalives,
                # heartbeats, sample ticks), and applying mid-instant would
                # make the outcome an accident of event ordering.
                kernel.schedule_epilogue(
                    self._apply,
                    event,
                    delay=event.at - now,
                    priority=FAULT_EPILOGUE_PRIORITY,
                )
            else:
                self.runtime.call_later(event.at - now, self._apply, event)
        self.plans_scheduled += 1

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        self.faults_applied += 1
        self._trace("chaos.fault", kind=event.kind, **event.describe())
        if isinstance(event, NodeCrash):
            self._node(event.node).fail()
        elif isinstance(event, NodeRecover):
            self._node(event.node).recover()
            self._restored("node_crash", node=event.node)
        elif isinstance(event, NodeRestart):
            self._restart_node(event.node)
            self._restored("node_restart", node=event.node)
        elif isinstance(event, BrokerRestart):
            self._require_cluster("broker_restart").restart_broker()
            self._restored("broker_restart")
        elif isinstance(event, Partition):
            self._require_medium().partition(event.group_a, event.group_b)
        elif isinstance(event, Heal):
            self._require_medium().heal(event.group_a, event.group_b)
            self._restored("partition", **event.describe())
        elif isinstance(event, LinkDegrade):
            self._require_medium().degrade_link(
                stations=frozenset(event.stations) if event.stations else None,
                bitrate_factor=event.bitrate_factor,
                burst=event.burst,
                duration_s=event.duration_s,
            )
            self.runtime.call_later(
                event.duration_s, self._restored, "link_degrade"
            )
        elif isinstance(event, SensorFlap):
            self._flap_sensor(event)
        else:  # pragma: no cover - exhaustive over the FaultEvent subclasses
            raise ConfigurationError(f"unhandled fault event {event!r}")

    def _restart_node(self, name: str) -> None:
        cluster = self.cluster
        if cluster is not None and name in cluster.modules:
            cluster.restart_module(name)
        elif cluster is not None and name == cluster.broker.node.name:
            cluster.restart_broker()
        else:
            self._node(name).restart()

    def _flap_sensor(self, event: SensorFlap) -> None:
        sensor = self._find_sensor(event.module, event.device)
        sensor.pause()
        def _resume() -> None:
            # Look the operator up again: the module may have restarted
            # (new operator instance) while the device was down.
            try:
                self._find_sensor(event.module, event.device).resume()
            except ConfigurationError:
                return  # sensor no longer deployed; nothing to resume
            self._restored("sensor_flap", module=event.module, device=event.device)

        self.runtime.call_later(event.down_s, _resume)

    def _find_sensor(self, module_name: str, device: str) -> Any:
        from repro.core.integration import SensorClass  # late: avoid cycle

        cluster = self._require_cluster("sensor_flap")
        module = cluster.module(module_name)
        for operator in module.operators.values():
            if isinstance(operator, SensorClass) and operator.device == device:
                return operator
        raise ConfigurationError(
            f"sensor_flap: no sensor operator for device {device!r} deployed "
            f"on {module_name!r}"
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _node(self, name: str) -> Node:
        nodes = getattr(self.runtime, "nodes", None)
        if nodes is None or name not in nodes:
            raise ConfigurationError(f"chaos: unknown node {name!r}")
        return nodes[name]

    def _require_cluster(self, kind: str) -> "IFoTCluster":
        if self.cluster is None:
            raise ConfigurationError(f"{kind} events need an IFoTCluster")
        return self.cluster

    def _require_medium(self) -> Medium:
        medium: Medium | None = getattr(self.runtime, "wlan", None)
        if medium is None:
            raise ConfigurationError("network fault events need a medium")
        return medium

    def _restored(self, kind: str, **fields: Any) -> None:
        self._trace("chaos.restored", kind=kind, **fields)

    def _trace(self, event: str, **fields: Any) -> None:
        self.runtime.trace(TRACE_SOURCE, event, **fields)
