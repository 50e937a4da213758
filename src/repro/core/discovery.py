"""Stream search and dynamic membership (the paper's future work, §VI).

"Definition of ... the search function for data streams generated from IoT
devices that can dynamically join / leave the network are also part of
future work." This module implements both on top of retained MQTT
messages, so no extra infrastructure is needed:

* every module agent announces itself on ``ifot/registry/module/<name>``
  (retained, refreshed every heartbeat) with its capabilities;
* every deployed task's output streams are announced on
  ``ifot/registry/stream/<app>/<stream>`` (retained);
* a :class:`StreamDirectory` subscribes to ``ifot/registry/#`` and answers
  membership and stream-search queries locally; entries whose heartbeat is
  older than :data:`DIRECTORY_TTL_S` count as departed (leave = silence, no goodbye
  required — crash-stop friendly).
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from typing import Any

from repro.core.assignment import ModuleInfo
from repro.mqtt.client import MqttClient
from repro.mqtt.packets import Packet
from repro.runtime.component import Component
from repro.runtime.node import Node
from repro.runtime.state import tracked_state

__all__ = ["ModuleRecord", "StreamRecord", "StreamDirectory", "module_topic", "stream_topic"]


#: An announcement older than this counts as a departure.
DIRECTORY_TTL_S = 30.0


def module_topic(module: str) -> str:
    return f"ifot/registry/module/{module}"


def stream_topic(application: str, stream: str) -> str:
    return f"ifot/registry/stream/{application}/{stream}"


@dataclass
class ModuleRecord:
    """One module's latest announcement."""

    name: str
    capabilities: set[str]
    capacity: float
    announced_at: float
    assignable: bool = True
    load: float = 0.0
    #: The announcing node's boot count. A changed incarnation under the
    #: same name means the module lost its RAM (amnesia restart), not
    #: merely its connectivity.
    incarnation: int = 0


@dataclass
class StreamRecord:
    """One announced flow."""

    application: str
    stream: str
    topic: str
    producer_module: str
    producer_task: str
    announced_at: float


class StreamDirectory(Component):
    """Live view of cluster membership and available streams."""

    def __init__(self, node: Node, client: MqttClient) -> None:
        super().__init__(node, f"directory@{node.name}")
        self.client = client
        self._modules: dict[str, ModuleRecord] = {}
        self._streams: dict[str, StreamRecord] = {}
        self._member_watchers: list[Any] = []
        self._heartbeat_watchers: list[Any] = []
        self._known_alive: set[str] = set()
        # The directory's view is written by retained-message callbacks
        # racing the periodic TTL rescan, and read by placement queries —
        # track it so the sanitizer can order those accesses.
        self._view_cell = tracked_state(node.runtime, f"directory.{node.name}", "view")
        client.subscribe("ifot/registry/module/+", self._on_module)
        client.subscribe("ifot/registry/stream/+/+", self._on_stream)
        # TTL expiry produces no message, so membership changes from
        # silent death are detected by periodic rescans.
        self.every(DIRECTORY_TTL_S / 3.0, self._scan_membership)

    # ------------------------------------------------------------------
    # Membership watching
    # ------------------------------------------------------------------

    def watch_members(self, callback: Any) -> None:
        """Register ``callback(name, alive)`` for join/leave events.

        Leave fires on a retained tombstone (clean leave or broker-side
        last-will) and on TTL expiry (silent death).
        """
        self._member_watchers.append(callback)

    def watch_heartbeats(self, callback: Any) -> None:
        """Register ``callback(name, incarnation, now)`` per announcement.

        Fires on every non-tombstone registry refresh — the raw liveness
        signal a failure detector accrues suspicion from, finer-grained
        than the boolean join/leave edges of :meth:`watch_members`.
        """
        self._heartbeat_watchers.append(callback)

    def _scan_membership(self) -> None:
        self._view_cell.note_write()
        alive_now = {m.name for m in self.modules()}
        for name in sorted(alive_now - self._known_alive):
            self._notify_members(name, True)
        for name in sorted(self._known_alive - alive_now):
            self._notify_members(name, False)
        self._known_alive = alive_now

    def _notify_members(self, name: str, alive: bool) -> None:
        self._view_cell.note_write()
        self._known_alive = (
            self._known_alive | {name} if alive else self._known_alive - {name}
        )
        for watcher in self._member_watchers:
            watcher(name, alive)

    # ------------------------------------------------------------------
    # Announcement handling
    # ------------------------------------------------------------------

    def _on_module(self, topic: str, payload: Any, _packet: Packet) -> None:
        self._view_cell.note_write()
        name = topic.rsplit("/", 1)[-1]
        if payload is None:  # retained tombstone: clean leave or last-will
            if self._modules.pop(name, None) is not None:
                self._notify_members(name, False)
            return
        previous = self._modules.get(name)
        incarnation = int(payload.get("incarnation", 0))
        if (
            previous is not None
            and incarnation != previous.incarnation
            and name in self._known_alive
        ):
            # Amnesia restart: same identity, fresh boot. Watchers see a
            # leave *then* a join, so orchestration layers reclaim lost
            # state (re-deploy sub-tasks) even when the restart was faster
            # than the keep-alive/TTL detectors.
            self._notify_members(name, False)
        is_new = name not in self._known_alive
        self._modules[name] = ModuleRecord(
            name=name,
            capabilities=set(payload.get("capabilities", [])),
            capacity=float(payload.get("capacity", 1.0)),
            announced_at=self.runtime.now,
            assignable=bool(payload.get("assignable", True)),
            load=float(payload.get("load", 0.0)),
            incarnation=incarnation,
        )
        if is_new:
            self._notify_members(name, True)
        for watcher in self._heartbeat_watchers:
            watcher(name, incarnation, self.runtime.now)

    def _on_stream(self, topic: str, payload: Any, _packet: Packet) -> None:
        self._view_cell.note_write()
        key = topic.split("ifot/registry/stream/", 1)[-1]
        if payload is None:
            self._streams.pop(key, None)
            return
        application, stream = key.split("/", 1)
        self._streams[key] = StreamRecord(
            application=application,
            stream=stream,
            topic=str(payload.get("topic", "")),
            producer_module=str(payload.get("module", "")),
            producer_task=str(payload.get("task", "")),
            announced_at=self.runtime.now,
        )

    def _alive(self, announced_at: float) -> bool:
        return self.runtime.now - announced_at <= DIRECTORY_TTL_S

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def modules(self) -> list[ModuleRecord]:
        """Currently alive modules (heartbeat within TTL)."""
        self._view_cell.note_read()
        return sorted(
            (m for m in self._modules.values() if self._alive(m.announced_at)),
            key=lambda m: m.name,
        )

    def module_infos(self) -> list[ModuleInfo]:
        """Alive, assignable modules as task-assignment inputs."""
        return [
            ModuleInfo(
                name=m.name,
                capacity=m.capacity,
                capabilities=set(m.capabilities),
                base_load=m.load,
            )
            for m in self.modules()
            if m.assignable
        ]

    def find_streams(
        self,
        application: str | None = None,
        pattern: str = "*",
    ) -> list[StreamRecord]:
        """Stream search: glob ``pattern`` against stream names, optionally
        within one application."""
        self._view_cell.note_read()
        return sorted(
            (
                s
                for s in self._streams.values()
                if self._alive(s.announced_at)
                and (application is None or s.application == application)
                and fnmatch.fnmatch(s.stream, pattern)
            ),
            key=lambda s: (s.application, s.stream),
        )

    # ------------------------------------------------------------------
    # Announcing (used by module agents)
    # ------------------------------------------------------------------

    def announce_module(
        self,
        name: str,
        capabilities: set[str],
        assignable: bool = True,
        load: float = 0.0,
        incarnation: int = 0,
    ) -> None:
        self.client.publish(
            module_topic(name),
            {
                "capabilities": sorted(capabilities),
                "capacity": 1.0,
                "assignable": assignable,
                "load": load,
                "incarnation": incarnation,
                "ts": self.runtime.now,
            },
            retain=True,
        )

    def announce_stream(
        self,
        application: str,
        stream: str,
        topic: str,
        module: str,
        task: str,
    ) -> None:
        self.client.publish(
            stream_topic(application, stream),
            {"topic": topic, "module": module, "task": task, "ts": self.runtime.now},
            retain=True,
        )

    def withdraw_module(self, name: str) -> None:
        """Clean leave: overwrite the retained announcement with a tombstone."""
        self.client.publish(module_topic(name), None, retain=True)
