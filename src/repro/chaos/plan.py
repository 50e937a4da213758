"""Declarative fault plans: typed fault events on a timeline.

A :class:`FaultPlan` is data, not code — a named, validated
timeline of fault events. The same plan object drives the injector, the
chaos benchmark matrix and the CLI, and because every stochastic element
underneath (jitter, loss, bursts, backoff) draws from seed-derived
streams, *plan + seed* fully determines a run.

Event taxonomy (see ``docs/ARCHITECTURE.md`` for the fault model):

========================  ====================================================
:class:`NodeCrash`        crash-stop a node (radio + CPU silent; RAM kept)
:class:`NodeRecover`      end a crash as a *blip*: state + timers resume
:class:`NodeRestart`      end-of-crash as *amnesia*: components torn down,
                          fresh incarnation boots, software re-deployed
:class:`BrokerRestart`    power-cycle the broker node (all sessions lost)
:class:`Partition`        cut layer-2 reachability between station groups
:class:`Heal`             remove a partition (or all of them)
:class:`LinkDegrade`      Gilbert–Elliott bursty loss and/or bitrate
                          throttling, channel-wide or per-station, timed
:class:`SensorFlap`       a sensor device stops producing, then resumes
========================  ====================================================
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, ClassVar, Iterator

from repro.errors import ConfigurationError
from repro.net.wlan import GilbertElliottConfig

__all__ = [
    "FaultEvent",
    "NodeCrash",
    "NodeRecover",
    "NodeRestart",
    "BrokerRestart",
    "Partition",
    "Heal",
    "LinkDegrade",
    "SensorFlap",
    "FaultPlan",
]


@dataclass(frozen=True)
class FaultEvent:
    """Base event: something happens at virtual time ``at``."""

    at: float
    kind: ClassVar[str] = ""

    def problems(self) -> list[str]:
        """Every configuration problem with this event (empty = valid)."""
        if self.at < 0:
            return [f"{self.kind}: at={self.at} must be >= 0"]
        return []

    def validate(self) -> None:
        problems = self.problems()
        if problems:
            raise ConfigurationError(problems[0])

    def describe(self) -> dict[str, Any]:
        """Trace-friendly summary (flat JSON-encodable fields)."""
        payload = asdict(self)
        payload.pop("at", None)
        return {
            k: (sorted(v) if isinstance(v, (set, frozenset)) else v)
            for k, v in payload.items()
            if v is not None
        }


@dataclass(frozen=True)
class NodeCrash(FaultEvent):
    """Crash-stop ``node``: no sends, receives or compute until a
    :class:`NodeRecover` / :class:`NodeRestart` brings it back."""

    node: str = ""
    kind: ClassVar[str] = "node_crash"

    def problems(self) -> list[str]:
        problems = super().problems()
        if not self.node:
            problems.append("node_crash needs a node name")
        return problems


@dataclass(frozen=True)
class NodeRecover(FaultEvent):
    """Blip recovery of a crashed ``node``: RAM and timers intact."""

    node: str = ""
    kind: ClassVar[str] = "node_recover"

    def problems(self) -> list[str]:
        problems = super().problems()
        if not self.node:
            problems.append("node_recover needs a node name")
        return problems


@dataclass(frozen=True)
class NodeRestart(FaultEvent):
    """Amnesia restart of ``node``: components torn down, incarnation
    bumped, middleware stack rebuilt (via the cluster when available)."""

    node: str = ""
    kind: ClassVar[str] = "node_restart"

    def problems(self) -> list[str]:
        problems = super().problems()
        if not self.node:
            problems.append("node_restart needs a node name")
        return problems


@dataclass(frozen=True)
class BrokerRestart(FaultEvent):
    """Power-cycle the cluster broker: every session, subscription,
    retained message and queued QoS 1 message is lost."""

    kind: ClassVar[str] = "broker_restart"


@dataclass(frozen=True)
class Partition(FaultEvent):
    """Cut reachability between every station in ``group_a`` and every
    station in ``group_b`` (traffic within each group is unaffected)."""

    group_a: tuple[str, ...] = ()
    group_b: tuple[str, ...] = ()
    kind: ClassVar[str] = "partition"

    def problems(self) -> list[str]:
        problems = super().problems()
        if not self.group_a or not self.group_b:
            problems.append("partition needs two station groups")
        if set(self.group_a) & set(self.group_b):
            problems.append("partition groups must not overlap")
        return problems


@dataclass(frozen=True)
class Heal(FaultEvent):
    """Remove the cut between ``group_a`` and ``group_b``; with both
    omitted, heal every active partition."""

    group_a: tuple[str, ...] | None = None
    group_b: tuple[str, ...] | None = None
    kind: ClassVar[str] = "heal"

    def problems(self) -> list[str]:
        problems = super().problems()
        if (self.group_a, self.group_b) != (None, None) and not (
            self.group_a and self.group_b
        ):
            problems.append("heal needs both groups or neither")
        return problems


@dataclass(frozen=True)
class LinkDegrade(FaultEvent):
    """Degrade the channel for ``duration_s`` seconds.

    ``stations`` limits the effect to frames touching any named station
    (``None`` = whole channel). ``bitrate_factor`` throttles the
    effective bitrate; ``burst`` layers a Gilbert–Elliott loss process on
    top of the configured i.i.d. loss.
    """

    duration_s: float = 0.0
    stations: tuple[str, ...] | None = None
    bitrate_factor: float = 1.0
    burst: GilbertElliottConfig | None = None
    kind: ClassVar[str] = "link_degrade"

    def problems(self) -> list[str]:
        problems = super().problems()
        if self.duration_s <= 0:
            problems.append("link_degrade needs duration_s > 0")
        if not 0.0 < self.bitrate_factor <= 1.0:
            problems.append(
                f"bitrate_factor must be in (0, 1], got {self.bitrate_factor}"
            )
        if self.burst is not None:
            try:
                self.burst.validate()
            except ConfigurationError as exc:
                problems.append(str(exc))
        return problems

    def describe(self) -> dict[str, Any]:
        payload = super().describe()
        if self.burst is not None:
            payload["burst"] = asdict(self.burst)
        return payload


@dataclass(frozen=True)
class SensorFlap(FaultEvent):
    """Sensor ``device`` on ``module`` stops sampling for ``down_s``
    seconds (loose cable, undervoltage), then resumes phase-aligned."""

    module: str = ""
    device: str = ""
    down_s: float = 0.0
    kind: ClassVar[str] = "sensor_flap"

    def problems(self) -> list[str]:
        problems = super().problems()
        if not self.module or not self.device:
            problems.append("sensor_flap needs module and device")
        if self.down_s <= 0:
            problems.append("sensor_flap needs down_s > 0")
        return problems


@dataclass(frozen=True)
class FaultPlan:
    """A named, time-ordered sequence of fault events.

    Events are sorted by ``at`` on construction (stable, so same-time
    events keep their authored order — a ``Heal`` written after a
    ``Partition`` at the same instant applies after it).
    """

    name: str
    events: tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: e.at))
        object.__setattr__(self, "events", ordered)

    def validate(self) -> "FaultPlan":
        if not self.name:
            raise ConfigurationError("fault plan needs a name")
        for event in self.events:
            event.validate()
        return self

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)
