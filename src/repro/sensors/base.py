"""Device model contracts and ground-truth event scheduling."""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

from repro.util.validate import require_non_negative, require_positive

__all__ = ["SensorModel", "ActuatorModel", "EventWindow", "EventSchedule"]


class SensorModel(ABC):
    """A source of readings. Stateless in time: readings are a function of
    the query time plus the model's own evolving internal state."""

    @abstractmethod
    def sample(self, t: float, rng: random.Random) -> dict[str, Any]:
        """One reading at time ``t`` (a flat dict of numbers/strings)."""

    def channel_keys(self) -> tuple[str, ...] | None:
        """The datum keys every reading carries, or ``None`` if unknown.

        The static payload checker (:mod:`repro.lint.dataflow`) seeds each
        sensor task's output schema from this, so a recipe reading a key
        the device never emits is caught before deployment. Models whose
        payload is not statically known return ``None`` (open schema).
        """
        return None


class ActuatorModel(ABC):
    """A device that accepts commands and holds observable state."""

    def __init__(self) -> None:
        self.command_log: list[tuple[float, dict[str, Any]]] = []

    def actuate(self, t: float, command: dict[str, Any]) -> dict[str, Any]:
        """Apply ``command`` at time ``t``; returns the new state."""
        self.command_log.append((t, dict(command)))
        return self._apply(t, command)

    @abstractmethod
    def _apply(self, t: float, command: dict[str, Any]) -> dict[str, Any]:
        """Device-specific command handling."""

    @property
    @abstractmethod
    def state(self) -> dict[str, Any]:
        """Current observable device state."""


@dataclass(frozen=True)
class EventWindow:
    """One planted ground-truth event: [start, start+duration) of ``kind``."""

    start: float
    duration: float
    kind: str
    intensity: float = 1.0

    def __post_init__(self) -> None:
        require_non_negative(self.start, "start")
        require_positive(self.duration, "duration")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def active_at(self, t: float) -> bool:
        return self.start <= t < self.end


class EventSchedule:
    """An ordered set of ground-truth events queried by sensor models.

    Examples plant events here ("fall at t=12 for 1.5 s"), sensors distort
    their waveforms while an event is active, and tests assert that the
    analysis pipeline raised the right alerts — closing the loop between
    generation and detection.
    """

    def __init__(self, events: list[EventWindow] | None = None) -> None:
        self._events: list[EventWindow] = sorted(
            events or [], key=lambda e: e.start
        )

    def add(self, start: float, duration: float, kind: str, intensity: float = 1.0) -> EventWindow:
        event = EventWindow(start, duration, kind, intensity)
        self._events.append(event)
        self._events.sort(key=lambda e: e.start)
        return event

    def active(self, t: float, kind: str | None = None) -> list[EventWindow]:
        """Events active at ``t`` (optionally filtered by kind)."""
        return [
            e
            for e in self._events
            if e.active_at(t) and (kind is None or e.kind == kind)
        ]

    def is_active(self, t: float, kind: str) -> bool:
        return bool(self.active(t, kind))

    def all_events(self, kind: str | None = None) -> list[EventWindow]:
        return [e for e in self._events if kind is None or e.kind == kind]

    def __len__(self) -> int:
        return len(self._events)
