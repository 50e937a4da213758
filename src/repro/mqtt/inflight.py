"""The QoS 1 inflight table: unacknowledged PUBLISH packets behind one timer.

A broker session and a client each keep one. An entry carries the instant
its next retransmission is due (``inf`` while none is pending); the table
owns at most one runtime timer, armed for the earliest of them. A PUBACK
pops its entry and touches no timer, so a wake-up may find nothing due: it
then re-arms for the earliest remaining deadline, or disarms an empty
table. Retransmissions happen at the float instants one timer per message
would fire at, in the same order, with the same interval draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Callable

from repro.mqtt.packets import Packet
from repro.runtime.base import Runtime, TimerHandle
from repro.runtime.state import StateCell

__all__ = ["Inflight", "InflightTable"]


@dataclass(slots=True)
class Inflight:
    packet: Packet
    retries_left: int
    deadline: float = inf


class InflightTable(dict[int, Inflight]):
    """Unacknowledged QoS 1 messages by packet id, oldest first, and the one
    timer that retransmits them.

    ``cell`` is the owner's sanitizer tag for the table: a wake-up reads
    it, the owner notes its writes. ``guard`` is the owning component's
    ``_guard``; ``interval()`` draws the seconds until an entry's next
    retransmission, once per arm; ``resend(packet)`` transmits a
    retransmission; ``abandon(packet_id, packet)`` reports a message
    dropped with its retries exhausted.
    """

    def __init__(
        self,
        runtime: Runtime,
        cell: StateCell,
        guard: Callable[[Callable[..., None]], Callable[..., None]],
        interval: Callable[[], float],
        resend: Callable[[Packet], None],
        abandon: Callable[[int, Packet], None],
    ) -> None:
        super().__init__()
        self.cell = cell
        self._runtime = runtime
        self._interval = interval
        self._resend = resend
        self._abandon = abandon
        self._fire = guard(self._retry)
        self._timer: TimerHandle | None = None
        self._due = inf  # the instant the timer is armed for; inf when disarmed

    def put(self, packet_id: int, packet: Packet, retries: int) -> None:
        """Queue ``packet`` and start its retransmission clock."""
        deadline = self._runtime.now + self._interval()
        self[packet_id] = Inflight(packet, retries, deadline)
        if deadline < self._due:
            self._arm(deadline)

    def pause(self) -> None:
        """Stop retransmitting but keep the messages queued."""
        self._disarm()
        for entry in self.values():
            entry.deadline = inf

    def resume(self) -> None:
        """Re-send every queued message (dup-flagged), oldest first, and re-arm."""
        for entry in list(self.values()):
            self._retransmit(entry)
        self._arm_earliest()

    def cancel(self) -> None:
        """Drop every queued message."""
        self._disarm()
        self.clear()

    def _arm(self, when: float) -> None:
        self._disarm()
        self._due = when
        self._timer = self._runtime.call_at(when, self._wake)

    def _disarm(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._due = inf

    def _arm_earliest(self) -> None:
        earliest = min((entry.deadline for entry in self.values()), default=inf)
        if earliest < self._due:
            self._arm(earliest)

    def _wake(self) -> None:
        # Due means due at the instant armed for, not at ``now``: asyncio
        # may fire a timer one clock resolution early.
        due, self._timer, self._due = self._due, None, inf
        self.cell.note_read()
        for packet_id, entry in list(self.items()):
            if entry.deadline <= due:
                # The deadline is spent whether or not the node is up to act
                # on it: a timer that fires into a dead node is not re-armed.
                entry.deadline = inf
                self._fire(packet_id, entry)
        self._arm_earliest()

    def _retry(self, packet_id: int, entry: Inflight) -> None:
        if entry.retries_left <= 0:
            del self[packet_id]
            self._abandon(packet_id, entry.packet)
        else:
            entry.retries_left -= 1
            self._retransmit(entry)

    def _retransmit(self, entry: Inflight) -> None:
        entry.packet = dup = entry.packet.as_dup()
        self._resend(dup)
        entry.deadline = self._runtime.now + self._interval()
