"""Abstract transmission medium and the per-station network interface.

A :class:`Medium` connects stations; :meth:`Medium.attach` yields a
:class:`NetworkInterface` bound to one station name. Interfaces provide
fire-and-forget datagram ``send`` with per-destination FIFO ordering (both
media implementations preserve global transmit order, which is stronger).
Loss is possible (the WLAN model can drop frames); reliability where needed
is provided above this layer by MQTT QoS 1.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable

from repro.errors import AddressError, TransportError
from repro.net.address import Address
from repro.net.frame import Frame

__all__ = ["Medium", "NetworkInterface", "Receiver"]

#: Signature of the per-service receive callback: ``(source, payload)``.
Receiver = Callable[[Address, bytes], None]


class NetworkInterface:
    """One station's attachment point to a medium.

    Services register receivers by name; inbound frames are dispatched on
    ``frame.destination.service``. Outbound frames are handed to the medium,
    which owns timing and delivery.
    """

    def __init__(self, medium: "Medium", station: str) -> None:
        self._medium = medium
        self.station = station
        self._receivers: dict[str, Receiver] = {}
        self._source_addresses: dict[str, Address] = {}
        self._next_frame_id = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def bind(self, service: str, receiver: Receiver) -> None:
        """Register ``receiver`` for frames addressed to ``service``."""
        if service in self._receivers:
            raise TransportError(
                f"{self.station}: service {service!r} already bound"
            )
        self._receivers[service] = receiver

    def unbind(self, service: str) -> None:
        self._receivers.pop(service, None)

    def send(
        self, source_service: str, destination: Address, payload: bytes
    ) -> None:
        """Transmit ``payload`` to ``destination`` (fire-and-forget)."""
        source = self._source_addresses.get(source_service)
        if source is None:
            source = Address(self.station, source_service)
            self._source_addresses[source_service] = source
        frame = Frame(source, destination, payload, self._next_frame_id)
        self._next_frame_id += 1
        self.frames_sent += 1
        self.bytes_sent += frame.wire_size
        self._medium.transmit(frame)

    def deliver(self, frame: Frame) -> None:
        """Called by the medium when a frame arrives for this station."""
        receiver = self._receivers.get(frame.destination.service)
        if receiver is None:
            # Mirrors UDP: datagrams to unbound ports vanish. The medium
            # already counted the airtime; higher layers detect silence.
            return
        self.frames_received += 1
        self.bytes_received += frame.wire_size
        receiver(frame.source, frame.payload)


class Medium(ABC):
    """A set of attached stations plus a frame transmission discipline.

    Besides attachment bookkeeping, the base class owns the *partition
    mask*: an unordered set of station pairs that currently cannot hear
    each other. Partitions model layer-2 reachability faults (a wall, a
    failed access point, a split between rooms); concrete media consult
    :meth:`is_blocked` on every transmission and drop frames crossing a
    cut. Partitions are symmetric and purely additive — healing restores
    exactly the pre-partition connectivity.
    """

    def __init__(self) -> None:
        self._interfaces: dict[str, NetworkInterface] = {}
        self._blocked_pairs: set[frozenset[str]] = set()

    def attach(self, station: str) -> NetworkInterface:
        """Attach a new station and return its interface."""
        if station in self._interfaces:
            raise AddressError(f"station {station!r} already attached")
        interface = NetworkInterface(self, station)
        self._interfaces[station] = interface
        return interface

    def detach(self, station: str) -> None:
        """Remove a station; future frames to it are dropped silently."""
        self._interfaces.pop(station, None)

    def interface(self, station: str) -> NetworkInterface:
        try:
            return self._interfaces[station]
        except KeyError:
            raise AddressError(f"unknown station {station!r}") from None

    @property
    def stations(self) -> list[str]:
        return sorted(self._interfaces)

    # ------------------------------------------------------------------
    # Partition mask (chaos / fault injection)
    # ------------------------------------------------------------------

    def partition(
        self, group_a: "Iterable[str]", group_b: "Iterable[str]"
    ) -> None:
        """Cut connectivity between every station in ``group_a`` and every
        station in ``group_b`` (both directions). Stations may be named
        before they attach; traffic *within* each group is unaffected."""
        pairs = _cross_pairs(group_a, group_b)
        if not pairs:
            raise AddressError("partition needs two non-overlapping groups")
        self._blocked_pairs |= pairs

    def heal(
        self,
        group_a: "Iterable[str] | None" = None,
        group_b: "Iterable[str] | None" = None,
    ) -> None:
        """Remove a partition. With no arguments, heal every cut; groups
        that name no cut (one omitted, or empty) are rejected."""
        if group_a is None and group_b is None:
            self._blocked_pairs.clear()
            return
        pairs = _cross_pairs(group_a or (), group_b or ())
        if not pairs:
            raise AddressError("heal needs both groups or neither")
        self._blocked_pairs -= pairs

    def is_blocked(self, station_a: str, station_b: str) -> bool:
        """True when a partition currently separates the two stations."""
        if not self._blocked_pairs:
            return False
        return frozenset((station_a, station_b)) in self._blocked_pairs

    @abstractmethod
    def transmit(self, frame: Frame) -> None:
        """Accept ``frame`` for (eventual) delivery."""


def _cross_pairs(
    group_a: "Iterable[str]", group_b: "Iterable[str]"
) -> set[frozenset[str]]:
    a, b = set(group_a), set(group_b)
    return {frozenset((x, y)) for x in a for y in b if x != y}
