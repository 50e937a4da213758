"""Wire frames.

A :class:`Frame` is the unit the medium transmits: source, destination,
payload bytes, and a monotonically increasing id assigned by the sender's
interface. ``wire_size`` adds the link-layer header so airtime charges
reflect real overhead (the paper's 32-byte samples do not travel for free).
"""

from __future__ import annotations

from repro.net.address import Address

__all__ = ["Frame", "LINK_HEADER_BYTES"]

#: Link-layer framing overhead charged per frame (approximates 802.11
#: MAC + LLC/SNAP + IP + UDP headers for a small datagram).
LINK_HEADER_BYTES = 64


class Frame:
    """One link-layer frame in flight.

    Frames compare and hash by identity: the media queue, sort and deliver
    them but never look one up by value. ``wire_size`` — the bytes
    occupying airtime, payload plus link headers — is fixed at
    construction, since the sender, the medium and the receiver each read it.
    """

    __slots__ = ("source", "destination", "payload", "frame_id", "wire_size")

    def __init__(
        self, source: Address, destination: Address, payload: bytes, frame_id: int = 0
    ) -> None:
        self.source = source
        self.destination = destination
        self.payload = payload
        self.frame_id = frame_id
        self.wire_size = len(payload) + LINK_HEADER_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Frame(#{self.frame_id} {self.source} -> {self.destination}, "
            f"{len(self.payload)}B)"
        )
