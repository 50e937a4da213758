"""MQTT control packets.

Packets travel as canonical-JSON datagrams (see
:mod:`repro.util.serialization`). The encoding is not MQTT's binary wire
format — the middleware never interoperates with a real broker — but the
packet *vocabulary* and state machines mirror MQTT 3.1.1, and every byte is
charged to the network model, so timing behaviour is faithful.
"""

from __future__ import annotations

import enum
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from repro.errors import ProtocolError, SerializationError
from repro.util.serialization import decode_payload, encode_fragment

__all__ = ["PacketType", "Packet"]

#: Whether encoded wire bytes carry their packet for decode bypass. Read
#: on every encode so the equivalence tests can patch it off and force
#: the JSON round trip.
WIRE_FASTPATH = True


_BOOL = ("false", "true")  # JSON text of a bool, by index
#: How a PUBLISH's canonical JSON begins, by ``dup``; ``fwd_id`` or
#: ``headers`` follows. Written by :meth:`Packet._publish_text`, read by
#: :meth:`_Wire.with_header`.
_PUBLISH_HEAD = tuple(f'{{"_t":"publish","dup":{b}' for b in _BOOL)


class _Wire(bytes):
    """Wire bytes that remember the :class:`Packet` they encode.

    Byte-for-byte identical to a plain ``bytes`` payload — same length,
    hash, equality, slicing — so every airtime/cost computation is
    unchanged. :meth:`Packet.decode` recognizes the exact type and returns
    the remembered packet, skipping the JSON round trip. Safe because no
    receiver rebinds or mutates a received packet's ``type`` or ``fields``
    (a changed copy goes through :meth:`Packet.as_dup` or
    :meth:`Packet.forwarded`), and the network layer never mutates or
    reslices payload bytes (frames are dropped whole).
    """

    _packet: "Packet"

    def with_header(
        self, key: str, old: str | None, new: str, headers: dict[str, Any]
    ) -> "_Wire | None":
        """``forwarded(0, False, None, headers, None).encode()`` of the plain
        PUBLISH these bytes encode, for ``headers`` that are its own but for
        ``key``, whose value's canonical JSON goes from ``old`` to ``new``:
        these bytes with that text replaced. None unless ``key`` is where
        the bytes begin their headers and holds ``old`` there."""
        if old is None:
            return None
        lead = f'{_PUBLISH_HEAD[False]},"headers":{{{_quote(key)}:'
        head = (lead + old).encode()
        if not self.startswith(head):
            return None
        wire = _Wire((lead + new).encode() + self[len(head):])
        wire._packet = self._packet.forwarded(0, False, None, headers, None)
        return wire


class PacketType(str, enum.Enum):
    """Subset of MQTT 3.1.1 control packet types used by the middleware."""

    CONNECT = "connect"
    CONNACK = "connack"
    PUBLISH = "publish"
    PUBACK = "puback"
    SUBSCRIBE = "subscribe"
    SUBACK = "suback"
    UNSUBSCRIBE = "unsubscribe"
    UNSUBACK = "unsuback"
    PINGREQ = "pingreq"
    PINGRESP = "pingresp"
    DISCONNECT = "disconnect"


# The types tested per packet, bound once: on CPython 3.11.7 a
# ``PacketType.X`` load costs ≈ 125 ns against ≈ 10 ns for a module global,
# all of it in C, where ``sys.setprofile`` sees no call.
_PUBLISH = PacketType.PUBLISH
_PUBACK = PacketType.PUBACK
_CONNACK = PacketType.CONNACK


class Packet:
    """One MQTT control packet.

    ``fields`` carries the per-type variable header and payload:

    =========== ================================================================
    Type        Fields
    =========== ================================================================
    CONNECT     ``client_id``, ``clean_session``, ``keepalive_s``,
                optional ``will`` ({topic, payload, qos, retain})
    CONNACK     ``session_present``, ``return_code`` (0 = accepted)
    PUBLISH     ``topic``, ``payload`` (JSON value), ``qos``, ``retain``,
                ``dup``, ``packet_id`` (QoS 1 only), ``headers`` (dict the
                middleware uses for timestamps/ids)
    PUBACK      ``packet_id``
    SUBSCRIBE   ``packet_id``, ``filters`` ([[filter, qos], ...])
    SUBACK      ``packet_id``, ``granted`` ([qos, ...])
    UNSUBSCRIBE ``packet_id``, ``filters`` ([filter, ...])
    UNSUBACK    ``packet_id``
    =========== ================================================================

    A slotted record: built several times per message, so it pays no
    instance ``__dict__`` and no frozen-dataclass ``object.__setattr__``.
    Equality is by type and fields; like ``fields``, a packet is unhashable.
    """

    __slots__ = ("type", "fields", "_fragment")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, type: PacketType, fields: dict[str, Any] | None = None) -> None:
        self.type = type
        self.fields = {} if fields is None else fields
        #: Canonical JSON of a PUBLISH's ``payload``, memoized by the first
        #: encode and inherited by :meth:`as_dup` and :meth:`forwarded`.
        self._fragment: str | None = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.type, self.fields) == (other.type, other.fields)  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return f"Packet(type={self.type!r}, fields={self.fields!r})"

    def encode(self) -> bytes:
        """Serialize to wire bytes.

        PUBLISH and PUBACK are written directly in canonical key order;
        every other packet, and any whose fields are not what the
        constructors build, goes through :func:`encode_fragment` — the
        reference the direct writers must match byte for byte. The text is
        pure ASCII, so ``_Wire`` is built from it directly, not from a
        ``str.encode`` copy.
        """
        text = None
        if self.type is _PUBLISH:
            try:
                text = self._publish_text()
            except SerializationError:
                pass  # the reference path names the offending field
        elif self.type is _PUBACK:
            packet_id = self.fields.get("packet_id")
            if type(packet_id) is int and len(self.fields) == 1:
                text = f'{{"_t":"puback","packet_id":{packet_id}}}'
        if text is None:
            text = encode_fragment({**self.fields, "_t": self.type.value})
        if WIRE_FASTPATH:
            wire = _Wire(text, "ascii")
            wire._packet = self
            return wire
        return text.encode("ascii")

    def _publish_text(self) -> str | None:
        """Canonical JSON of a PUBLISH shaped as :meth:`publish` builds it."""
        f = self.fields
        try:
            dup, headers, qos, retain, topic = (
                f["dup"], f["headers"], f["qos"], f["retain"], f["topic"]
            )
        except KeyError:
            return None
        packet_id = f.get("packet_id")
        fwd_id = f.get("fwd_id")
        if not (
            "payload" in f
            and len(f) == 6 + (packet_id is not None) + (fwd_id is not None)
            and type(dup) is bool and type(retain) is bool
            and type(qos) is int and type(topic) is str and type(headers) is dict
            and (packet_id is None or type(packet_id) is int)
            and (fwd_id is None or type(fwd_id) is str)
        ):
            return None
        fwd = "" if fwd_id is None else f',"fwd_id":{_quote(fwd_id)}'
        pid = "" if packet_id is None else f',"packet_id":{packet_id}'
        head = encode_fragment(headers) if headers else "{}"
        return (
            f'{_PUBLISH_HEAD[dup]}{fwd},"headers":{head}{pid}'
            f',"payload":{self._payload_text()},"qos":{qos}'
            f',"retain":{_BOOL[retain]},"topic":{_quote(topic)}}}'
        )

    def _payload_text(self) -> str:
        text = self._fragment
        if text is None:
            self._fragment = text = encode_fragment(self.fields.get("payload"))
        return text

    def as_dup(self) -> "Packet":
        """This PUBLISH as a retransmission: the same message, ``dup`` set."""
        dup = Packet(_PUBLISH, {**self.fields, "dup": True})
        dup._fragment = self._fragment
        return dup

    def forwarded(
        self,
        qos: int,
        retain: bool,
        packet_id: int | None,
        headers: dict[str, Any],
        fwd_id: str | None,
    ) -> "Packet":
        """The broker's copy of this PUBLISH for one subscriber."""
        copy = Packet.publish(
            self["topic"], self.get("payload"), qos, retain, False, packet_id, headers
        )
        if fwd_id is not None:
            copy.fields["fwd_id"] = fwd_id
        copy._fragment = self._payload_text()
        return copy

    def publish_shape(self) -> tuple[str, int, bool]:
        """``(topic, qos, plain)`` of a received PUBLISH, or :class:`ProtocolError`
        for a field of the wrong type. ``plain``: exactly the fields
        :meth:`publish` builds for a QoS 0 message, neither retained nor dup,
        so ``forwarded(0, False, None, headers, None)`` encodes to its bytes.
        """
        f = self.fields
        topic, qos, headers = f.get("topic"), f.get("qos", 0), f.get("headers")
        if not isinstance(topic, str):
            raise ProtocolError(f"publish packet needs a string 'topic', got {topic!r}")
        if not isinstance(qos, int) or qos not in (0, 1):
            raise ProtocolError(f"unsupported QoS {qos!r} (QoS 2 not implemented)")
        if headers is not None and not isinstance(headers, dict):
            raise ProtocolError(f"publish 'headers' must be an object, got {headers!r}")
        plain = (
            len(f) == 6 and "payload" in f and "qos" in f and type(qos) is int and qos == 0
            and type(headers) is dict and f.get("retain") is False and f.get("dup") is False
        )
        return topic, int(qos), plain

    @classmethod
    def decode(cls, data: bytes) -> "Packet":
        """Parse wire bytes; raises ProtocolError on malformed packets."""
        if type(data) is _Wire:
            return data._packet
        try:
            body = decode_payload(data)
        except SerializationError as exc:
            raise ProtocolError(str(exc)) from None
        if not isinstance(body, dict) or "_t" not in body:
            raise ProtocolError(f"not an MQTT packet: {body!r}")
        type_tag = body.pop("_t")
        try:
            packet_type = PacketType(type_tag)
        except ValueError:
            raise ProtocolError(f"unknown packet type {type_tag!r}") from None
        return cls(packet_type, body)

    def packet_id(self) -> int:
        """The ``packet_id`` field; :class:`ProtocolError` unless it is an int."""
        packet_id = self.fields.get("packet_id")
        if type(packet_id) is not int:
            raise ProtocolError(f"{self.type.value} 'packet_id' must be an int: {packet_id!r}")
        return packet_id

    def __getitem__(self, key: str) -> Any:
        try:
            return self.fields[key]
        except KeyError:
            raise ProtocolError(
                f"{self.type.value} packet missing field {key!r}"
            ) from None

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    # ------------------------------------------------------------------
    # Constructors for each packet type, so call sites read like protocol
    # ------------------------------------------------------------------

    @classmethod
    def connect(
        cls,
        client_id: str,
        clean_session: bool = True,
        keepalive_s: float = 60.0,
        will: dict[str, Any] | None = None,
    ) -> "Packet":
        fields: dict[str, Any] = {
            "client_id": client_id,
            "clean_session": clean_session,
            "keepalive_s": keepalive_s,
        }
        if will is not None:
            fields["will"] = will
        return cls(PacketType.CONNECT, fields)

    @classmethod
    def connack(cls, session_present: bool, return_code: int = 0) -> "Packet":
        return cls(
            PacketType.CONNACK,
            {"session_present": session_present, "return_code": return_code},
        )

    @classmethod
    def publish(
        cls,
        topic: str,
        payload: Any,
        qos: int = 0,
        retain: bool = False,
        dup: bool = False,
        packet_id: int | None = None,
        headers: dict[str, Any] | None = None,
    ) -> "Packet":
        if type(qos) is not int or qos not in (0, 1):
            raise ProtocolError(f"unsupported QoS {qos!r} (QoS 2 not implemented)")
        if packet_id is not None and type(packet_id) is not int:
            raise ProtocolError(f"packet_id must be an int, got {packet_id!r}")
        if qos == 1 and packet_id is None:
            raise ProtocolError("QoS 1 publish requires a packet_id")
        fields: dict[str, Any] = {
            "topic": topic,
            "payload": payload,
            "qos": qos,
            "retain": retain,
            "dup": dup,
            "headers": headers or {},
        }
        if packet_id is not None:
            fields["packet_id"] = packet_id
        return cls(_PUBLISH, fields)

    @classmethod
    def puback(cls, packet_id: int) -> "Packet":
        return cls(_PUBACK, {"packet_id": packet_id})

    @classmethod
    def subscribe(cls, packet_id: int, filters: list[tuple[str, int]]) -> "Packet":
        return cls(
            PacketType.SUBSCRIBE,
            {"packet_id": packet_id, "filters": [[f, q] for f, q in filters]},
        )

    @classmethod
    def suback(cls, packet_id: int, granted: list[int]) -> "Packet":
        return cls(PacketType.SUBACK, {"packet_id": packet_id, "granted": granted})

    @classmethod
    def unsubscribe(cls, packet_id: int, filters: list[str]) -> "Packet":
        return cls(
            PacketType.UNSUBSCRIBE, {"packet_id": packet_id, "filters": filters}
        )

    @classmethod
    def unsuback(cls, packet_id: int) -> "Packet":
        return cls(PacketType.UNSUBACK, {"packet_id": packet_id})

    @classmethod
    def pingreq(cls, incarnation: int | None = None) -> "Packet":
        # Keep-alives stamp the sender's boot count (announcements already
        # do), so liveness consumers can discard heartbeats a dead
        # incarnation left queued in the network.
        if incarnation is None:
            return cls(PacketType.PINGREQ)
        return cls(PacketType.PINGREQ, {"incarnation": incarnation})

    @classmethod
    def pingresp(cls) -> "Packet":
        return cls(PacketType.PINGRESP)

    @classmethod
    def disconnect(cls) -> "Packet":
        return cls(PacketType.DISCONNECT)
