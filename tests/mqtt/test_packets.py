"""The MQTT packet record: constructors, the wire round trip and the
record contract — equality by type and fields, unhashable, the dataclass's
repr, a copy inheriting its payload fragment — and that the records built
per message or per event carry no instance ``__dict__``, a cost no call
count sees.
"""

import pytest

from repro.errors import ProtocolError
from repro.mqtt import packets
from repro.mqtt.inflight import Inflight
from repro.mqtt.packets import Packet, PacketType
from repro.net.address import Address
from repro.net.frame import Frame
from repro.obs.context import FlowContext, Span
from repro.runtime.state import StateCell
from repro.sim.kernel import SimKernel
from repro.sim.trace import TraceRecord


def test_round_trip_all_constructors():
    packets = [
        Packet.connect("c1", clean_session=False, keepalive_s=10.0),
        Packet.connack(session_present=True),
        Packet.publish("t/x", {"v": 1}, qos=1, packet_id=7, headers={"ts": 0.5}),
        Packet.puback(7),
        Packet.subscribe(1, [("a/#", 1), ("b", 0)]),
        Packet.suback(1, [1, 0]),
        Packet.unsubscribe(2, ["a/#"]),
        Packet.unsuback(2),
        Packet.pingreq(),
        Packet.pingresp(),
        Packet.disconnect(),
    ]
    for packet in packets:
        decoded = Packet.decode(packet.encode())
        assert decoded.type == packet.type
        assert decoded.fields == packet.fields


def test_qos1_requires_packet_id():
    with pytest.raises(ProtocolError):
        Packet.publish("t", 1, qos=1)


def test_qos2_unsupported():
    with pytest.raises(ProtocolError):
        Packet.publish("t", 1, qos=2)


def test_decode_rejects_garbage():
    with pytest.raises(ProtocolError):
        Packet.decode(b'{"no_type": 1}')
    with pytest.raises(ProtocolError):
        Packet.decode(b'{"_t": "bogus"}')
    with pytest.raises(ProtocolError):
        Packet.decode(b"[1,2,3]")


def test_missing_field_raises_protocol_error():
    packet = Packet(PacketType.PUBLISH, {})
    with pytest.raises(ProtocolError, match="topic"):
        packet["topic"]


def test_get_with_default():
    packet = Packet.pingreq()
    assert packet.get("anything", 42) == 42


def test_publish_defaults():
    packet = Packet.publish("t", "payload")
    assert packet["qos"] == 0
    assert packet["retain"] is False
    assert packet["dup"] is False
    assert packet["headers"] == {}


@pytest.mark.parametrize(
    "qos, packet_id",
    [(True, True), (False, None), (1.0, 3), (0.0, None), (1, True), (1, 3.0), (0, "3")],
)
def test_publish_rejects_non_int_qos_and_packet_id(qos, packet_id):
    """``True in (0, 1)`` holds, so a bool QoS used to reach the wire as
    ``"qos":true``; only a real ``int`` may."""
    with pytest.raises(ProtocolError):
        Packet.publish("t", 1, qos=qos, packet_id=packet_id)


def test_as_dup_differs_in_the_dup_flag_only():
    packet = Packet.publish("t/x", {"v": [1, 2.5]}, qos=1, packet_id=9)
    dup = packet.as_dup()
    assert dup.fields == {**packet.fields, "dup": True}
    assert packet["dup"] is False  # the original is not touched
    assert bytes(dup.encode()) == bytes(packet.encode()).replace(
        b'"dup":false', b'"dup":true'
    )


def test_equality_is_by_type_and_fields():
    packet = Packet.puback(7)
    assert packet == Packet(PacketType.PUBACK, {"packet_id": 7})
    assert packet != Packet(PacketType.PUBACK, {"packet_id": 8})
    assert packet != Packet(PacketType.UNSUBACK, {"packet_id": 7})
    assert packet != ("puback", {"packet_id": 7})
    assert Packet(PacketType.PINGRESP) == Packet.pingresp()


def test_a_packet_is_unhashable_like_its_fields():
    with pytest.raises(TypeError):
        hash(Packet.pingresp())


def test_repr_is_the_dataclass_repr():
    # Pinned from the frozen dataclass's output before Packet was slotted.
    assert repr(Packet.publish("t/1", {"v": 1}, qos=1, packet_id=7)) == (
        "Packet(type=<PacketType.PUBLISH: 'publish'>, fields={'topic': 't/1', "
        "'payload': {'v': 1}, 'qos': 1, 'retain': False, 'dup': False, "
        "'headers': {}, 'packet_id': 7})"
    )
    assert repr(Packet.pingresp()) == "Packet(type=<PacketType.PINGRESP: 'pingresp'>, fields={})"


def test_copies_inherit_the_payload_fragment(monkeypatch):
    """A dup or a forward encodes without a JSON pass over the payload."""
    payload = {"v": [0.5, "x"]}
    packet = Packet.publish("t", payload, qos=1, packet_id=3)
    packet.encode()
    passes = []
    encode = packets.encode_fragment

    def counting(value):
        passes.append(value)
        return encode(value)

    monkeypatch.setattr(packets, "encode_fragment", counting)
    dup = packet.as_dup()
    forward = packet.forwarded(1, False, 9, {"h": 1}, "f1")
    for copy in (dup, forward, forward.as_dup()):
        assert copy._fragment is packet._fragment
        copy.encode()
    assert payload not in passes
    assert Packet.decode(bytes(forward.encode()))["payload"] == payload


@pytest.mark.parametrize(
    "build",
    [
        lambda: Packet.puback(1),
        lambda: Inflight(Packet.puback(1), 5),
        lambda: Frame(Address("a", "s"), Address("b", "s"), b"x", 1),
        lambda: SimKernel().schedule(0.0, print),
        lambda: TraceRecord(0.0, "src", "event"),
        lambda: Span(FlowContext("t", "s"), "span", "node", 0, 0.0),
        lambda: StateCell(None, "owner:name", ("file", 1)),
    ],
    ids=["Packet", "Inflight", "Frame", "EventHandle", "TraceRecord", "Span", "StateCell"],
)
def test_per_message_records_have_no_instance_dict(build):
    """Built per message or per event: an instance ``__dict__`` costs each
    of them an allocation that no Python-level call count can see."""
    record = build()
    assert not hasattr(record, "__dict__")
