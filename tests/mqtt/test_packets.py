import pytest

from repro.errors import ProtocolError
from repro.mqtt.packets import Packet, PacketType


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
