"""A message's payload is JSON-encoded once, however many copies travel.

Counted, not timed: the saving of the direct PUBLISH writer is that the
payload fragment computed for the first frame is inherited by every
forward copy, retained delivery and dup retransmission. A change that
silently re-encodes per copy fails here. At QoS 0 the frame itself is
shared: every subscriber is sent one bytes object, the publisher's own when
the broker can tell that it is canonical.
"""

import pytest

from repro.mqtt import packets
from repro.mqtt.broker import Broker
from repro.mqtt.client import MqttClient
from repro.runtime.sim import SimRuntime
from repro.util import serialization

SUBSCRIBERS = 16
PAYLOAD = {"marker": "encode-once", "v": [0.25, -1.5, 3]}


def make_client(runtime, broker, name):
    client = MqttClient(runtime.add_node(name), broker.address, client_id=name)
    client.connect()
    return client


def record_sends(monkeypatch, node):
    """The payloads ``node`` hands to its interface from now on, in order."""
    payloads = []
    send = node.interface.send

    def recording_send(service, destination, payload):
        payloads.append(payload)
        send(service, destination, payload)

    monkeypatch.setattr(node.interface, "send", recording_send)
    return payloads


@pytest.mark.parametrize("fastpath", [True, False])
def test_payload_is_encoded_once_per_holder(monkeypatch, fastpath):
    monkeypatch.setattr(packets, "WIRE_FASTPATH", fastpath)
    encodes = []
    encode = serialization._ENCODE

    def counting_encode(value):
        # Either the payload alone (the fragment) or a whole packet body
        # holding it (the reference path) is one JSON pass over it.
        if value == PAYLOAD or (
            isinstance(value, dict) and value.get("payload") == PAYLOAD
        ):
            encodes.append(value)
        return encode(value)

    monkeypatch.setattr(serialization, "_ENCODE", counting_encode)

    runtime = SimRuntime(seed=23)
    broker = Broker(runtime.add_node("hub"), retry_interval_s=0.5)
    publisher = make_client(runtime, broker, "pub")
    got = []
    subscribers = [
        make_client(runtime, broker, f"sub-{i}") for i in range(SUBSCRIBERS)
    ]
    for subscriber in subscribers:
        subscriber.subscribe(
            "t", lambda _t, p, pkt: got.append(bool(pkt.get("dup"))), qos=1
        )
    runtime.run(until=1.0)

    # One subscriber misses the first attempt, so the broker retransmits
    # to it exactly once.
    subscribers[0].node.fail()
    publisher.publish("t", dict(PAYLOAD), qos=1, retain=True)
    runtime.run(until=1.2)
    subscribers[0].node.recover()
    runtime.run(until=3.0)
    assert broker.stats.publishes_out == SUBSCRIBERS
    assert broker.stats.retransmissions == 1
    assert sorted(got) == [False] * (SUBSCRIBERS - 1) + [True]

    late = make_client(runtime, broker, "late")
    late.subscribe("t", lambda _t, p, pkt: got.append(p), qos=1)
    runtime.run(until=4.0)
    assert got[-1] == PAYLOAD  # the retained copy

    # 18 PUBLISH frames carried the payload. With the decode bypass the
    # broker works on the publisher's own packet: one encode in all. With
    # it off the broker's packet is a fresh decode, which encodes its
    # payload once, on the first forward.
    assert len(encodes) == (1 if fastpath else 2)

    # The same fan-out at QoS 0 (the subscriptions' QoS 1 is a ceiling): the
    # 17 subscribers are sent one bytes object. With the bypass it is the
    # one the publisher sent, relayed without an encode; without it the
    # received bytes are not known to be canonical, so the broker encodes
    # its copy — once — and the bytes come out equal.
    sent = record_sends(monkeypatch, broker.node)
    published = record_sends(monkeypatch, publisher.node)
    got.clear()
    reused = broker.stats.forwards_reused
    publisher.publish("t", {"marker": "shared"}, headers={"sample_id": 7})
    runtime.run(until=5.0)
    assert got == [False] * SUBSCRIBERS + [{"marker": "shared"}]
    assert len(published) == 1 and len(sent) == SUBSCRIBERS + 1
    assert all(frame is sent[0] for frame in sent)
    assert sent[0] == published[0] and bytes(sent[0]) == bytes(published[0])
    assert (sent[0] is published[0]) == fastpath
    assert broker.stats.forwards_reused - reused == SUBSCRIBERS + (1 if fastpath else 0)
    assert broker.metrics()["broker.forwards_reused"] == broker.stats.forwards_reused
