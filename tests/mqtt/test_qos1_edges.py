"""QoS 1 edge cases: give-up, dup-flagged redelivery, sweep races.

Every case asserts the end-to-end accounting contract: a forwarded
QoS 1 message is delivered, given up (traced), or dropped with an
explained reason — never silently lost.
"""

import pytest

from repro.errors import ProtocolError
from repro.mqtt.broker import Broker
from repro.mqtt.client import MqttClient
from repro.runtime.sim import SimRuntime


@pytest.fixture
def runtime():
    return SimRuntime(seed=17)


def settle(runtime, duration=1.0):
    runtime.run(until=runtime.now + duration)


def make_client(runtime, broker, name, **kwargs):
    client = MqttClient(
        runtime.add_node(name), broker.address, client_id=name, **kwargs
    )
    client.connect()
    return client


def record_publishes(node):
    """Wire bytes of every PUBLISH ``node`` sends from now on."""
    sent = []
    send = node.send

    def recording_send(service, destination, data):
        if b'"_t":"publish"' in data:
            sent.append(bytes(data))
        send(service, destination, data)

    node.send = recording_send
    return sent


def fwd_ids(runtime, event):
    return [
        r.fields.get("fwd_id")
        for r in runtime.tracer.select(event)
        if r.fields.get("fwd_id") is not None
    ]


def test_broker_gives_up_after_max_retransmissions(runtime):
    """A subscriber that dies mid-delivery exhausts the broker's
    retransmission budget; the drop is traced, not silent."""
    broker = Broker(
        runtime.add_node("hub"), retry_interval_s=0.5, max_retries=2
    )
    pub = make_client(runtime, broker, "pub")
    sub = make_client(runtime, broker, "sub", keepalive_s=60.0)
    sub.subscribe("t", lambda *_: None, qos=1)
    settle(runtime)

    sub.node.fail()
    pub.publish("t", "doomed", qos=1)
    settle(runtime, 5.0)

    assert broker.stats.drops_give_up == 1
    forwarded = fwd_ids(runtime, "mqtt.broker.forward")
    assert len(forwarded) == 1
    assert fwd_ids(runtime, "mqtt.broker.give_up") == forwarded
    assert fwd_ids(runtime, "mqtt.client.deliver") == []


def test_slow_subscriber_gets_dup_flagged_redelivery(runtime):
    """A subscriber that blips through the first delivery attempt sees the
    retransmission with the MQTT DUP flag set."""
    broker = Broker(
        runtime.add_node("hub"), retry_interval_s=0.5, max_retries=5
    )
    pub = make_client(runtime, broker, "pub")
    sub = make_client(runtime, broker, "sub", keepalive_s=60.0)
    got = []
    sub.subscribe(
        "t", lambda _t, p, pkt: got.append((p, bool(pkt.get("dup")))), qos=1
    )
    settle(runtime)

    sub.node.fail()  # first delivery attempt dies on the dead radio
    pub.publish("t", "retry-me", qos=1)
    settle(runtime, 0.2)
    sub.node.recover()  # back before the broker's retry timer fires
    settle(runtime, 3.0)

    assert got == [("retry-me", True)]
    deliveries = runtime.tracer.select("mqtt.client.deliver")
    assert [r["dup"] for r in deliveries] == [True]
    # Exactly one forward, delivered on retry: nothing outstanding.
    assert broker.inflight_fwd_ids() == []


def test_reconnect_races_session_sweep(runtime):
    """A persistent-session subscriber that goes silent long enough for
    the sweep to park its in-flight messages gets them, dup-flagged,
    when it reconnects."""
    broker = Broker(
        runtime.add_node("hub"),
        retry_interval_s=2.0,
        max_retries=8,
        sweep_interval_s=1.0,
    )
    pub = make_client(runtime, broker, "pub")
    sub = make_client(
        runtime,
        broker,
        "sub",
        clean_session=False,
        keepalive_s=2.0,
        auto_reconnect=True,
    )
    got = []
    sub.subscribe("t", lambda _t, p, _pkt: got.append(p), qos=1)
    settle(runtime)

    sub.node.fail()
    pub.publish("t", "parked", qos=1)
    # Long enough for the sweep to expire the dead connection and pause
    # the in-flight delivery (persistent session: messages are kept).
    settle(runtime, 6.0)
    assert got == []
    assert len(broker.inflight_fwd_ids()) == 1

    sub.node.recover()
    settle(runtime, 12.0)  # watchdog notices, backs off, reconnects

    assert sub.connected
    assert got == ["parked"]
    assert broker.inflight_fwd_ids() == []
    forwarded = set(fwd_ids(runtime, "mqtt.broker.forward"))
    delivered = set(fwd_ids(runtime, "mqtt.client.deliver"))
    assert forwarded == delivered


def test_clean_session_teardown_drops_are_explained(runtime):
    """A clean-session subscriber that dies loses its in-flight messages,
    but the drop carries a reason and the fwd_ids in the trace."""
    broker = Broker(
        runtime.add_node("hub"),
        retry_interval_s=5.0,  # slower than the sweep: no give-up first
        max_retries=8,
        sweep_interval_s=1.0,
    )
    pub = make_client(runtime, broker, "pub")
    sub = make_client(runtime, broker, "sub", clean_session=True, keepalive_s=2.0)
    sub.subscribe("t", lambda *_: None, qos=1)
    settle(runtime)

    sub.node.fail()
    pub.publish("t", "lost-with-reason", qos=1)
    settle(runtime, 8.0)

    forwarded = fwd_ids(runtime, "mqtt.broker.forward")
    dropped = [
        (r["reason"], list(r["fwd_ids"]))
        for r in runtime.tracer.select("mqtt.broker.inflight_dropped")
    ]
    assert dropped == [("expired", forwarded)]
    assert broker.session_count() == 1  # only the publisher survives


@pytest.mark.parametrize("qos", [True, False, 1.0])
def test_client_rejects_non_int_qos(runtime, qos):
    broker = Broker(runtime.add_node("hub"))
    pub = make_client(runtime, broker, "pub")
    settle(runtime)
    with pytest.raises(ProtocolError):
        pub.publish("t", "x", qos=qos)


def test_client_dup_is_the_same_message(runtime):
    """A caller that reuses its payload dict after ``publish()`` must not
    change what is retransmitted under the same packet id."""
    broker = Broker(runtime.add_node("hub"))
    pub = make_client(runtime, broker, "pub", retry_interval_s=0.5)
    settle(runtime)
    sent = record_publishes(pub.node)

    broker.node.fail()  # no PUBACK: the client retransmits
    payload = {"reading": 1, "tags": ["a"]}
    pub.publish("t", payload, qos=1)
    payload["reading"] = 2
    payload["tags"].append("b")
    settle(runtime, 0.8)

    assert len(sent) == 2
    assert sent[1] == sent[0].replace(b'"dup":false', b'"dup":true')
    assert b'"reading":1' in sent[1]


def test_broker_dup_is_the_same_message(runtime):
    """Same contract for the broker's forward copy: the retransmission to
    a slow subscriber carries the bytes of the first attempt."""
    broker = Broker(runtime.add_node("hub"), retry_interval_s=0.5)
    pub = make_client(runtime, broker, "pub")
    sub = make_client(runtime, broker, "sub", keepalive_s=60.0)
    sub.subscribe("t", lambda *_: None, qos=1)
    settle(runtime)
    sent = record_publishes(broker.node)

    sub.node.fail()
    payload = {"reading": 1}
    pub.publish("t", payload, qos=1)
    settle(runtime, 0.2)
    assert len(sent) == 1
    # In-process delivery hands the broker the publisher's own dict.
    payload["reading"] = 2
    settle(runtime, 0.5)

    assert len(sent) == 2
    assert sent[1] == sent[0].replace(b'"dup":false', b'"dup":true')
