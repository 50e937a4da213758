"""Broker + client behaviour over the simulated network."""

import pytest

from repro.errors import NotConnectedError
from repro.mqtt.broker import Broker
from repro.mqtt.client import MqttClient
from repro.runtime.sim import SimRuntime


@pytest.fixture
def runtime():
    return SimRuntime(seed=11)


@pytest.fixture
def broker(runtime):
    return Broker(runtime.add_node("hub"))


def make_client(runtime, broker, name, **kwargs):
    client = MqttClient(
        runtime.add_node(name), broker.address, client_id=name, **kwargs
    )
    client.connect()
    return client


def settle(runtime, duration=1.0):
    runtime.run(until=runtime.now + duration)


class TestConnection:
    def test_connect_creates_session(self, runtime, broker):
        make_client(runtime, broker, "c1")
        settle(runtime)
        assert broker.session_count() == 1
        assert broker.stats.connects == 1

    def test_operations_before_connack_are_buffered(self, runtime, broker):
        client = MqttClient(runtime.add_node("n"), broker.address, client_id="c")
        got = []
        client.connect()
        client.subscribe("t", lambda t, p, pkt: got.append(p))
        client.publish("t", "early")  # legal: buffered while connecting
        settle(runtime)
        assert client.connected

    def test_publish_without_connect_raises(self, runtime, broker):
        client = MqttClient(runtime.add_node("n"), broker.address, client_id="c")
        with pytest.raises(NotConnectedError):
            client.publish("t", 1)

    def test_disconnect_removes_clean_session(self, runtime, broker):
        client = make_client(runtime, broker, "c1")
        settle(runtime)
        client.disconnect()
        settle(runtime)
        assert broker.session_count() == 0

    def test_connected_callback(self, runtime, broker):
        called = []
        client = MqttClient(runtime.add_node("n"), broker.address, client_id="c")
        client.connect(on_connected=lambda: called.append(runtime.now))
        settle(runtime)
        assert len(called) == 1


class TestPubSub:
    def test_basic_routing(self, runtime, broker):
        pub = make_client(runtime, broker, "pub")
        sub = make_client(runtime, broker, "sub")
        got = []
        sub.subscribe("sensor/+/temp", lambda t, p, pkt: got.append((t, p)))
        settle(runtime)
        pub.publish("sensor/r1/temp", 21.5)
        pub.publish("sensor/r1/humidity", 40)
        settle(runtime)
        assert got == [("sensor/r1/temp", 21.5)]

    def test_fanout_to_multiple_subscribers(self, runtime, broker):
        pub = make_client(runtime, broker, "pub")
        got_a, got_b = [], []
        sub_a = make_client(runtime, broker, "sa")
        sub_b = make_client(runtime, broker, "sb")
        sub_a.subscribe("t", lambda t, p, pkt: got_a.append(p))
        sub_b.subscribe("t", lambda t, p, pkt: got_b.append(p))
        settle(runtime)
        pub.publish("t", "x")
        settle(runtime)
        assert got_a == ["x"] and got_b == ["x"]

    def test_no_echo_to_publisher_without_subscription(self, runtime, broker):
        pub = make_client(runtime, broker, "pub")
        got = []
        settle(runtime)
        pub.publish("t", "x")
        settle(runtime)
        assert got == []
        assert pub.messages_received == 0

    def test_unsubscribe_stops_delivery(self, runtime, broker):
        pub = make_client(runtime, broker, "pub")
        sub = make_client(runtime, broker, "sub")
        got = []
        subscription = sub.subscribe("t", lambda t, p, pkt: got.append(p))
        settle(runtime)
        pub.publish("t", 1)
        settle(runtime)
        sub.unsubscribe(subscription)
        settle(runtime)
        pub.publish("t", 2)
        settle(runtime)
        assert got == [1]

    def test_overlapping_filters_deliver_once_per_subscription(self, runtime, broker):
        pub = make_client(runtime, broker, "pub")
        sub = make_client(runtime, broker, "sub")
        got = []
        sub.subscribe("a/#", lambda t, p, pkt: got.append("hash"))
        sub.subscribe("a/+", lambda t, p, pkt: got.append("plus"))
        settle(runtime)
        pub.publish("a/b", 1)
        settle(runtime)
        # The broker forwards once per matching client subscription entry;
        # the client dispatches to each matching local callback.
        assert sorted(got).count("hash") >= 1 and sorted(got).count("plus") >= 1

    def test_headers_travel(self, runtime, broker):
        pub = make_client(runtime, broker, "pub")
        sub = make_client(runtime, broker, "sub")
        seen = []
        sub.subscribe("t", lambda t, p, pkt: seen.append(pkt.get("headers")))
        settle(runtime)
        pub.publish("t", 1, headers={"ts": 1.25})
        settle(runtime)
        assert seen == [{"ts": 1.25}]


class TestQoS1:
    def test_puback_stops_retransmission(self, runtime, broker):
        pub = make_client(runtime, broker, "pub", retry_interval_s=1.0)
        settle(runtime)
        pub.publish("t", "x", qos=1)
        settle(runtime, 5.0)
        assert broker.stats.publishes_in == 1  # no dup arrived

    def test_lost_packets_are_retransmitted(self, runtime, broker):
        # 100% loss initially: the PUBLISH never reaches the broker until
        # we heal the channel.
        pub = make_client(runtime, broker, "pub", retry_interval_s=0.5)
        sub = make_client(runtime, broker, "sub")
        got = []
        sub.subscribe("t", lambda t, p, pkt: got.append(p), qos=1)
        settle(runtime)
        runtime.wlan.config = type(runtime.wlan.config)(loss_rate=1.0)
        pub.publish("t", "x", qos=1)
        settle(runtime, 1.2)
        assert got == []
        runtime.wlan.config = type(runtime.wlan.config)(loss_rate=0.0)
        settle(runtime, 3.0)
        assert "x" in got  # retransmission delivered it

    def test_retry_gives_up_after_max(self, runtime, broker):
        pub = make_client(runtime, broker, "pub", retry_interval_s=0.2, max_retries=2)
        settle(runtime)
        runtime.wlan.config = type(runtime.wlan.config)(loss_rate=1.0)
        pub.publish("t", "x", qos=1)
        settle(runtime, 5.0)
        assert pub._inflight == {}

    def test_qos_downgrade_to_subscriber(self, runtime, broker):
        """QoS 1 publish to a QoS 0 subscription is delivered at QoS 0."""
        pub = make_client(runtime, broker, "pub")
        sub = make_client(runtime, broker, "sub")
        qos_seen = []
        sub.subscribe("t", lambda t, p, pkt: qos_seen.append(pkt["qos"]), qos=0)
        settle(runtime)
        pub.publish("t", 1, qos=1)
        settle(runtime)
        assert qos_seen == [0]


class TestRetained:
    def test_retained_delivered_to_late_subscriber(self, runtime, broker):
        pub = make_client(runtime, broker, "pub")
        settle(runtime)
        pub.publish("config/mode", "eco", retain=True)
        settle(runtime)
        late = make_client(runtime, broker, "late")
        got = []
        late.subscribe("config/#", lambda t, p, pkt: got.append((t, p)))
        settle(runtime)
        assert got == [("config/mode", "eco")]

    def test_retained_cleared_by_null_payload(self, runtime, broker):
        pub = make_client(runtime, broker, "pub")
        settle(runtime)
        pub.publish("config/mode", "eco", retain=True)
        settle(runtime)
        pub.publish("config/mode", None, retain=True)
        settle(runtime)
        assert broker.retained_topics() == []

    def test_retained_overwrite(self, runtime, broker):
        pub = make_client(runtime, broker, "pub")
        settle(runtime)
        pub.publish("k", 1, retain=True)
        pub.publish("k", 2, retain=True)
        settle(runtime)
        late = make_client(runtime, broker, "late")
        got = []
        late.subscribe("k", lambda t, p, pkt: got.append(p))
        settle(runtime)
        assert got == [2]


class TestKeepAlive:
    def test_session_expires_without_pings(self, runtime, broker):
        client = make_client(runtime, broker, "c", keepalive_s=2.0)
        settle(runtime)
        assert broker.session_count() == 1
        # Kill the client node so pings stop.
        client.node.fail()
        settle(runtime, 15.0)
        assert broker.session_count() == 0
        assert broker.stats.sessions_expired == 1

    def test_pings_keep_session_alive(self, runtime, broker):
        make_client(runtime, broker, "c", keepalive_s=2.0)
        settle(runtime, 20.0)
        assert broker.session_count() == 1

    def test_persistent_session_survives_expiry(self, runtime, broker):
        client = make_client(
            runtime, broker, "c", clean_session=False, keepalive_s=2.0
        )
        client.subscribe("t", lambda t, p, pkt: None)
        settle(runtime)
        client.node.fail()
        settle(runtime, 15.0)
        # Session retained (disconnected) with its subscriptions.
        assert broker.session_count() == 1
        assert broker.subscription_count() == 1


class TestTakeover:
    def test_reconnect_with_same_id_takes_over(self, runtime, broker):
        first = make_client(runtime, broker, "same")
        settle(runtime)
        second = MqttClient(
            runtime.add_node("other-node"), broker.address, client_id="same"
        )
        second.connect()
        settle(runtime)
        assert broker.session_count() == 1
        assert broker.stats.connects == 2


def test_resolution_memo_is_bounded_and_stays_correct_when_full(runtime, broker, monkeypatch):
    """A publisher that puts an id in the topic must not grow the broker: the
    fan-out memo stops admitting at the validators' cap, and a topic it did
    not admit is resolved afresh, to the same subscribers."""
    from repro.mqtt import topics
    from repro.mqtt.packets import Packet
    from repro.net.address import Address

    monkeypatch.setattr(topics, "_valid_topics", set())  # ours to fill
    subscriber = make_client(runtime, broker, "sub")
    got = []
    subscription = subscriber.subscribe("hot/#", lambda t, p, pkt: got.append((t, p)))
    settle(runtime)
    stranger = Address("nowhere", "raw")

    def publish(topic, payload=None):  # straight into the handler: no kernel event
        packet = Packet.publish(topic, payload)
        broker._handle(stranger, packet, packet.encode())

    for i in range(100_000):
        publish(f"id/{i}")
    assert broker.stats.publishes_in == 100_000
    assert len(broker._resolution) == topics._CACHE_CAP
    for payload in (1, 2):
        publish("hot/late", payload)
    assert "hot/late" not in broker._resolution
    settle(runtime)
    assert got == [("hot/late", 1), ("hot/late", 2)]
    subscriber.unsubscribe(subscription)
    settle(runtime)
    assert broker._resolution == {}  # dropped whole, as before
