"""Last-will testament behaviour (MQTT 3.1.1 §3.1.2.5 subset)."""

import pytest

from repro.mqtt.broker import Broker
from repro.mqtt.client import MqttClient
from repro.runtime.sim import SimRuntime


@pytest.fixture
def runtime():
    return SimRuntime(seed=13)


@pytest.fixture
def broker(runtime):
    return Broker(runtime.add_node("hub"))


def connect_client(runtime, broker, name, **kwargs):
    client = MqttClient(
        runtime.add_node(name), broker.address, client_id=name, **kwargs
    )
    client.connect()
    return client


def settle(runtime, duration=1.0):
    runtime.run(until=runtime.now + duration)


def test_will_published_on_session_expiry(runtime, broker):
    watcher = connect_client(runtime, broker, "watcher")
    got = []
    watcher.subscribe("status/+", lambda t, p, pkt: got.append((t, p)))
    doomed = connect_client(
        runtime,
        broker,
        "doomed",
        keepalive_s=2.0,
        will={"topic": "status/doomed", "payload": "offline"},
    )
    settle(runtime)
    assert got == []
    doomed.node.fail()  # crash: no DISCONNECT, pings stop
    settle(runtime, 15.0)
    assert got == [("status/doomed", "offline")]
    assert broker.stats.wills_published == 1


def test_clean_disconnect_suppresses_will(runtime, broker):
    watcher = connect_client(runtime, broker, "watcher")
    got = []
    watcher.subscribe("status/+", lambda t, p, pkt: got.append(p))
    polite = connect_client(
        runtime,
        broker,
        "polite",
        keepalive_s=2.0,
        will={"topic": "status/polite", "payload": "offline"},
    )
    settle(runtime)
    polite.disconnect()
    settle(runtime, 15.0)
    assert got == []
    assert broker.stats.wills_published == 0


def test_retained_will_tombstones(runtime, broker):
    """A retained will with null payload clears retained state on crash —
    the pattern the module agents use for crash-leave."""
    announcer = connect_client(
        runtime,
        broker,
        "announcer",
        keepalive_s=2.0,
        will={"topic": "reg/announcer", "payload": None, "retain": True},
    )
    announcer.publish("reg/announcer", {"alive": True}, retain=True)
    settle(runtime)
    assert "reg/announcer" in broker.retained_topics()
    announcer.node.fail()
    settle(runtime, 15.0)
    assert "reg/announcer" not in broker.retained_topics()


def test_will_round_trips_through_connect_packet():
    from repro.mqtt.packets import Packet

    packet = Packet.connect("c", will={"topic": "t", "payload": 1, "qos": 1})
    decoded = Packet.decode(packet.encode())
    assert decoded["will"] == {"topic": "t", "payload": 1, "qos": 1}
    assert Packet.decode(Packet.connect("c").encode()).get("will") is None


def test_module_agent_crash_clears_registry_fast(runtime):
    """Integration: a crashed module disappears from peers' directories at
    keep-alive granularity via its will, well before the directory TTL."""
    from repro.core.middleware import IFoTCluster

    cluster = IFoTCluster(runtime, heartbeat_s=2.0)
    module = cluster.add_module("pi-1")
    # Fast expiry for the test: shorten keepalive and refresh the session.
    module.client.keepalive_s = 2.0
    module.client.refresh_session()
    cluster.settle(1.0)
    directory = cluster.management.directory
    assert any(m.name == "pi-1" for m in directory.modules())
    module.node.fail()
    # Directory TTL is 30 s; the will fires within ~2 * keepalive + sweep.
    cluster.settle(10.0)
    assert not any(m.name == "pi-1" for m in directory.modules())


def test_qos1_will_is_delivered_at_qos1_and_acknowledged(runtime, broker):
    """A QoS 1 will has no publisher, hence no packet id of its own; the
    forwards get theirs per subscriber (this used to raise out of the sweep)."""
    watcher = connect_client(runtime, broker, "watcher")
    got = []
    watcher.subscribe("status/+", lambda t, p, pkt: got.append((p, pkt["qos"])), qos=1)
    doomed = connect_client(
        runtime,
        broker,
        "doomed",
        keepalive_s=2.0,
        will={"topic": "status/doomed", "payload": "offline", "qos": 1},
    )
    settle(runtime)
    doomed.node.fail()
    settle(runtime, 15.0)
    assert got == [("offline", 1)]
    assert broker.stats.pubacks_in == 1
    assert broker.inflight_count() == 0
