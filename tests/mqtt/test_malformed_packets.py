"""A datagram that parses but is not a well-formed packet is counted and
dropped — by the broker and by the client, on both runtimes.

Each case is raw canonical JSON sent from a node that runs no MQTT code, so
nothing upstream can have validated it. The receiver must raise nothing (on
``SimRuntime`` out of ``run``, on ``AsyncioRuntime`` into the loop's
exception handler), count the packet once, trace it once with the reason,
and deliver the next well-formed publish.
"""

from __future__ import annotations

import pytest

from repro.mqtt.broker import Broker
from repro.mqtt.client import MqttClient
from repro.runtime.real import AsyncioRuntime
from repro.runtime.sim import SimRuntime

#: ``(receiver, datagram, what the reason names)``: to the broker from a
#: stranger ...
TO_BROKER = [
    ("broker", b'{"_t":"publish","payload":1,"topic":"a/#"}', "TopicError"),
    ("broker", b'{"_t":"publish","payload":1}', "'topic'"),
    ("broker", b'{"_t":"publish","payload":1,"qos":"zero","topic":"a"}', "QoS 'zero'"),
    ("broker", b'{"_t":"connect"}', "'client_id'"),
    # ... and beyond the four that were reported:
    ("broker", b'{"_t":"publish","payload":1,"topic":["a"]}', "'topic'"),
    ("broker", b'{"_t":"publish","payload":1,"qos":2,"topic":"a"}', "QoS 2"),
    ("broker", b'{"_t":"publish","headers":[1],"payload":1,"topic":"a"}', "'headers'"),
]
#: ... and to a connected client.
TO_CLIENT = [
    ("subscriber", b'{"_t":"puback"}', "'packet_id'"),
    ("subscriber", b'{"_t":"publish","payload":1}', "'topic'"),
    ("subscriber", b'{"_t":"publish","qos":"one","topic":"a"}', "'one'"),
    ("subscriber", b'{"_t":"publish","qos":1,"topic":"a"}', "'packet_id'"),
    ("subscriber", b'{"_t":"publish","payload":1,"topic":["a"]}', "string topic"),
]
REPORTED = TO_BROKER[:4] + TO_CLIENT[:3]  # the seven of the bug report
#: Control packets with a field of the wrong type, sent from the connected
#: subscriber's own address so the broker handles them in its session.
WRONG_TYPE = [
    (b'{"_t":"connect","client_id":"sub","keepalive_s":"x"}', "'keepalive_s'"),
    (b'{"_t":"connect","client_id":["l"]}', "'client_id'"),
    (b'{"_t":"connect","client_id":"sub","will":{"payload":1}}', "'will'"),
    (b'{"_t":"connect","client_id":"sub","will":"w"}', "'will'"),
    (b'{"_t":"subscribe","filters":[["a/b","x"]],"packet_id":7}', "'filters'"),
    (b'{"_t":"subscribe","filters":"ab","packet_id":7}', "'filters'"),
    (b'{"_t":"subscribe","filters":[["a/b"]],"packet_id":7}', "'filters'"),
    (b'{"_t":"subscribe","filters":[[5,0]],"packet_id":7}', "'filters'"),
    (b'{"_t":"pingreq","incarnation":"q"}', "'incarnation'"),
]
#: Bytes that are not JSON at all: dropped as before, not counted as packets.
UNDECODABLE = [b"\xff\xfe", b"not json", b"[1,2]", b'{"_t":"bogus"}']


class Bed:
    """Broker, a publisher, a subscriber of ``a`` and a node that only sends
    raw bytes; ``settle()`` lets everything in flight land."""

    def __init__(self, runtime, settle):
        self.runtime, self.settle = runtime, settle
        self.broker = Broker(runtime.add_node("hub"))
        self.publisher = MqttClient(runtime.add_node("pub"), self.broker.address, client_id="pub")
        self.subscriber = MqttClient(runtime.add_node("sub"), self.broker.address, client_id="sub")
        self.raw = runtime.add_node("raw")
        self.got: list = []
        self.subscriber.connect()
        self.subscriber.subscribe("a", lambda _t, payload, _p: self.got.append(payload))
        self.publisher.connect()
        settle()

    def send(self, receiver: str, datagram: bytes) -> None:
        self.raw.send("raw", getattr(self, receiver).address, datagram)

    def send_from_subscriber(self, datagram: bytes) -> None:
        self.subscriber.node.send("mqttc.sub", self.broker.address, datagram)

    def subscriptions(self) -> tuple:
        sessions = self.broker._sessions
        return self.broker.subscription_count(), {
            client: dict(sessions[client].subscriptions) for client in sorted(sessions)
        }

    def malformed(self) -> int:
        return self.broker.stats.malformed + self.subscriber.malformed_received

    def reasons(self) -> list[str]:
        return [
            record.fields["reason"]
            for record in self.runtime.tracer
            if record.event in ("mqtt.broker.garbage", "mqtt.client.garbage")
            and "reason" in record.fields
        ]


@pytest.fixture(params=["sim", "asyncio"])
def bed(request):
    if request.param == "sim":
        runtime = SimRuntime(seed=3)
        yield Bed(runtime, lambda: runtime.run(until=runtime.now + 0.5))
        return
    with AsyncioRuntime(seed=3) as runtime:
        reported: list = []
        runtime.loop.set_exception_handler(lambda _loop, context: reported.append(context))
        yield Bed(runtime, lambda: runtime.run_for(0.03))
        assert reported == []  # nothing reached the loop


@pytest.mark.parametrize("receiver, datagram, names", TO_BROKER + TO_CLIENT)
def test_counted_traced_once_and_the_next_publish_is_delivered(bed, receiver, datagram, names):
    bed.send(receiver, datagram)
    bed.settle()
    assert bed.malformed() == 1
    (reason,) = bed.reasons()
    assert names in reason
    bed.publisher.publish("a", {"after": True})
    bed.settle()
    assert bed.got == [{"after": True}]
    assert bed.broker.stats.publishes_in == 1  # the malformed ones are not publishes


def test_the_seven_reported_cases_in_one_run(bed):
    for receiver, datagram, _names in REPORTED:
        bed.send(receiver, datagram)
    bed.settle()
    assert bed.broker.stats.malformed == 4
    assert bed.subscriber.malformed_received == 3
    assert bed.broker.metrics()["broker.malformed"] == 4.0
    assert len(bed.reasons()) == 7
    bed.publisher.publish("a", "still serving")
    bed.settle()
    assert bed.got == ["still serving"]


@pytest.mark.parametrize("datagram, names", WRONG_TYPE)
def test_a_wrong_type_control_field_is_dropped_before_any_side_effect(bed, datagram, names):
    before = bed.subscriptions()
    bed.send_from_subscriber(datagram)
    bed.settle()
    assert (bed.broker.stats.malformed, bed.subscriber.malformed_received) == (1, 0)
    (reason,) = bed.reasons()
    assert reason.startswith("ProtocolError") and names in reason
    assert bed.subscriptions() == before
    bed.publisher.publish("a", "after")
    bed.settle()
    assert bed.got == ["after"]


def test_the_nine_wrong_type_cases_in_one_run(bed):
    before = bed.subscriptions()
    for datagram, _names in WRONG_TYPE:
        bed.send_from_subscriber(datagram)
    bed.settle()
    assert bed.broker.stats.malformed == 9
    assert len(bed.reasons()) == 9
    assert bed.subscriptions() == before
    bed.publisher.publish("a", "still serving")
    bed.settle()
    assert bed.got == ["still serving"]


@pytest.mark.parametrize("datagram", UNDECODABLE)
def test_undecodable_bytes_are_dropped_uncounted(bed, datagram):
    bed.send("broker", datagram)
    bed.send("subscriber", datagram)
    bed.settle()
    assert bed.malformed() == 0
    events = [r.event for r in bed.runtime.tracer if r.event.endswith(".garbage")]
    assert sorted(events) == ["mqtt.broker.garbage", "mqtt.client.garbage"]
    bed.publisher.publish("a", 1)
    bed.settle()
    assert bed.got == [1]


def test_a_malformed_qos1_publish_from_a_session_leaves_no_trace_of_itself(bed):
    """No packet id to acknowledge: dropped before it is counted, retained
    or given a span — not half processed."""
    bed.send("broker", b'{"_t":"connect","client_id":"raw"}')
    bed.settle()
    bed.send("broker", b'{"_t":"publish","payload":1,"qos":1,"retain":true,"topic":"a"}')
    bed.settle()
    assert bed.broker.stats.malformed == 1
    assert bed.broker.stats.publishes_in == 0
    assert bed.broker.retained_topics() == []
    assert bed.got == []
