"""The per-hop budget, as counts (no timer, so no host noise).

A hop allocates, calls and formats only what the simulated model or an
observable consumer needs. On a bare broker with trace storage off and
nothing tapped, that is a bound on Python-level calls per delivered
message, an exact kernel-event count, no ``str(Address)`` and no
``TraceRecord`` — and a tap added mid-run still sees the records a
storing tracer sees, field for field.
"""

from __future__ import annotations

import sys

import pytest

from repro.mqtt.broker import Broker
from repro.mqtt.client import MqttClient
from repro.mqtt.packets import Packet
from repro.net.address import Address
from repro.runtime.sim import SimRuntime
from repro.sim.trace import TraceRecord

MESSAGES = 200
PERIOD_S = 0.01
#: Python calls per delivered message, by QoS: at most 8 % above what this
#: path measures (182.1 / 335.5; CPython 3.10 counts 190.1 / 350.5) and at
#: least 15 % below the 234 / 427 (3.10: 241 / 441) it cost before the hop
#: path was held to the budget. QoS 1 was set again when the retry timer
#: moved from the message to the inflight table: 311.25 measured (3.10.13 and
#: 3.11.7 alike; 317.60 with a timer per message), 336 = 311.25 x 1.08.
#: QoS 0 was set again when the broker stopped re-encoding what it relays:
#: 157.08 measured (173.08 before), 169 = 157.08 x 1.08, and the + 8 that
#: CPython 3.10 has carried since; QoS 1 measures 305.25 and keeps its pin.
CALL_BUDGET = {0: 177, 1: 336} if sys.version_info[:2] == (3, 10) else {0: 169, 1: 336}
#: Kernel events per message: CPU job + airtime flush + delivery per hop
#: and CPU job, PUBACKs included at QoS 1.
KERNEL_EVENTS = {0: 9, 1: 15}
#: Inflight-table wake-ups in the window, on top of those: at QoS 1 the
#: publisher's table and the subscriber session's each arm with the first
#: message for 2 s later (±10 % at the client), wake once inside the 2.5 s
#: window to find that entry long acknowledged, and re-arm for the oldest
#: deadline left, which is past the window's end, or disarm.
WAKE_UPS = {0: 0, 1: 2}
#: ``Packet.encode`` runs per message, exactly. QoS 0: the publisher's, which
#: the broker forwards as received (2 while it built and encoded a copy).
#: QoS 1: the publish, the broker's PUBACK, the forward with its own packet
#: id and fwd_id, the subscriber's PUBACK — nothing there to share.
ENCODES = {0: 1, 1: 4}

HOT_EVENTS = ("wlan.transmit", "mqtt.broker.forward", "mqtt.client.deliver")


def _testbed(qos: int, stored: bool):
    """One publisher → broker → one ``t/+/v`` subscriber, connected, with
    :data:`MESSAGES` publishes scheduled from t = 1 s."""
    runtime = SimRuntime(seed=1)
    runtime.tracer.enabled = stored
    broker = Broker(runtime.add_node("broker"))
    publisher = MqttClient(runtime.add_node("pub"), broker.address, client_id="pub")
    subscriber = MqttClient(runtime.add_node("sub"), broker.address, client_id="sub")
    delivered: list[int] = []
    subscriber.connect()
    subscriber.subscribe("t/+/v", lambda _t, payload, _p: delivered.append(payload["i"]), qos=qos)
    publisher.connect()
    runtime.run(until=1.0)
    for i in range(MESSAGES):
        runtime.call_later(PERIOD_S * (i + 1), publisher.publish, "t/1/v", {"i": i}, qos)
    return runtime, delivered


@pytest.mark.parametrize("qos", [0, 1])
def test_calls_and_events_per_message(qos):
    runtime, delivered = _testbed(qos, stored=False)
    watched = {Address.__str__.__code__: 0, TraceRecord.__init__.__code__: 0}
    encode = Packet.encode.__code__
    calls = encodes = 0

    def count(frame, event, _arg):
        nonlocal calls, encodes
        if event == "call":
            calls += 1
            encodes += frame.f_code is encode
            if frame.f_code in watched:
                watched[frame.f_code] += 1

    events_before = runtime.kernel.events_processed
    sys.setprofile(count)
    try:
        runtime.run(until=1.0 + PERIOD_S * MESSAGES + 0.5)
    finally:
        sys.setprofile(None)
    assert delivered == list(range(MESSAGES))
    events = runtime.kernel.events_processed - events_before
    assert events == KERNEL_EVENTS[qos] * MESSAGES + WAKE_UPS[qos]
    assert calls / MESSAGES <= CALL_BUDGET[qos]
    assert encodes == ENCODES[qos] * MESSAGES
    (broker,) = (c for c in runtime.nodes["broker"].components if isinstance(c, Broker))
    assert broker.stats.publishes_out == MESSAGES
    assert broker.stats.forwards_reused == (MESSAGES if qos == 0 else 0)
    assert watched == {Address.__str__.__code__: 0, TraceRecord.__init__.__code__: 0}


def _flat(record: TraceRecord):
    return (record.time, record.source, record.event, list(record.fields.items()))


def test_tap_added_mid_run_sees_what_a_storing_tracer_stores():
    halfway = 1.0 + PERIOD_S * (MESSAGES / 2 + 0.5)  # between two publishes
    end = 1.0 + PERIOD_S * MESSAGES + 0.5

    stored_runtime, _ = _testbed(1, stored=True)
    stored_runtime.run(until=end)
    expected = [
        _flat(r) for r in stored_runtime.tracer if r.event in HOT_EVENTS and r.time > halfway
    ]

    runtime, delivered = _testbed(1, stored=False)
    runtime.run(until=halfway)
    tapped: list[TraceRecord] = []
    for event in HOT_EVENTS:
        runtime.tracer.tap(event, tapped.append)
    runtime.run(until=end)
    assert delivered == list(range(MESSAGES))
    assert len(runtime.tracer) == 0

    assert [_flat(r) for r in tapped] == expected
    keys = {event: None for event in HOT_EVENTS}
    for record in tapped:
        keys[record.event] = list(record.fields)
    assert keys == {
        "wlan.transmit": ["frame_id", "src", "dst", "size", "queued_s", "lost"],
        "mqtt.broker.forward": ["client", "topic", "qos", "fwd_id"],
        "mqtt.client.deliver": ["topic", "fwd_id", "dup"],
    }
