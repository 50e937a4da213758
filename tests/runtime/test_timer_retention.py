"""A component holds its pending timers, not every timer it ever armed.

QoS 1 keeps one retry timer per inflight table (a broker session, a
client), not per message: a long-lived broker holds a couple of pending
timers however many messages passed, and the kernel's heap holds no
cancelled husk per message. Forgetting spent handles must not cost
``stop()`` / ``Node.restart()`` their guarantee: a pending timer never
fires afterwards.
"""

import asyncio

import pytest

from repro.mqtt.broker import Broker
from repro.mqtt.client import MqttClient
from repro.runtime.component import Component
from repro.runtime.real import AsyncioRuntime
from repro.runtime.sim import SimRuntime

CYCLES = 5000
#: Far below CYCLES: twice the handful of timers in flight, or the sweep floor.
RETAINED_MAX = 32
#: What an MQTT endpoint holds after any number of QoS 1 cycles: its tables'
#: timers (one per table) and at most one handle of its own.
PENDING_MAX = 2


def _pubsub(runtime):
    broker = Broker(runtime.add_node("broker"))
    publisher = MqttClient(runtime.add_node("pub"), broker.address, client_id="pub")
    subscriber = MqttClient(runtime.add_node("sub"), broker.address, client_id="sub")
    publisher.connect()
    subscriber.connect()
    return broker, publisher, subscriber


def _pending_timers(component, tables):
    return len(component._timers) + sum(table._timer is not None for table in tables)


def _assert_few_timers_retained(broker, publisher, received):
    assert received == list(range(CYCLES))
    assert publisher.pubacks_received == CYCLES and broker.stats.pubacks_in == CYCLES
    assert broker.stats.retransmissions == 0  # nothing was ever due at a wake-up
    sessions = [session.inflight for session in broker._sessions.values()]
    assert _pending_timers(broker, sessions) <= PENDING_MAX
    assert _pending_timers(publisher, [publisher._inflight]) <= PENDING_MAX


def test_qos1_cycles_leave_few_timers_on_sim():
    runtime = SimRuntime(seed=3)
    runtime.tracer.enabled = False
    broker, publisher, subscriber = _pubsub(runtime)
    received = []
    subscriber.subscribe("t/v", lambda _t, payload, _p: received.append(payload), qos=1)
    runtime.run(until=1.0)
    for i in range(CYCLES):
        runtime.call_later(0.01 * (i + 1), publisher.publish, "t/v", i, 1)
    events_before = runtime.kernel.events_processed
    runtime.run(until=1.0 + 0.01 * CYCLES + 0.005)  # the last publish is in flight
    # The heap holds the endpoints' timers and the frames in flight, not a
    # cancelled husk per message of the last retry interval (404 before).
    assert runtime.kernel.pending <= 4 * len(runtime.nodes)
    runtime.run(until=1.0 + 0.01 * CYCLES + 1.0)
    _assert_few_timers_retained(broker, publisher, received)
    # 15 per message plus the window's keep-alive pings and broker session
    # sweeps (75 058, the count with one timer per message), plus the 52
    # wake-ups of the publisher's table (27) and the subscriber session's
    # (25) that found nothing due: one per retry interval over 51 s.
    assert runtime.kernel.events_processed - events_before == 75_058 + 52


def test_qos1_cycles_leave_few_timers_on_asyncio():
    with AsyncioRuntime(seed=3) as runtime:
        runtime.tracer.enabled = False
        broker, publisher, subscriber = _pubsub(runtime)
        received = []
        done = runtime.loop.create_future()

        def on_message(_topic, payload, _packet):
            received.append(payload)
            if len(received) < CYCLES:  # closed loop: one publish outstanding
                publisher.publish("t/v", len(received), qos=1)
            else:
                # One more turn of the loop lets the last PUBACKs land.
                runtime.call_later(0.05, done.set_result, None)

        subscriber.subscribe("t/v", on_message, qos=1)
        runtime.run_for(0.05)
        publisher.publish("t/v", 0, qos=1)
        asyncio.set_event_loop(runtime.loop)
        try:
            runtime.loop.run_until_complete(asyncio.wait_for(done, timeout=60.0))
        finally:
            asyncio.set_event_loop(None)
        _assert_few_timers_retained(broker, publisher, received)


@pytest.mark.parametrize("teardown", ["stop", "restart"])
def test_pending_timer_never_fires_after_teardown_despite_sweeps(teardown):
    runtime = SimRuntime(seed=3)
    node = runtime.add_node("n")
    component = Component(node, "c")
    fired = []
    far = component.after(100.0, fired.append, "pending at teardown")

    def arm(i):
        handle = component.after(0.0005, fired.append, i)
        if i % 2:
            handle.cancel()

    for i in range(200):  # short timers armed one after another: several sweeps
        runtime.call_later(0.001 * i, arm, i)
    runtime.run(until=1.0)
    assert fired == list(range(0, 200, 2))
    component.after(0.5, fired.append, "also pending")
    assert far in component._timers and len(component._timers) <= RETAINED_MAX
    if teardown == "stop":
        component.stop()
    else:
        node.restart()
    assert far.cancelled
    runtime.run(until=200.0)
    assert fired == list(range(0, 200, 2))


def test_pending_timer_never_fires_after_stop_on_asyncio():
    with AsyncioRuntime() as runtime:
        component = Component(runtime.add_node("n"), "c")
        fired = []
        pending = component.after(0.05, fired.append, "pending at stop")
        for _ in range(100):
            component.after(0.0, fired.append, "short")
        runtime.run_for(0.02)
        assert fired == ["short"] * 100
        for _ in range(100):  # sweeps run as the list doubles again
            component.after(10.0, fired.append, "long").cancel()
        assert pending in component._timers and len(component._timers) <= RETAINED_MAX
        component.stop()
        assert pending.cancelled()
        runtime.run_for(0.08)
        assert fired == ["short"] * 100


def test_cancelled_periodic_timers_are_not_retained():
    runtime = SimRuntime(seed=3)
    component = Component(runtime.add_node("n"), "c")
    ticks = []
    for _ in range(50):  # a client reconnecting: cancel one keep-alive, arm the next
        timer = component.every(1.0, lambda: ticks.append(runtime.now))
        timer.cancel()
    live = component.every(1.0, lambda: ticks.append(runtime.now))
    assert component._periodic == [live]
    component.stop()
    runtime.run(until=5.0)
    assert ticks == []
