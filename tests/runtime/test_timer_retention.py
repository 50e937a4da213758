"""A component holds its pending timers, not every timer it ever armed.

QoS 1 arms one retry timer per message per hop; a long-lived broker must
not keep the fired and cancelled handles. Forgetting them must not cost
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


def _pubsub(runtime):
    broker = Broker(runtime.add_node("broker"))
    publisher = MqttClient(runtime.add_node("pub"), broker.address, client_id="pub")
    subscriber = MqttClient(runtime.add_node("sub"), broker.address, client_id="sub")
    publisher.connect()
    subscriber.connect()
    return broker, publisher, subscriber


def _assert_few_timers_retained(broker, publisher, received):
    assert received == list(range(CYCLES))
    assert publisher.pubacks_received == CYCLES and broker.stats.pubacks_in == CYCLES
    assert broker.stats.retransmissions == 0  # every retry timer was cancelled
    assert len(broker._timers) <= RETAINED_MAX
    assert len(publisher._timers) <= RETAINED_MAX


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
    runtime.run(until=1.0 + 0.01 * CYCLES + 1.0)
    _assert_few_timers_retained(broker, publisher, received)
    # Forgetting a handle neither adds nor removes a kernel event: 15 per
    # message plus the window's keep-alive pings and broker session sweeps,
    # the count from before handles were swept.
    assert runtime.kernel.events_processed - events_before == 75_058


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
