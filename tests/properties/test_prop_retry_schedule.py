"""The table timer is the per-message timer, observed from outside.

``InflightTable`` keeps one timer per table, armed for the earliest
deadline. The reference below is the design it replaced — one timer per
message, armed at ``t_arm + interval``, cancelled by the PUBACK — behind the
same five methods. Scripts of publish instants, lost PUBLISH/PUBACK frames,
a persistent-session outage, a clean takeover, a node blip and ``max_retries``
exhaustion run the real ``Broker``/``MqttClient`` over a medium that loses
the frames the script names; on ``SimRuntime`` the two must put the same
frames on the wire at the same float instants in the same order, give up on
the same messages, leave the same entries with the same ``retries_left``
and deadlines, and draw the jitter stream the same number of times. On
``AsyncioRuntime`` the same scripts compare per-message counts and order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.mqtt import broker as broker_module
from repro.mqtt import client as client_module
from repro.mqtt.broker import Broker
from repro.mqtt.client import MqttClient
from repro.mqtt.inflight import Inflight, InflightTable
from repro.mqtt.packets import Packet, PacketType
from repro.net.medium import Medium
from repro.runtime.node import Node
from repro.runtime.real import AsyncioRuntime
from repro.runtime.sim import SimRuntime

INTERVAL_S = 0.02
LATENCY_S = 0.0011
RETRIES = 2
#: Scripted instants sit on a grid that meets no sum of retry intervals and
#: latencies inside a script (73 k = 200 a + 11 b has no small solution), so
#: no two events of a run tie on the clock: which of two same-instant events
#: runs first is the kernel's business, not the table's.
START_S, STEP_S = 0.05, 0.0073
#: Both hops exhausting their retries one after the other, and then some.
SETTLE_S = 2 * (RETRIES + 2) * INTERVAL_S * 1.1
#: How far apart two wall-clock events must be for their order to be trusted.
MARGIN_S = 3e-3
#: What a script may lose: frames of one type on one hop, by message.
FLOWS = (
    ("pub", "hub", PacketType.PUBLISH),
    ("hub", "pub", PacketType.PUBACK),
    ("hub", "sub", PacketType.PUBLISH),
    ("sub", "hub", PacketType.PUBACK),
)


# ----------------------------------------------------------------------
# Reference: one timer per message
# ----------------------------------------------------------------------


class PerMessageTable(dict):
    """What ``InflightTable`` replaced, behind its interface."""

    def __init__(self, runtime, cell, guard, interval, resend, abandon):
        super().__init__()
        self.cell = cell
        self._runtime, self._interval = runtime, interval
        self._resend, self._abandon = resend, abandon
        self._fire = guard(self._retry)
        self._timers = {}

    def put(self, packet_id, packet, retries):
        self[packet_id] = Inflight(packet, retries)
        self._arm(packet_id)

    def _arm(self, packet_id):
        interval = self._interval()
        self[packet_id].deadline = self._runtime.now + interval
        self._timers[packet_id] = self._runtime.call_later(interval, self._expire, packet_id)

    def _expire(self, packet_id):
        self[packet_id].deadline = inf  # fired; only a live node arms the next
        self._fire(packet_id)

    def _retry(self, packet_id):
        entry = self[packet_id]
        if entry.retries_left <= 0:
            del self[packet_id]
            self._abandon(packet_id, entry.packet)
            return
        entry.retries_left -= 1
        self._retransmit(packet_id)

    def _retransmit(self, packet_id):
        entry = self[packet_id]
        entry.packet = entry.packet.as_dup()
        self._resend(entry.packet)
        self._arm(packet_id)

    def pop(self, packet_id, default=None):
        timer = self._timers.pop(packet_id, None)
        if timer is not None:
            timer.cancel()
        return super().pop(packet_id, default)

    def pause(self):
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        for entry in self.values():
            entry.deadline = inf

    def resume(self):
        for packet_id in list(self):
            self._retransmit(packet_id)

    def cancel(self):
        self.pause()
        self.clear()


# ----------------------------------------------------------------------
# Scripts and the medium that plays them
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Script:
    publishes: tuple[float, ...]
    #: ``(source, destination, type, message)`` -> how many of the first
    #: such frames are lost (a PUBACK belongs to the message it acknowledges).
    losses: dict
    #: Persistent-session DISCONNECT and re-CONNECT instants of the subscriber.
    outage: tuple[float, float] | None
    #: When a clean-session client with the subscriber's id takes over.
    takeover: float | None
    #: ``(station, fail instant, recover instant)`` of a node that keeps a table.
    blip: tuple[str, float, float] | None
    #: When the tables are looked at, besides at the end.
    probe: float

    @property
    def end(self) -> float:
        instants = [*self.publishes, *(self.outage or ()), self.takeover or 0.0, self.probe]
        instants += (self.blip or ())[1:]
        return max(instants) + SETTLE_S


grid = st.integers(min_value=0, max_value=10)


@st.composite
def scripts(draw, max_messages=6, flows=FLOWS, blips=True):
    publishes = draw(st.lists(grid, min_size=1, max_size=max_messages, unique=True))
    # Half of the frames get through at once, or few messages would ever be
    # in flight together.
    count = st.sampled_from((0,) * (RETRIES + 2) + tuple(range(1, RETRIES + 3)))
    counts = st.lists(count, min_size=len(publishes), max_size=len(publishes))
    losses = {
        (*flow, message): lost
        for flow in flows
        for message, lost in enumerate(draw(counts))
        if lost
    }
    outage = takeover = None
    if draw(st.booleans()):
        down, length = draw(grid), draw(st.integers(1, 8))
        outage = (START_S + STEP_S * (down + 0.5), START_S + STEP_S * (down + length + 0.5))
    if draw(st.booleans()):
        takeover = START_S + STEP_S * (draw(grid) + 0.3)
    blip = None
    if blips and draw(st.booleans()):
        down, length = draw(grid), draw(st.integers(1, 6))
        blip = (
            draw(st.sampled_from(("pub", "hub"))),
            START_S + STEP_S * (down + 0.6), START_S + STEP_S * (down + length + 0.6),
        )
    probe = START_S + STEP_S * (draw(st.integers(0, 25)) + 0.7)
    return Script(
        tuple(START_S + STEP_S * n for n in sorted(publishes)), losses, outage, takeover, blip, probe
    )


class ScriptedMedium(Medium):
    """Fixed latency, FIFO, and the losses a script names; keeps a log of
    every PUBLISH and PUBACK handed to it: ``(instant, source, destination,
    type, message, packet id, dup, lost)``."""

    def __init__(self, runtime, losses):
        super().__init__()
        self._runtime = runtime
        self._losses = dict(losses)
        self._message: dict = {}  # (sender, receiver, packet id) -> message of that PUBLISH
        self.wire: list[tuple] = []

    def transmit(self, frame):
        packet = Packet.decode(frame.payload)
        if packet.type in (PacketType.PUBLISH, PacketType.PUBACK):
            source, destination = frame.source.station, frame.destination.station
            packet_id = packet["packet_id"]
            if packet.type is PacketType.PUBLISH:
                message = self._message[source, destination, packet_id] = packet["payload"]
            else:
                message = self._message[destination, source, packet_id]
            key = (source, destination, packet.type, message)
            lost = self._losses.get(key, 0) > 0
            if lost:
                self._losses[key] -= 1
            dup = bool(packet.get("dup", False))
            self.wire.append((self._runtime.now, *key, packet_id, dup, lost))
            if lost:
                return
        self._runtime.call_later(LATENCY_S, self._deliver, frame)

    def _deliver(self, frame):
        interface = self._interfaces.get(frame.destination.station)
        if interface is not None:
            interface.deliver(frame)


@dataclass
class Observed:
    wire: list
    give_ups: list
    tables: list
    counters: tuple
    jitter_state: tuple


def play(runtime, script: Script, run) -> Observed:
    """Build publisher → broker → subscriber on ``runtime``, schedule the
    script, ``run(end)``, and report what an outsider can see."""
    medium = ScriptedMedium(runtime, script.losses)

    nodes: dict = {}

    def node(name):
        nodes[name] = Node(runtime, name, medium.attach(name))
        return nodes[name]

    broker = Broker(node("hub"), retry_interval_s=INTERVAL_S, max_retries=RETRIES)

    def client(station, client_id, clean):
        return MqttClient(
            node(station), broker.address, client_id=client_id, clean_session=clean,
            keepalive_s=0.0, retry_interval_s=INTERVAL_S, max_retries=RETRIES,
        )

    publisher = client("pub", "pub", True)
    subscriber = client("sub", "sub", False)
    usurper = client("sub2", "sub", True)
    probed: list = []

    def begin():  # on the running clock: a slow start must not eat the script
        publisher.connect()
        subscriber.connect()
        subscriber.subscribe("t", lambda *_: None, qos=1)
        for i, instant in enumerate(script.publishes):
            runtime.call_later(instant, publisher.publish, "t", i, 1)
        if script.outage is not None:
            runtime.call_later(script.outage[0], subscriber.disconnect)
            runtime.call_later(script.outage[1], subscriber.connect)
        if script.takeover is not None:
            runtime.call_later(script.takeover, usurper.connect)
        if script.blip is not None:
            station, down, up = script.blip
            runtime.call_later(down, nodes[station].fail)
            runtime.call_later(up, nodes[station].recover)
        runtime.call_later(script.probe, lambda: probed.append(tables()))

    def tables():
        live = {"pub": publisher._inflight}
        live.update({f"hub/{cid}": s.inflight for cid, s in broker._sessions.items()})
        return {
            name: [(pid, e.retries_left, bool(e.packet.get("dup")), e.deadline) for pid, e in t.items()]
            for name, t in live.items()
        }

    runtime.call_soon(begin)
    run(script.end)
    return Observed(
        wire=medium.wire,
        give_ups=[
            (r.time, r.event, r.fields)
            for r in runtime.tracer
            if r.event.endswith(".give_up") or r.event == "mqtt.broker.inflight_dropped"
        ],
        tables=[*probed, tables()],
        counters=(
            broker.stats.retransmissions, broker.stats.drops_give_up,
            publisher.publishes_abandoned, publisher.pubacks_received,
        ),
        jitter_state=runtime.rng.stream("mqtt.retry.pub").getstate(),
    )


def play_on_sim(script: Script, table, monkeypatch, runtime_class=SimRuntime) -> Observed:
    monkeypatch.setattr(broker_module, "InflightTable", table)
    monkeypatch.setattr(client_module, "InflightTable", table)
    runtime = runtime_class(seed=11)
    return play(runtime, script, lambda end: runtime.run(until=end, max_events=100_000))


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


#: Two forwards lost, the older one retransmitted, then the session drops
#: and resumes: the resume re-sends oldest first, not in the order the
#: entries were last armed; both are lost again and come due in one wake-up.
RESUME_AFTER_PARTIAL_RETRANSMISSION = Script(
    publishes=(START_S, START_S + 2 * STEP_S),
    losses={("hub", "sub", PacketType.PUBLISH, 0): 3, ("hub", "sub", PacketType.PUBLISH, 1): 2},
    outage=(START_S + 3.5 * STEP_S, START_S + 5.5 * STEP_S),
    takeover=None,
    blip=None,
    probe=START_S + 4.7 * STEP_S,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(script=scripts())
@example(script=RESUME_AFTER_PARTIAL_RETRANSMISSION)
def test_table_timer_matches_per_message_timers_on_sim(script, monkeypatch):
    observed = play_on_sim(script, InflightTable, monkeypatch)
    expected = play_on_sim(script, PerMessageTable, monkeypatch)
    assert observed.wire == expected.wire  # instants compare with ==
    assert observed.give_ups == expected.give_ups
    assert observed.tables == expected.tables
    assert observed.counters == expected.counters
    assert observed.jitter_state == expected.jitter_state


def _per_message(wire):
    """``{(source, destination, type, message): [(dup, lost), ...]}`` in wire
    order: what a wall-clock run shares with a simulated one. Packet ids are
    not part of it — the broker numbers forwards in arrival order."""
    flows: dict = {}
    for _time, *key, _packet_id, dup, lost in wire:
        flows.setdefault(tuple(key), []).append((dup, lost))
    return flows


def _watch_for_stalls(runtime, beat_s=1e-3):
    """A heartbeat on ``runtime``'s loop; the returned list fills with the
    beats that came more than ``MARGIN_S`` late (a shared host does that)."""
    late: list[float] = []

    def beat(due):
        if runtime.now - due > MARGIN_S:
            late.append(runtime.now - due)
        runtime.call_at(runtime.now + beat_s, beat, runtime.now + beat_s)

    runtime.call_soon(beat, runtime.now)
    return late


# A wall clock cannot promise which of two events a millisecond apart runs
# first, so these scripts never lose the publisher's PUBACK (the message would
# be forwarded twice, and which copy meets a scripted loss first is a race) ...
@settings(
    max_examples=8, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.filter_too_much],
)
@given(script=scripts(max_messages=3, flows=(FLOWS[0], *FLOWS[2:]), blips=False))
@example(script=RESUME_AFTER_PARTIAL_RETRANSMISSION)
def test_table_timer_matches_per_message_timers_on_asyncio(script, monkeypatch):
    expected = play_on_sim(script, PerMessageTable, monkeypatch)
    # ... and keep a session event, where it happens and where it lands,
    # clear of every frame to or from the subscriber and every give-up, whose
    # fate it decides, and of the other session event.
    session_events = [*(script.outage or ()), *([script.takeover] if script.takeover else [])]
    session_events += [instant + LATENCY_S for instant in session_events]
    decided = [entry[0] for entry in expected.wire if "sub" in entry[1:3]]
    decided += [instant for instant, _event, _fields in expected.give_ups]
    # (What shares its instant with a session event was caused by it.)
    assume(all(abs(a - b) > MARGIN_S or a == b for a in session_events for b in decided))
    assume(all(abs(a - b) > MARGIN_S or abs(a - b) <= LATENCY_S for a in session_events for b in session_events))
    monkeypatch.setattr(broker_module, "InflightTable", InflightTable)
    monkeypatch.setattr(client_module, "InflightTable", InflightTable)
    for _attempt in range(3):
        with AsyncioRuntime(seed=11) as runtime:
            stalled = _watch_for_stalls(runtime)
            observed = play(runtime, script, runtime.run_for)
        agrees = (_per_message(observed.wire), observed.counters, observed.jitter_state) == (
            _per_message(expected.wire), expected.counters, expected.jitter_state
        )
        # A run during which the host held the loop for longer than the
        # margins above is no evidence either way: play the script again.
        if agrees or not stalled:
            break
    assert _per_message(observed.wire) == _per_message(expected.wire)
    assert observed.counters == expected.counters
    assert observed.jitter_state == expected.jitter_state


TICK_S = 1e-4


class EarlyTimerRuntime(SimRuntime):
    """Fires ``call_at`` timers one clock tick early, as asyncio may."""

    def call_at(self, when, callback, *args):
        return self.kernel.schedule_at(max(self.now, when - TICK_S), callback, *args)


def test_wake_up_delivered_a_tick_early_retransmits_what_it_was_armed_for(monkeypatch):
    script = Script(
        publishes=(START_S,),
        losses={("hub", "sub", PacketType.PUBLISH, 0): RETRIES + 1},
        outage=None,
        takeover=None,
        blip=None,
        probe=START_S,
    )
    observed = play_on_sim(script, InflightTable, monkeypatch, runtime_class=EarlyTimerRuntime)
    forwards = [entry for entry in observed.wire if entry[1:3] == ("hub", "sub")]
    first = forwards[0][0]
    # Each retransmission leaves a tick before its deadline and arms the next
    # from there; a wake-up that asked "due by now?" would find nothing due,
    # re-arm for the same deadline and spin.
    assert [entry[0] for entry in forwards] == pytest.approx(
        [first + k * (INTERVAL_S - TICK_S) for k in range(RETRIES + 1)], abs=1e-12
    )
    assert [entry[6] for entry in forwards] == [False] + [True] * RETRIES
    assert observed.counters[:2] == (RETRIES, 1)
