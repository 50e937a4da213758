"""What the broker puts on the wire is what a per-copy encoder would.

The broker encodes a forward only when its bytes differ from bytes it
already holds: a plain QoS 0 publish is relayed as received, or, when its
routing span rewrites a known leading trace context, sent as the received
bytes with the new context spliced in; every other QoS 0 delivery of a
message shares one encoded copy. The reference below
knows none of that. For each inbound PUBLISH it builds, per subscriber, the
body ``Packet.forwarded(qos, retain, packet_id, headers, fwd_id)`` describes
and runs it through ``encode_payload`` — the canonical encoder, not the
direct writer. The real ``Broker`` runs over a medium that hands it raw
datagrams and keeps what it sends; for every message the frames must equal
the reference's byte for byte and in order, the ``mqtt.broker.forward``
records and ``publishes_out`` must be the per-copy ones, the frames must be
the *received object* exactly when the reuse condition holds, every frame
that carries its packet must carry the one its bytes spell, and the broker
must have called ``Packet.encode`` once per distinct bytes object it sent and
neither received nor spliced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mqtt import packets
from repro.mqtt.broker import Broker
from repro.mqtt.packets import Packet, PacketType, _Wire
from repro.mqtt.topics import TopicTree, topic_matches
from repro.net.medium import Medium
from repro.obs.context import FlowContext, _WireContext
from repro.obs.state import enable_observability
from repro.runtime.node import Node
from repro.runtime.sim import SimRuntime
from repro.util.serialization import encode_payload

TOPICS = ("a/b", "a/c")
FILTERS = ("a/b", "a/+", "a/#", "#", "+/c", "x/y")
#: How a drawn PUBLISH departs from what ``Packet.publish`` builds.
SHAPES = (
    "ctor", "extra_key", "no_headers", "null_headers", "bool_qos",
    "no_qos_extra_key", "no_dup_extra_key", "no_payload_extra_key",
)
#: How a drawn trace context dict departs from what ``to_wire`` built:
#: edited afterwards, in a way a parse does not see but its bytes do.
EDITS = ("none", "extra_key", "no_parent")
#: How a drawn PUBLISH is spelled on the wire (see :attr:`Inbound.loose`).
LOOSE = ("no", "body", "topic")


# ----------------------------------------------------------------------
# What is drawn
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Subscriber:
    filters: tuple[tuple[str, int], ...]
    #: A persistent session that disconnected: keeps its subscriptions,
    #: gets nothing.
    offline: bool


@dataclass(frozen=True)
class Inbound:
    topic: str
    payload: Any
    qos: int
    retain: bool
    dup: bool
    headers: dict | None
    shape: str
    #: One of :data:`LOOSE`: ``Packet.encode()`` output (``"no"``), the same
    #: body as loose JSON (``"body"``: spaces, insertion order), or those
    #: bytes with spaces around the topic only (``"topic"``: canonical up to
    #: past the headers, so no check of the head can tell). Loose input is
    #: parseable, not canonical, never a ``_Wire``.
    loose: str

    def fields(self, packet_id: int) -> dict[str, Any]:
        built = Packet.publish(
            self.topic, self.payload, self.qos, self.retain, self.dup,
            packet_id if self.qos else None, self.headers,
        )
        fields = dict(built.fields)
        if self.shape == "extra_key":
            fields["x"] = 1
        elif self.shape == "no_headers":
            del fields["headers"]
        elif self.shape == "null_headers":
            fields["headers"] = None
        elif self.shape == "bool_qos":
            fields["qos"] = bool(self.qos)
        elif self.shape.endswith("_extra_key"):
            missing = self.shape.split("_")[1]
            if missing != "qos" or self.qos == 0:  # an absent qos reads as 0
                del fields[missing]
                fields["x"] = 1
        return fields


payloads = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-5, 10**12),
        st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)


def context(trace: int, span: int, hop: int, edit: str) -> dict:
    wire = FlowContext(f"tr-{trace}", f"sp-x{span}", "", hop).to_wire()
    if edit == "extra_key":
        wire["z"] = 0
    elif edit == "no_parent":
        del wire["p"]  # an absent parent reads as ""
    return wire


def spliceable(headers: dict | None) -> bool:
    """The headers lead with a context ``to_wire`` built and nobody edited."""
    obs = (headers or {}).get("obs")
    return type(obs) is _WireContext and obs == obs.ctx.to_wire() and min(headers) == "obs"


contexts = st.builds(
    context, st.integers(0, 3), st.integers(0, 12), st.integers(0, 11), st.sampled_from(EDITS)
)
header_sets = st.one_of(
    st.none(),
    st.just({}),
    st.just({"sample_id": 7, "sensed_at": 1.25}),
    st.builds(lambda ctx: {"obs": ctx, "sample_id": 8}, contexts),
    st.builds(lambda ctx: {"n": 0, "obs": ctx}, contexts),  # a key sorting first
    st.builds(lambda ctx: {"obs": dict(ctx)}, contexts),  # parsed, not known
    st.just({"obs": "not a context"}),
)
inbounds = st.builds(
    Inbound,
    topic=st.sampled_from(TOPICS), payload=payloads, qos=st.sampled_from((0, 1)),
    retain=st.booleans(), dup=st.booleans(), headers=header_sets,
    shape=st.sampled_from(SHAPES), loose=st.sampled_from(LOOSE),
)
# Mostly plain publishes, or the reuse branch would rarely be the one taken.
plain_inbounds = st.builds(
    Inbound,
    topic=st.sampled_from(TOPICS), payload=payloads, qos=st.just(0),
    retain=st.just(False), dup=st.just(False), headers=header_sets,
    shape=st.just("ctor"), loose=st.just("no"),
)
# ... and plain but for one thing, each of which must switch the relay off.
PLAIN = Inbound("a/b", {"v": [1.5, "x"]}, 0, False, False, {"sample_id": 7}, "ctor", "no")
ONE_OFF = (
    [replace(PLAIN, **{name: True}) for name in ("retain", "dup")]
    + [replace(PLAIN, loose=loose) for loose in LOOSE[1:]]
    + [replace(PLAIN, qos=1)]
    + [replace(PLAIN, shape=shape) for shape in SHAPES[1:]]
)
#: A plain publish with the context a publisher's span puts on it: with
#: observability on, the broker splices its own context into these bytes ...
TRACED = replace(PLAIN, headers={"obs": context(1, 1, 2, "none"), "sample_id": 7})
#: ... and traced but for one thing, each of which must switch the splice off.
TRACED_OFF = (
    [replace(TRACED, **{name: True}) for name in ("retain", "dup")]
    + [replace(TRACED, loose=loose) for loose in LOOSE[1:]]
    + [replace(TRACED, qos=1)]
    + [replace(TRACED, headers={"n": 0, "obs": context(1, 1, 2, "none")})]
    + [replace(TRACED, headers={"obs": context(1, 1, 2, edit)}) for edit in EDITS[1:]]
    + [replace(TRACED, headers={"obs": dict(context(1, 1, 2, "none"))})]
)
subscribers = st.builds(
    Subscriber,
    filters=st.lists(
        st.tuples(st.sampled_from(FILTERS), st.sampled_from((0, 1))),
        min_size=1, max_size=3, unique_by=lambda entry: entry[0],
    ).map(tuple),
    offline=st.sampled_from((False, False, False, True)),
)


# ----------------------------------------------------------------------
# The bed: the real broker over a medium that records
# ----------------------------------------------------------------------


class RecordingMedium(Medium):
    """Delivers to the hub at once; keeps what the hub sends."""

    def __init__(self):
        super().__init__()
        self.from_hub: list = []

    def transmit(self, frame):
        if frame.source.station == "hub":
            self.from_hub.append(frame)
        else:
            self._interfaces["hub"].deliver(frame)


class Bed:
    def __init__(self, patch, obs: bool):
        self.runtime = SimRuntime(seed=5)
        if obs:
            enable_observability(self.runtime)
        self.medium = RecordingMedium()
        # No CPU: the broker's work runs inline, so one send is one message.
        self.broker = Broker(Node(self.runtime, "hub", self.medium.attach("hub")))
        self.encodes = 0
        self._in_broker = False
        encode = Packet.encode

        def counting_encode(packet):
            self.encodes += self._in_broker
            return encode(packet)

        patch.setattr(Packet, "encode", counting_encode)

    def send(self, station: str, data: bytes) -> list:
        """Hand the broker one datagram; what it sent in reply, as
        ``(station, payload)``, and its ``Packet.encode`` calls in
        ``self.encodes``."""
        if station not in self.medium.stations:
            self.medium.attach(station)
        before = len(self.medium.from_hub)
        self.encodes, self._in_broker = 0, True
        try:
            self.medium.interface(station).send("c", self.broker.address, data)
        finally:
            self._in_broker = False
        return [(f.destination.station, f.payload) for f in self.medium.from_hub[before:]]

    def forward_records(self, since: int) -> list[dict]:
        records = self.runtime.tracer.select(event="mqtt.broker.forward")
        return [dict(r.fields) for r in records[since:]]


# ----------------------------------------------------------------------
# The reference: one body per copy, the canonical encoder
# ----------------------------------------------------------------------


class Reference:
    def __init__(self, obs: bool):
        self.obs = obs
        self.tree: TopicTree[str] = TopicTree()
        self.subscriptions: dict[str, dict[str, int]] = {}
        self.offline: set[str] = set()
        self.next_packet_id: dict[str, int] = {}
        self.forwards = 0  # the runtime's "mqtt.fwd" namespace
        self.spans = 0  # ... and "obs.span": the broker is the only span source
        self.retained: dict[str, tuple[dict, int, dict]] = {}

    def subscribe(self, client: str, filters) -> None:
        held = self.subscriptions.setdefault(client, {})
        for topic_filter, qos in filters:
            if topic_filter not in held:
                self.tree.insert(topic_filter, client)
            held[topic_filter] = qos
        self.next_packet_id.setdefault(client, 1)

    def _copy(self, client: str, fields: dict, qos: int, retain: bool, headers: dict):
        """``(frame, trace fields)`` of one forward: the six constructor
        fields, and at QoS 1 the session's next packet id and a fresh
        fwd_id."""
        body = {
            "_t": "publish", "topic": fields["topic"], "payload": fields.get("payload"),
            "qos": qos, "retain": retain, "dup": False, "headers": headers,
        }
        record = {"client": client, "topic": fields["topic"], "qos": qos}
        if qos == 1:
            body["packet_id"] = self.next_packet_id[client]
            self.next_packet_id[client] = body["packet_id"] % 65535 + 1
            body["fwd_id"] = record["fwd_id"] = f"mqtt.fwd-{self.forwards}"
            self.forwards += 1
        return (client, encode_payload(body)), record

    def publish(self, fields: dict, publisher_has_session: bool):
        """``(frames, forward records, headers were rewritten)``."""
        topic, qos = fields["topic"], int(fields.get("qos", 0))
        headers = fields.get("headers") or {}
        rewritten = False
        parent = FlowContext.from_wire(headers.get("obs")) if self.obs else None
        if parent is not None:
            span = FlowContext(parent.trace_id, f"sp-{self.spans}", parent.span_id, parent.hop + 1)
            self.spans += 1
            headers = {**headers, "obs": dict(span.to_wire())}
            rewritten = True
        if fields.get("retain", False):
            if fields.get("payload") is None:
                self.retained.pop(topic, None)
            else:
                self.retained[topic] = (fields, qos, headers)
        frames, records = [], []
        if qos == 1 and publisher_has_session:
            frames.append(("pub", encode_payload({"_t": "puback", "packet_id": fields["packet_id"]})))
        seen = set()
        for client in self.tree.match(topic):
            if client in seen:
                continue
            seen.add(client)
            if client in self.offline:
                continue
            granted = max(q for f, q in self.subscriptions[client].items() if topic_matches(f, topic))
            frame, record = self._copy(client, fields, min(qos, granted), False, headers)
            frames.append(frame)
            records.append(record)
        return frames, records, rewritten

    def late_subscribe(self, client: str, topic_filter: str, granted: int):
        """SUBACK, then what is retained under ``topic_filter``, by topic."""
        self.subscribe(client, [(topic_filter, granted)])
        frames = [(client, encode_payload({"_t": "suback", "packet_id": 9, "granted": [granted]}))]
        records = []
        for topic in sorted(self.retained):
            if topic_matches(topic_filter, topic):
                fields, qos, headers = self.retained[topic]
                frame, record = self._copy(client, fields, min(qos, granted), True, headers)
                frames.append(frame)
                records.append(record)
        return frames, records


# ----------------------------------------------------------------------
# The property
# ----------------------------------------------------------------------


def wire_form(fields: dict, loose: str) -> bytes:
    if loose == "body":
        return json.dumps({**fields, "_t": "publish"}, separators=(", ", ": ")).encode()
    data = Packet(PacketType.PUBLISH, fields).encode()
    return data.replace(b',"topic":', b', "topic": ') if loose == "topic" else data


def assert_carries_its_packet(frame: bytes) -> None:
    """A frame that carries its packet carries the one its bytes spell,
    trace context included."""
    if type(frame) is not _Wire:
        return
    packet, body = frame._packet, json.loads(frame)
    assert {**packet.fields, "_t": packet.type.value} == body
    headers = packet.get("headers")
    if isinstance(headers, dict) and "obs" in headers:
        assert FlowContext.from_wire(headers["obs"]) == FlowContext.from_wire(body["headers"]["obs"])


def check(subs, messages, late, fastpath: bool, obs: bool, publisher_has_session: bool):
    """Play one script on the bed and on the reference; returns how many
    forwards relayed the received bytes object, and how many spliced it."""
    relayed = spliced_forwards = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(packets, "WIRE_FASTPATH", fastpath)
        bed, reference = Bed(patch, obs), Reference(obs)
        broker = bed.broker
        if publisher_has_session:
            bed.send("pub", Packet.connect("pub", keepalive_s=0.0).encode())
        for i, subscriber in enumerate(subs):
            name = f"s{i}"
            bed.send(name, Packet.connect(name, clean_session=False, keepalive_s=0.0).encode())
            bed.send(name, Packet.subscribe(1, list(subscriber.filters)).encode())
            reference.subscribe(name, subscriber.filters)
            if subscriber.offline:
                bed.send(name, Packet.disconnect().encode())
                reference.offline.add(name)

        for number, inbound in enumerate(messages, start=1):
            fields = inbound.fields(packet_id=number)
            data = wire_form(fields, inbound.loose)
            traced = len(bed.runtime.tracer.select(event="mqtt.broker.forward"))
            out, reused = broker.stats.publishes_out, broker.stats.forwards_reused

            sent = bed.send("pub", data)
            expected, records, rewritten = reference.publish(fields, publisher_has_session)

            assert sent == expected  # which station, which bytes, in which order
            assert bed.forward_records(traced) == records
            assert broker.stats.publishes_out - out == len(records)
            for _station, payload in sent:
                assert_carries_its_packet(payload)
            forwards = [payload for _station, payload in sent[len(sent) - len(records):]]
            shared = [p for p, r in zip(forwards, records) if r["qos"] == 0]
            # The received object goes out exactly when it is known to be
            # the bytes a copy would encode to; with a new context, those
            # bytes spliced, exactly when the old one is known to lead them ...
            plain = (
                fastpath and inbound.loose == "no" and inbound.shape == "ctor" and inbound.qos == 0
                and not inbound.retain and not inbound.dup
            )
            reusable = plain and not rewritten
            spliced = plain and rewritten and spliceable(inbound.headers)
            assert all((p is data) == reusable for p in shared)
            assert not any(p is data for p, r in zip(forwards, records) if r["qos"] == 1)
            # ... otherwise every QoS 0 subscriber gets one shared copy,
            assert len({id(p) for p in shared}) <= 1
            # and an encode is paid per distinct object sent but a splice.
            made = len({id(p) for _s, p in sent if p is not data})
            assert bed.encodes == made - (1 if shared and spliced else 0)
            encoded_for_qos0 = 1 if shared and not (reusable or spliced) else 0
            assert broker.stats.forwards_reused - reused == len(shared) - encoded_for_qos0
            relayed += len(shared) if reusable else 0
            spliced_forwards += len(shared) if spliced else 0

        if late is not None:
            topic_filter, granted = late
            traced = len(bed.runtime.tracer.select(event="mqtt.broker.forward"))
            bed.send("late", Packet.connect("late", keepalive_s=0.0).encode())
            sent = bed.send("late", Packet.subscribe(9, [(topic_filter, granted)]).encode())
            expected, records = reference.late_subscribe("late", topic_filter, granted)
            assert sent == expected
            assert bed.forward_records(traced) == records
            assert bed.encodes == len(sent)  # retained deliveries are per call
            for _station, payload in sent:
                assert_carries_its_packet(payload)
        assert broker.stats.malformed == 0
    return relayed, spliced_forwards


@settings(max_examples=250, deadline=None)
@given(
    subs=st.lists(subscribers, min_size=1, max_size=5),
    messages=st.lists(
        st.one_of(inbounds, plain_inbounds, st.sampled_from(ONE_OFF + [TRACED, *TRACED_OFF])),
        min_size=1, max_size=4,
    ),
    late=st.none() | st.tuples(st.sampled_from(FILTERS), st.sampled_from((0, 1))),
    fastpath=st.booleans(), obs=st.booleans(), publisher_has_session=st.booleans(),
)
@example(  # five overlapping QoS 0 subscribers of one plain publish: relayed five times
    subs=[Subscriber((("a/#", 0), ("a/b", 1)), False)] * 5, messages=[PLAIN],
    late=None, fastpath=True, obs=False, publisher_has_session=False,
)
@example(  # ... and of each publish that is plain but for one thing, with and without the bypass
    subs=[Subscriber((("a/#", 0), ("a/b", 1)), False)] * 2, messages=ONE_OFF,
    late=("#", 1), fastpath=True, obs=False, publisher_has_session=True,
)
@example(
    subs=[Subscriber((("a/#", 0),), False), Subscriber((("a/b", 1),), False)], messages=[PLAIN, *ONE_OFF],
    late=("a/b", 0), fastpath=False, obs=True, publisher_has_session=True,
)
@example(  # a QoS 1 publish to a QoS 1, a QoS 0 and another QoS 0 subscriber, then retained delivery
    subs=[Subscriber((("a/b", 1),), False), Subscriber((("#", 0),), False), Subscriber((("a/+", 0),), False)],
    messages=[Inbound("a/b", 3, 1, True, False, None, "ctor", "no")],
    late=("a/#", 1), fastpath=True, obs=False, publisher_has_session=True,
)
@example(  # the span rewrites the header: the received bytes spliced, one copy shared
    subs=[Subscriber((("a/b", 0),), False), Subscriber((("#", 0),), False)],
    messages=[TRACED], late=None, fastpath=True, obs=True, publisher_has_session=False,
)
@example(  # ... and each publish that is traced but for one thing, then retained delivery
    subs=[Subscriber((("a/#", 0), ("a/b", 1)), False)] * 2, messages=[TRACED, *TRACED_OFF],
    late=("#", 0), fastpath=True, obs=True, publisher_has_session=True,
)
def test_frames_are_the_per_copy_encoders(subs, messages, late, fastpath, obs, publisher_has_session):
    check(subs, messages, late, fastpath, obs, publisher_has_session)


def test_the_reuse_branch_is_exercised():
    """The property above is vacuous if nothing is ever relayed."""
    subs = [Subscriber((("a/#", 0),), False), Subscriber((("a/b", 1),), False), Subscriber((("x/y", 1),), False)]
    assert check(subs, [PLAIN, PLAIN], None, True, False, True) == (4, 0)
    assert check(subs, [PLAIN, PLAIN], None, False, False, True) == (0, 0)
    assert check(subs, ONE_OFF, None, True, False, False) == (0, 0)


def test_the_splice_branch_is_exercised():
    """... or if nothing is ever spliced."""
    subs = [Subscriber((("a/#", 0),), False), Subscriber((("a/b", 1),), False), Subscriber((("x/y", 1),), False)]
    assert check(subs, [TRACED, TRACED], None, True, True, True) == (0, 4)
    assert check(subs, [TRACED, TRACED], None, True, False, True) == (4, 0)
    assert check(subs, [TRACED, TRACED], None, False, True, True) == (0, 0)
    assert check(subs, TRACED_OFF, None, True, True, False) == (0, 0)
