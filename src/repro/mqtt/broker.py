"""The MQTT broker (the paper's *Broker class*, Fig. 4).

One broker instance runs as a component on a neuron module (module D in the
paper's experiment, Fig. 9) and "manages the distribution of data in
accordance with the topic the subscription class specifies" (§IV-C-3).

Supported protocol surface: CONNECT/CONNACK with clean or persistent
sessions, PUBLISH at QoS 0/1 (with broker-side retransmission towards
subscribers), SUBSCRIBE/UNSUBSCRIBE with wildcards, retained messages,
PINGREQ/PINGRESP, DISCONNECT, and keep-alive-based session expiry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.net.address import Address
from repro.mqtt.inflight import InflightTable
from repro.mqtt.packets import Packet, PacketType, _Wire
from repro.mqtt.topics import _CACHE_CAP, TopicTree, topic_matches, validate_filter, validate_topic
from repro.obs.context import FlowContext
from repro.runtime.component import Component
from repro.runtime.node import Node
from repro.runtime.state import StateCell, tracked_state
from repro.errors import MQTTError, ProtocolError

__all__ = ["Broker", "BrokerStats", "BROKER_SERVICE"]

#: Service name the broker binds on its node.
BROKER_SERVICE = "mqtt"


@dataclass
class BrokerStats:
    """Counters exposed for tests and the benchmark harness."""

    connects: int = 0
    publishes_in: int = 0
    publishes_out: int = 0
    #: Forwards that sent bytes the broker did not encode for that copy.
    forwards_reused: int = 0
    #: Decodable packets dropped for a missing or wrongly typed field.
    malformed: int = 0
    pubacks_in: int = 0
    retransmissions: int = 0
    drops_give_up: int = 0
    sessions_expired: int = 0
    retained_stored: int = 0
    wills_published: int = 0


@dataclass
class _Session:
    client_id: str
    address: Address
    clean: bool
    keepalive_s: float
    last_seen: float
    subscriptions: dict[str, int] = field(default_factory=dict)
    #: Unacknowledged QoS 1 forwards; built by the broker right after the
    #: session, because the table's callbacks name it.
    inflight: InflightTable = field(init=False)
    next_packet_id: int = 1
    connected: bool = True
    will: dict[str, Any] | None = None
    #: Highest boot count seen in this client's stamped keep-alives. A
    #: ping stamped below it belongs to a dead incarnation (it was in
    #: flight across a restart) and must not pass for liveness.
    incarnation: int = 0
    #: Sanitizer tag for this session's protocol state (packet-id counter,
    #: inflight queue, liveness) — set by the broker on session creation.
    cell: StateCell | None = None

    def allocate_packet_id(self) -> int:
        pid = self.next_packet_id
        self.next_packet_id = pid % 65535 + 1
        return pid


@dataclass(frozen=True)
class _Retained:
    packet: Packet  # the publisher's PUBLISH: topic, payload and its encoded fragment
    qos: int
    headers: dict[str, Any]


class Broker(Component):
    """Topic-based message router with sessions and QoS 0/1 delivery."""

    def __init__(
        self,
        node: Node,
        name: str = "broker",
        retry_interval_s: float = 2.0,
        max_retries: int = 5,
        keepalive_grace: float = 1.5,
        sweep_interval_s: float = 5.0,
    ) -> None:
        super().__init__(node, name)
        self.retry_interval_s = retry_interval_s
        self.max_retries = max_retries
        self.keepalive_grace = keepalive_grace
        self.sweep_interval_s = sweep_interval_s
        self.stats = BrokerStats()
        self._sessions: dict[str, _Session] = {}
        self._address_index: dict[Address, str] = {}
        self._subscriptions: TopicTree[str] = TopicTree()  # filter -> client ids
        # Fan-out resolution cache: topic -> deduped [(client_id, sub_qos)]
        # in trie traversal order, exactly what the per-publish matching
        # pass would compute. Invalidated whole on any subscription change
        # (subscribe, unsubscribe, session drop) — publishes vastly
        # outnumber those, so one matching pass serves a whole run. Bounded:
        # a publisher that puts an id in the topic must not grow the broker.
        self._resolution: dict[str, list[tuple[str, int]]] = {}
        self._retained: dict[str, _Retained] = {}
        self._handlers = {
            PacketType.CONNECT: self._on_connect,
            PacketType.PUBACK: self._on_puback,
            PacketType.SUBSCRIBE: self._on_subscribe,
            PacketType.UNSUBSCRIBE: self._on_unsubscribe,
            PacketType.PINGREQ: self._on_pingreq,
            PacketType.DISCONNECT: self._on_disconnect,
        }
        # Sanitizer tags (repro.runtime.state): the broker's shared stores
        # are native containers; these cells record read/write order at the
        # access choke points so the schedule sanitizer can detect
        # schedule-order races between concurrent client packets.
        self._retained_cell = tracked_state(self.runtime, f"broker.{name}", "retained")
        self._subscriptions_cell = tracked_state(
            self.runtime, f"broker.{name}", "subscriptions"
        )
        node.bind(BROKER_SERVICE, self._on_datagram)
        self.every(sweep_interval_s, self._sweep_sessions)

    @property
    def address(self) -> Address:
        """Where clients should send their packets."""
        return self.node.address(BROKER_SERVICE)

    def session_count(self) -> int:
        return len(self._sessions)

    def inflight_count(self) -> int:
        """QoS 1 messages awaiting PUBACK across all sessions."""
        return sum(
            len(self._sessions[cid].inflight) for cid in sorted(self._sessions)
        )

    def prof_gauges(self) -> dict[str, float]:
        """Occupancy sampled by the sim-time profiler (``repro.prof``)."""
        return {
            "broker.inflight": float(self.inflight_count()),
            "broker.sessions": float(len(self._sessions)),
        }

    def metrics(self) -> dict[str, float]:
        """The gauges and every counter, for a scrape to turn into ratios
        (reused ÷ out); :meth:`prof_gauges`' keys are part of profiled traces."""
        counters = {f"broker.{k}": float(v) for k, v in vars(self.stats).items()}
        return {**self.prof_gauges(), **counters}

    def subscription_count(self) -> int:
        return len(self._subscriptions)

    def retained_topics(self) -> list[str]:
        return sorted(self._retained)

    # ------------------------------------------------------------------
    # Inbound dispatch
    # ------------------------------------------------------------------

    def _on_datagram(self, source: Address, data: bytes) -> None:
        try:
            packet = Packet.decode(data)
        except ProtocolError:
            self.trace("mqtt.broker.garbage", source=str(source))
            return
        # Routing work occupies the broker node's CPU.
        self.node.execute(
            "mqtt.route", self._handle, source, packet, data, nbytes=len(data)
        )

    def _handle(self, source: Address, packet: Packet, data: bytes) -> None:
        session = self._sessions.get(self._address_index.get(source))
        if session is not None:
            # last_seen is deliberately not a tracked write: same-instant
            # packets all store the identical timestamp, so the order of
            # these writes can never matter.
            session.last_seen = self.runtime.now
        try:
            if packet.type is PacketType.PUBLISH:
                self._on_publish(source, session, packet, data)
            elif (handler := self._handlers.get(packet.type)) is not None:
                handler(source, session, packet)
            else:
                self.trace("mqtt.broker.unexpected", type=packet.type.value)
        except MQTTError as exc:  # a missing or mistyped field: count, drop
            self.stats.malformed += 1
            reason = f"{type(exc).__name__}: {exc}"
            self.trace("mqtt.broker.garbage", source=str(source), reason=reason)

    def _send(self, destination: Address, packet: Packet) -> None:
        self.node.send(BROKER_SERVICE, destination, packet.encode())

    # ------------------------------------------------------------------
    # CONNECT / DISCONNECT / PING
    # ------------------------------------------------------------------

    def _on_connect(
        self, source: Address, _session: _Session | None, packet: Packet
    ) -> None:
        client_id = packet["client_id"]
        clean = bool(packet.get("clean_session", True))
        keepalive = packet.get("keepalive_s", 60.0)
        will = packet.get("will")  # {topic, payload, qos, retain} or None
        if not isinstance(client_id, str):
            raise ProtocolError(f"connect 'client_id' must be a string: {client_id!r}")
        if not isinstance(keepalive, (int, float)):
            raise ProtocolError(f"connect 'keepalive_s' must be a number: {keepalive!r}")
        if will and not (isinstance(will, dict) and isinstance(will.get("topic"), str)
                         and validate_topic(will["topic"]) and will.get("qos", 0) in (0, 1, 2)):
            raise ProtocolError(f"connect 'will' must be a publish to a topic: {will!r}")
        keepalive = float(keepalive)
        self.stats.connects += 1

        existing = self._sessions.get(client_id)
        session_present = existing is not None and not clean
        if existing is not None:
            # Take over: drop the old address binding and pause inflight
            # retransmissions (they resume towards the new address below).
            self._address_index.pop(existing.address, None)
            existing.inflight.pause()
            if clean:
                self._cancel_inflight(existing, reason="clean_takeover")
                self._drop_subscriptions(existing)
                existing = None
        if existing is None:
            session = _Session(
                client_id=client_id,
                address=source,
                clean=clean,
                keepalive_s=keepalive,
                last_seen=self.runtime.now,
                will=dict(will) if will else None,
            )
            session.inflight = InflightTable(
                self.runtime,
                self._guard,
                self._retry_interval,
                partial(self._retransmit, session),
                partial(self._give_up, session),
            )
            self._sessions[client_id] = session
        else:
            session = existing
            session.address = source
            session.keepalive_s = keepalive
            session.last_seen = self.runtime.now
            session.connected = True
            session.will = dict(will) if will else None
        if session.cell is None:
            session.cell = tracked_state(
                self.runtime, f"broker.{self.name}", f"session.{client_id}"
            )
            session.inflight.cell = session.cell
        session.cell.note_write()
        self._address_index[source] = client_id
        self.trace("mqtt.broker.connect", client=client_id, clean=clean)
        self._send(source, Packet.connack(session_present=session_present))
        if session_present:
            # MQTT 3.1.1 §4.4: unacknowledged PUBLISH packets are resent
            # (dup-flagged) when a persistent session resumes.
            session.inflight.resume()

    def _on_disconnect(
        self, _source: Address, session: _Session | None, _packet: Packet
    ) -> None:
        if session is None:
            return
        self.trace("mqtt.broker.disconnect", client=session.client_id)
        session.will = None  # clean disconnects never fire the will
        self._remove_session(session, expired=False)

    def _on_pingreq(
        self, source: Address, session: _Session | None, packet: Packet
    ) -> None:
        if session is None:
            return
        incarnation = packet.get("incarnation")
        if incarnation is not None:
            if type(incarnation) is not int:
                raise ProtocolError(f"pingreq 'incarnation' must be an int: {incarnation!r}")
            if incarnation < session.incarnation:
                self.trace(
                    "mqtt.broker.stale_ping",
                    client=session.client_id,
                    incarnation=incarnation,
                    current=session.incarnation,
                )
                return
            session.incarnation = incarnation
        self._send(source, Packet.pingresp())

    # ------------------------------------------------------------------
    # SUBSCRIBE / UNSUBSCRIBE
    # ------------------------------------------------------------------

    def _on_subscribe(
        self, source: Address, session: _Session | None, packet: Packet
    ) -> None:
        if session is None:
            return  # not connected; MQTT closes the socket, we drop
        packet_id, filters = packet["packet_id"], packet["filters"]
        if not isinstance(filters, list) or not all(
            isinstance(f, list) and len(f) == 2 and isinstance(f[0], str)
            and validate_filter(f[0]) and f[1] in (0, 1, 2) for f in filters
        ):
            raise ProtocolError(f"subscribe 'filters' must be [[filter, qos], ...]: {filters!r}")
        self._subscriptions_cell.note_write()
        self._resolution.clear()
        if session.cell is not None:
            session.cell.note_write()
        granted: list[int] = []
        for topic_filter, qos in filters:
            qos = min(int(qos), 1)
            if topic_filter not in session.subscriptions:
                self._subscriptions.insert(topic_filter, session.client_id)
            session.subscriptions[topic_filter] = qos
            granted.append(qos)
            self.trace(
                "mqtt.broker.subscribe",
                client=session.client_id,
                filter=topic_filter,
                qos=qos,
            )
        self._send(source, Packet.suback(packet_id, granted))
        # Retained messages are delivered after the SUBACK, per spec intent.
        for topic_filter, _qos in filters:
            self._deliver_retained(session, topic_filter)

    def _on_unsubscribe(
        self, source: Address, session: _Session | None, packet: Packet
    ) -> None:
        if session is None:
            return
        packet_id, filters = packet["packet_id"], packet["filters"]
        if not isinstance(filters, list) or not all(isinstance(f, str) for f in filters):
            raise ProtocolError(f"unsubscribe 'filters' must be strings: {filters!r}")
        self._subscriptions_cell.note_write()
        self._resolution.clear()
        if session.cell is not None:
            session.cell.note_write()
        for topic_filter in filters:
            if topic_filter in session.subscriptions:
                del session.subscriptions[topic_filter]
                self._subscriptions.remove(topic_filter, session.client_id)
                self.trace(
                    "mqtt.broker.unsubscribe",
                    client=session.client_id,
                    filter=topic_filter,
                )
        self._send(source, Packet.unsuback(packet_id))

    def _deliver_retained(self, session: _Session, topic_filter: str) -> None:
        sub_qos = session.subscriptions.get(topic_filter)
        if sub_qos is None:
            return
        self._retained_cell.note_read()
        for topic, retained in sorted(self._retained.items()):
            if topic_matches(topic_filter, topic):
                self._forward(
                    session,
                    retained.packet,
                    min(retained.qos, sub_qos),
                    retained.headers,
                    retain=True,
                )

    # ------------------------------------------------------------------
    # PUBLISH path
    # ------------------------------------------------------------------

    def _on_publish(
        self, source: Address, session: _Session | None, packet: Packet, data: bytes | None = None
    ) -> None:
        topic, qos, plain = packet.publish_shape()
        validate_topic(topic)
        fields = packet.fields
        payload = fields.get("payload")
        headers = fields.get("headers") or {}
        acked = packet["packet_id"] if qos == 1 and session is not None else None
        self.stats.publishes_in += 1
        # What QoS 0 subscribers are sent; encoded only when it differs from
        # bytes already held. The copy of a plain publish is the packet
        # received, so its bytes are ``data`` — if those are known to be that
        # packet's own encoding, which only a ``_Wire`` proves.
        wire = data if plain and type(data) is _Wire else None

        obs = self.runtime.obs
        if obs is not None:
            parent = FlowContext.from_wire(headers.get("obs"))
            if parent is not None:
                # Routing hop: one broker span per inbound publish, and the
                # forwarded copies (retained ones included) carry *its*
                # context. Header rewrite is on a copy — the publisher's
                # packet is never mutated.
                ctx = obs.point("broker", self.node, parent=parent, topic=topic)
                headers = {**headers, "obs": ctx.to_wire()}
                wire = None

        if fields.get("retain", False):
            self._retained_cell.note_write()
            if payload is None:
                self._retained.pop(topic, None)
            else:
                self._retained[topic] = _Retained(packet, qos, dict(headers))
                self.stats.retained_stored += 1

        # Acknowledge the publisher first (QoS 1 publisher-side is complete
        # once the broker owns the message).
        if acked is not None:
            self._send(source, Packet.puback(acked))

        # One delivery per client even with overlapping subscriptions (the
        # client side then dispatches to every matching local callback).
        self._subscriptions_cell.note_read()
        entries = self._resolution.get(topic)
        if entries is None:
            entries = self._resolve(topic)
            if len(self._resolution) < _CACHE_CAP:  # full: stop admitting
                self._resolution[topic] = entries
        for client_id, sub_qos in entries:
            subscriber = self._sessions.get(client_id)
            if subscriber is None or not subscriber.connected:
                continue
            if subscriber.cell is not None:
                subscriber.cell.note_read()
            if qos == 1 and sub_qos == 1:
                self._forward(subscriber, packet, 1, headers, retain=False)
                continue
            if wire is None:  # no bytes held that a copy would equal: one, for all
                wire = packet.forwarded(0, False, None, headers, None).encode()
            else:
                self.stats.forwards_reused += 1
            self.stats.publishes_out += 1
            if self.runtime.tracer.wants("mqtt.broker.forward"):
                self.trace("mqtt.broker.forward", client=client_id, topic=topic, qos=0)
            self.node.execute(
                "mqtt.forward", self.node.send, BROKER_SERVICE, subscriber.address, wire
            )

    def _resolve(self, topic: str) -> list[tuple[str, int]]:
        """One matching pass: deduped subscribers of ``topic`` with their
        effective (max over matching filters) subscription QoS, in trie
        traversal order — byte-for-byte the per-publish computation the
        cache replaces."""
        entries: list[tuple[str, int]] = []
        seen: set[str] = set()
        for client_id in self._subscriptions.match(topic):
            if client_id in seen:
                continue
            seen.add(client_id)
            session = self._sessions.get(client_id)
            sub_qos = 0
            if session is not None:
                sub_qos = max(
                    (
                        q
                        for f, q in session.subscriptions.items()
                        if topic_matches(f, topic)
                    ),
                    default=0,
                )
            entries.append((client_id, sub_qos))
        return entries

    def _forward(
        self,
        session: _Session,
        source: Packet,
        qos: int,
        headers: dict[str, Any],
        retain: bool,
    ) -> None:
        if qos == 1 and session.cell is not None:
            # Allocating a packet id and queueing the inflight entry mutate
            # the session; forward order decides the id sequence.
            session.cell.note_write()
        packet_id = session.allocate_packet_id() if qos == 1 else None
        # Packet ids recycle (and restart from 1 after a broker restart);
        # the fwd_id uniquely names this delivery attempt so end-to-end
        # accounting can pair forwards with outcomes.
        fwd_id = self.runtime.ids.next("mqtt.fwd") if qos == 1 else None
        packet = source.forwarded(qos, retain, packet_id, headers, fwd_id)
        self.stats.publishes_out += 1
        if self.runtime.tracer.wants("mqtt.broker.forward"):
            self.trace(
                "mqtt.broker.forward",
                client=session.client_id,
                topic=source.fields["topic"],
                qos=qos,
                **({"fwd_id": fwd_id} if fwd_id is not None else {}),
            )
        if qos == 1 and packet_id is not None:
            session.inflight.put(packet_id, packet, self.max_retries)
        # Fan-out transmission is per-subscriber broker work.
        self.node.execute(
            "mqtt.forward", self._send, session.address, packet
        )

    def _retry_interval(self) -> float:
        return self.retry_interval_s

    def _retransmit(self, session: _Session, packet: Packet) -> None:
        if session.cell is not None:
            session.cell.note_write()
        self.stats.retransmissions += 1
        self._send(session.address, packet)

    def _give_up(self, session: _Session, packet_id: int, packet: Packet) -> None:
        if session.cell is not None:
            session.cell.note_write()
        self.stats.drops_give_up += 1
        self.trace(
            "mqtt.broker.give_up",
            client=session.client_id,
            packet_id=packet_id,
            fwd_id=packet.get("fwd_id"),
        )

    def _on_puback(
        self, _source: Address, session: _Session | None, packet: Packet
    ) -> None:
        if session is None:
            return
        packet_id = packet["packet_id"]
        if type(packet_id) is not int:
            raise ProtocolError(f"puback 'packet_id' must be an int: {packet_id!r}")
        # The inflight-window state itself is noted on session.cell below.
        self.stats.pubacks_in += 1  # repro: san-ok[SAN021] commutative counter
        if session.cell is not None:
            session.cell.note_write()
        session.inflight.pop(packet_id, None)

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def _sweep_sessions(self) -> None:
        now = self.runtime.now
        expired = [
            s
            for s in self._sessions.values()
            if s.connected
            and s.keepalive_s > 0
            and now - s.last_seen > s.keepalive_s * self.keepalive_grace
        ]
        for session in expired:
            self.stats.sessions_expired += 1
            self.trace("mqtt.broker.expire", client=session.client_id)
            self._publish_will(session)
            self._remove_session(session, expired=True)

    def _publish_will(self, session: _Session) -> None:
        """Deliver a dead client's last-will message (MQTT 3.1.1 §3.1.2.5).

        The will behaves like a publish *from* the departed session, so it
        reaches subscribers and can set/clear retained state — which is how
        module agents tombstone their registry entry on crash.
        """
        will = session.will
        if not will:
            return
        session.will = None
        self.stats.wills_published += 1
        packet = Packet.publish(
            str(will["topic"]), will.get("payload"), retain=bool(will.get("retain", False))
        )
        # Set after the fact: nobody to acknowledge, so no packet id at QoS 1.
        packet.fields["qos"] = min(int(will.get("qos", 0)), 1)
        self.trace("mqtt.broker.will", client=session.client_id, topic=will["topic"])
        self._on_publish(session.address, None, packet)

    def _remove_session(self, session: _Session, expired: bool) -> None:
        if session.cell is not None:
            session.cell.note_write()
        self._address_index.pop(session.address, None)
        if session.clean:
            self._cancel_inflight(
                session, reason="expired" if expired else "disconnect"
            )
            self._drop_subscriptions(session)
            self._sessions.pop(session.client_id, None)
        else:
            # Persistent session: keep subscriptions AND unacknowledged
            # QoS 1 messages (retransmission resumes on reconnect), mark
            # disconnected.
            session.inflight.pause()
            session.connected = False

    def _cancel_inflight(self, session: _Session, reason: str = "teardown") -> None:
        """Drop all queued QoS 1 messages for ``session``.

        Never silent: the dropped ``fwd_id`` set is traced so end-to-end
        accounting (``repro.chaos.invariants``) can distinguish an
        *explained* loss (session ended, broker restarted) from a bug.
        """
        if session.inflight:
            self.trace(
                "mqtt.broker.inflight_dropped",
                client=session.client_id,
                reason=reason,
                fwd_ids=sorted(
                    str(i.packet.get("fwd_id"))
                    for i in session.inflight.values()
                    if i.packet.get("fwd_id") is not None
                ),
            )
        session.inflight.cancel()

    def inflight_fwd_ids(self) -> list[str]:
        """fwd_ids of every QoS 1 message still awaiting a PUBACK."""
        ids = [
            str(inflight.packet.get("fwd_id"))
            for session in self._sessions.values()
            for inflight in session.inflight.values()
            if inflight.packet.get("fwd_id") is not None
        ]
        return sorted(ids)

    def _drop_subscriptions(self, session: _Session) -> None:
        self._subscriptions_cell.note_write()
        self._resolution.clear()
        for topic_filter in session.subscriptions:
            self._subscriptions.remove(topic_filter, session.client_id)
        session.subscriptions.clear()

    def on_stop(self) -> None:
        for session in list(self._sessions.values()):
            self._cancel_inflight(session, reason="broker_stop")
        self.node.unbind(BROKER_SERVICE)
