"""Flow distribution: the Publish / Broker / Subscribe classes (Fig. 4).

Paper §IV-C-3: "the publish / subscribe system is adopted for flow
distribution between IFoT nodes, aiming to realize loosely coupled flows
and scalable messaging. Publication class is placed in the sending side,
subscription class is placed in the receiving side ... Broker class manages
the distribution of data in accordance with the topic."

The Broker class is :class:`repro.mqtt.Broker` (re-exported here under the
paper's name); PublishClass and SubscribeClass adapt the MQTT client to
typed :class:`~repro.core.flow.FlowRecord` traffic on application streams.
"""

from __future__ import annotations

from typing import Callable

from repro.core.flow import FlowRecord, topic_for_stream
from repro.mqtt.broker import Broker as BrokerClass
from repro.mqtt.client import MqttClient
from repro.mqtt.packets import Packet
from repro.obs.context import FlowContext
from repro.runtime.component import Component
from repro.runtime.node import Node
from repro.errors import SerializationError

__all__ = ["PublishClass", "SubscribeClass", "BrokerClass"]

#: Callback signature for typed flow delivery: (stream, record).
RecordCallback = Callable[[str, FlowRecord], None]


class PublishClass(Component):
    """Sending side of a flow: typed publish of FlowRecords on one stream."""

    def __init__(
        self,
        node: Node,
        client: MqttClient,
        application: str,
        stream: str,
        qos: int = 0,
    ) -> None:
        super().__init__(node, f"pub.{application}.{stream}@{node.name}")
        self.client = client
        self.application = application
        self.stream = stream
        self.topic = topic_for_stream(application, stream)
        self.qos = qos
        self.records_published = 0

    def publish_record(self, record: FlowRecord) -> None:
        """Serialize and publish one record on this flow's topic."""
        self.records_published += 1  # repro: san-ok[SAN020] commutative counter
        self.trace(
            "flow.publish",
            topic=self.topic,
            sample_id=record.sample_id,
            sensed_at=record.sensed_at,
        )
        headers = {"published_at": self.runtime.now, "stream": self.stream}
        obs = self.runtime.obs
        if obs is not None and record.ctx is not None:
            # The publish hop is a point span; its context travels to the
            # broker in the message user-properties, never in the payload.
            ctx = obs.point(
                "publish",
                self.node,
                parent=record.ctx,
                links=tuple(record.ctx_links),
                stream=self.stream,
                sample=record.sample_id,
            )
            headers["obs"] = ctx.to_wire()
        self.client.publish(
            self.topic,
            record.to_payload(),
            qos=self.qos,
            headers=headers,
        )


class SubscribeClass(Component):
    """Receiving side of a flow: decodes FlowRecords and hands them to a
    callback.

    Stream names resolve within ``application`` by default; a name of the
    form ``"<other-app>:<stream>"`` subscribes to another application's
    flow instead — the paper's "secondary / tertiary use" of curated
    streams (§VI). The callback receives the name exactly as given.
    """

    def __init__(
        self,
        node: Node,
        client: MqttClient,
        application: str,
        streams: list[str],
        callback: RecordCallback,
        qos: int = 0,
    ) -> None:
        super().__init__(node, f"sub.{application}@{node.name}")
        self.client = client
        self.application = application
        self.callback = callback
        self.records_received = 0
        self.decode_errors = 0
        self._by_topic: dict[str, str] = {}
        for stream in streams:
            if ":" in stream:
                other_app, _sep, remote = stream.partition(":")
                topic = topic_for_stream(other_app, remote)
            else:
                topic = topic_for_stream(application, stream)
            self._by_topic[topic] = stream
        self._subscriptions = [
            client.subscribe(topic, self._on_message, qos=qos)
            for topic in sorted(self._by_topic)
        ]

    @property
    def streams(self) -> list[str]:
        return sorted(self._by_topic.values())

    def _on_message(self, topic: str, payload: object, packet: Packet) -> None:
        if self.stopped:
            return
        stream = self._by_topic.get(topic)
        if stream is None:
            return
        try:
            record = FlowRecord.from_payload(payload)
        except SerializationError:
            self.decode_errors += 1  # repro: san-ok[SAN020] commutative counter
            self.trace("flow.decode_error", topic=topic)
            return
        if self.runtime.obs is not None:
            headers = packet.fields.get("headers") or {}
            wire = headers.get("obs")
            if wire is not None:
                record.ctx = FlowContext.from_wire(wire)
        self.records_received += 1  # repro: san-ok[SAN020] commutative counter
        self.callback(stream, record)

    def on_stop(self) -> None:
        for subscription in self._subscriptions:
            self.client.unsubscribe(subscription)
        self._subscriptions.clear()  # repro: san-ok[SAN020] idempotent teardown
