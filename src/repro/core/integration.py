"""Sensor / actuator integration: the Sensor and Actuator classes (Fig. 4).

Paper §IV-C-4: "Each class abstracts the hardware and the communication
interface of the sensor / actuator, and provides a common interface to
[the] flow distribution function. For example, a variety of sensor data
streams are converted to packets of [the] MQTT protocol."

:class:`SensorClass` samples an attached device model at a fixed rate and
publishes each reading as a :class:`~repro.core.flow.FlowRecord` — this is
where the ``sensed_at`` timestamp that anchors all of the paper's latency
measurements is stamped. :class:`ActuatorClass` subscribes to a command
flow and drives an attached actuator model.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.core.flow import FlowRecord
from repro.core.operators import PayloadEffect, StreamOperator, register_operator
from repro.core.recipe import parse_param, require_param
from repro.errors import RecipeError
from repro.ml.features import Datum

__all__ = ["SensorClass", "ActuatorClass"]


_SensorSettings = NamedTuple(
    "_SensorSettings", [("device", str), ("rate_hz", float), ("burst", float)]
)


class SensorClass(StreamOperator):
    """Periodic sampling source (operator name ``sensor``).

    Params: ``device`` (name of a sensor attached to the module),
    ``rate_hz`` (sampling frequency), ``burst`` (samples that may arrive
    at once, for the static latency bound; default 1). The module must
    physically host the device — recipes express that with capability
    ``sensor:<device>`` or a ``pin_to``.
    """

    cost_op = "sensor.sample"
    load_points = 1.0
    source = True
    samples_device = True
    forwards_every_record = True

    @classmethod
    def settings(cls, params: dict[str, Any]) -> _SensorSettings:
        return _SensorSettings(
            str(require_param("device", params.get("device"))),
            parse_param("rate_hz", params.get("rate_hz", 1.0), positive=True),
            parse_param("burst", params.get("burst", 1.0)),
        )

    @classmethod
    def emit_rate(
        cls, settings: _SensorSettings, in_rates: list[float], outputs: list[str]
    ) -> float:
        return settings.rate_hz

    @classmethod
    def payload_effect(cls, settings: _SensorSettings) -> PayloadEffect:
        # The payload is the device model's reading; the checker narrows
        # this to the device's channel_keys() when the testbed map knows
        # the device, and treats it as open otherwise.
        return PayloadEffect(opaque=True)

    def configure(self, settings: _SensorSettings) -> None:
        if self.subtask.inputs:
            raise RecipeError(f"{self.name}: sensor tasks take no inputs")
        self.device, self.rate_hz, _burst = settings
        self.model = self.module.sensor(self.device)
        self._rng = self.runtime.rng.stream(f"sensor.{self.node.name}.{self.device}")
        self.samples_taken = 0
        self.every(1.0 / self.rate_hz, self._tick)

    def pause(self) -> None:
        """Stop emitting samples (device flap / undervoltage); the sampling
        clock keeps running so :meth:`resume` stays phase-aligned."""
        if not self.paused:
            self.paused = True
            self.trace("sensor.paused", device=self.device)

    def resume(self) -> None:
        if self.paused:
            self.paused = False
            self.trace("sensor.resumed", device=self.device)

    def _tick(self) -> None:
        if self.paused:
            return
        sensed_at = self.runtime.now
        # Reading the hardware + packing the sample costs CPU; the
        # timestamp is the sensing instant, before that cost is paid.
        self.node.execute(self.cost_op, self._sample, sensed_at)

    def _sample(self, sensed_at: float) -> None:
        if self.stopped:
            return
        reading = self.model.sample(sensed_at, self._rng)
        record = FlowRecord(
            sample_id=self.runtime.ids.next(f"s.{self.node.name}.{self.device}"),
            source=self.node.name,
            sensed_at=sensed_at,
            datum=Datum.from_mapping(reading),
            path=[self.subtask.task_id],
        )
        obs = self.runtime.obs
        if obs is not None and obs.sampled(self.samples_taken):
            # Root of the span tree: sensing instant -> sample packed.
            span = obs.start_span(
                "sense",
                self.node,
                start=sensed_at,
                task=self.subtask.task_id,
                sample=record.sample_id,
                device=self.device,
            )
            record.ctx = obs.finish(span)
        slo = self.runtime.slo
        if slo is not None:
            slo.sensed(self.subtask.task_id, record.sample_id, sensed_at)
        self.samples_taken += 1
        self.trace(
            "sensor.sample",
            device=self.device,
            sample_id=record.sample_id,
            sensed_at=sensed_at,
        )
        self.emit(record)


class ActuatorClass(StreamOperator):
    """Command sink driving a device model (operator name ``actuator``).

    Params: ``device`` (actuator attached to the module). Incoming records
    carry the command in ``attributes['command']`` (the ``command``
    operator produces exactly that); records without one are ignored.
    """

    cost_op = "actuator.apply"
    load_points = 0.5
    forwards_every_record = True

    @classmethod
    def settings(cls, params: dict[str, Any]) -> str:
        return str(require_param("device", params.get("device")))

    @classmethod
    def payload_effect(cls, settings: str) -> PayloadEffect:
        return PayloadEffect(reads_attrs=("command",))

    def configure(self, settings: str) -> None:
        if self.subtask.outputs:
            raise RecipeError(f"{self.name}: actuator tasks produce no outputs")
        if not self.subtask.inputs:
            raise RecipeError(f"{self.name}: actuator needs an input stream")
        self.device = settings
        self.model = self.module.actuator(self.device)
        self.commands_applied = 0
        self.commands_ignored = 0

    def on_record(self, stream: str, record: FlowRecord) -> None:
        command = record.attributes.get("command")
        if not isinstance(command, dict):
            self.commands_ignored += 1
            return
        now = self.runtime.now
        self.model.actuate(now, command)
        self.commands_applied += 1
        self.trace(
            "actuator.applied",
            device=self.device,
            sample_id=record.sample_id,
            sensed_at=record.sensed_at,
            latency_s=now - record.sensed_at,
        )


register_operator("sensor", SensorClass)
register_operator("actuator", ActuatorClass)
