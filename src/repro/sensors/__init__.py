"""Synthetic sensor and actuator device models.

The paper's testbed feeds the middleware 32-byte samples from real sensor
nodes; its motivating applications (§III-A) use accelerometers, illuminance
/ sound / motion sensors, and crowd sensing. This package provides
deterministic synthetic equivalents with ground-truth event injection, so
examples and tests can assert that the analysis layer actually detects what
the generators planted.

Sensor models are pure: ``sample(t, rng) -> dict`` — the middleware's
SensorClass owns timing and transport. Actuator models hold device state
and record every command for assertions.
"""

from repro.sensors.base import ActuatorModel, EventSchedule, EventWindow, SensorModel
from repro.sensors.devices import (
    AccelerometerModel,
    CameraModel,
    AlertActuator,
    CrowdSensorModel,
    DimmerActuator,
    EnvironmentSensorModel,
    FixedPayloadModel,
    HvacActuator,
    SwitchActuator,
)
from repro.sensors.waveforms import random_walk, sine_wave, square_wave

__all__ = [
    "AccelerometerModel",
    "ActuatorModel",
    "AlertActuator",
    "CameraModel",
    "CrowdSensorModel",
    "DimmerActuator",
    "EnvironmentSensorModel",
    "EventSchedule",
    "EventWindow",
    "FixedPayloadModel",
    "HvacActuator",
    "SensorModel",
    "SwitchActuator",
    "random_walk",
    "sine_wave",
    "square_wave",
]
