"""Concrete synthetic devices for the paper's three applications."""

from __future__ import annotations

import random
from typing import Any

from repro.errors import ConfigurationError
from repro.sensors.base import ActuatorModel, EventSchedule, SensorModel
from repro.sensors.waveforms import diurnal, random_walk, sine_wave
from repro.util.validate import require_in_range, require_positive

__all__ = [
    "CameraModel",
    "FixedPayloadModel",
    "AccelerometerModel",
    "EnvironmentSensorModel",
    "CrowdSensorModel",
    "SwitchActuator",
    "DimmerActuator",
    "HvacActuator",
    "AlertActuator",
]


class FixedPayloadModel(SensorModel):
    """The paper's experiment sensor: fixed-size opaque samples.

    §V-B: "Sample sensor data (32 byte) are generated on the three neuron
    modules." We emit ``values`` numeric channels whose encoded size lands
    near the requested byte budget; the content is a deterministic pseudo
    signal so training actually converges on something.
    """

    def __init__(self, values: int = 3, label_period_s: float = 2.0) -> None:
        self.values = require_positive(values, "values")
        self.label_period_s = require_positive(label_period_s, "label_period_s")
        # Hot path: per-channel keys and periods are invariant, so compute
        # them once here instead of re-deriving f-strings and products on
        # every sample. Same float expressions as before — readings are
        # bit-identical.
        self._channels: tuple[tuple[str, float], ...] = tuple(
            (f"v{i}", self.label_period_s * (i + 1)) for i in range(self.values)
        )
        self._half_period = self.label_period_s / 2

    def channel_keys(self) -> tuple[str, ...]:
        return tuple(key for key, _period in self._channels) + ("label",)

    def sample(self, t: float, rng: random.Random) -> dict[str, Any]:
        reading: dict[str, Any] = {}
        gauss = rng.gauss
        for key, period in self._channels:
            reading[key] = round(
                sine_wave(t, period=period, amplitude=1.0) + gauss(0.0, 0.05),
                4,
            )
        # Ground-truth phase label so the experiment's Train class learns a
        # non-degenerate concept (which half-period we are in).
        reading["label"] = "hi" if (t % self.label_period_s) < self._half_period else "lo"
        return reading

class AccelerometerModel(SensorModel):
    """3-axis accelerometer worn by a monitored person (§III-A-1).

    Baseline: gravity on z plus small sway. During a planted ``fall``
    event the magnitude spikes (impact) then goes near-zero-variance
    (lying still) — the signature fall detectors key on.
    """

    def __init__(self, events: EventSchedule, sway_sigma: float = 0.08) -> None:
        self.events = events
        self.sway_sigma = sway_sigma

    def channel_keys(self) -> tuple[str, ...]:
        return ("ax", "ay", "az")

    def sample(self, t: float, rng: random.Random) -> dict[str, Any]:
        fall = self.events.active(t, "fall")
        if fall:
            event = fall[0]
            into_event = t - event.start
            if into_event < 0.3:  # impact spike
                scale = 4.0 * event.intensity
                return {
                    "ax": rng.gauss(0.0, scale),
                    "ay": rng.gauss(0.0, scale),
                    "az": rng.gauss(-2.0 * event.intensity, scale),
                }
            # post-impact stillness on the floor
            return {
                "ax": rng.gauss(0.9, 0.01),
                "ay": rng.gauss(0.0, 0.01),
                "az": rng.gauss(0.1, 0.01),
            }
        return {
            "ax": rng.gauss(0.0, self.sway_sigma),
            "ay": rng.gauss(0.0, self.sway_sigma),
            "az": rng.gauss(1.0, self.sway_sigma),
        }


class EnvironmentSensorModel(SensorModel):
    """Illuminance + sound + motion for home-appliance control (§III-A-2).

    ``occupied`` events raise sound and motion; illuminance follows a
    compressed diurnal cycle (``day_length_s``) so examples see day and
    night without simulating 24 h.
    """

    def __init__(self, events: EventSchedule, day_length_s: float = 240.0) -> None:
        self.events = events
        self.day_length_s = require_positive(day_length_s, "day_length_s")
        self._sound_floor = random_walk(start=32.0, step=0.5, low=28.0, high=40.0)

    def channel_keys(self) -> tuple[str, ...]:
        return ("illuminance_lux", "sound_db", "motion", "state")

    def sample(self, t: float, rng: random.Random) -> dict[str, Any]:
        occupied = self.events.is_active(t, "occupied")
        daylight = diurnal(t, day_length=self.day_length_s, peak=800.0)
        illuminance = daylight + rng.gauss(0.0, 5.0)
        sound = self._sound_floor(rng)
        motion = 0.0
        if occupied:
            sound += rng.uniform(15.0, 30.0)
            motion = 1.0 if rng.random() < 0.8 else 0.0
        return {
            "illuminance_lux": max(0.0, illuminance),
            "sound_db": sound,
            "motion": motion,
            # Ground-truth room state. Applications use it as the training
            # label during a calibration phase, then rely on the judge.
            "state": "occupied" if occupied else "empty",
        }


class CrowdSensorModel(SensorModel):
    """Pedestrian flow / crowdedness at a PoI (§III-A-3).

    Baseline foot traffic follows a diurnal curve scaled by the PoI's
    ``popularity``; planted ``surge`` events multiply it. ``scenic_level``
    is a slowly varying property of the PoI (e.g. cherry blossom state,
    after the paper's SakuraSensor citation).
    """

    def __init__(
        self,
        events: EventSchedule,
        popularity: float = 1.0,
        scenic_level: float = 0.5,
        day_length_s: float = 600.0,
    ) -> None:
        self.events = events
        self.popularity = require_positive(popularity, "popularity")
        self.scenic_level = require_in_range(scenic_level, 0.0, 1.0, "scenic_level")
        self.day_length_s = require_positive(day_length_s, "day_length_s")

    def channel_keys(self) -> tuple[str, ...]:
        return ("people_count", "flow_speed_mps", "scenic_level")

    def sample(self, t: float, rng: random.Random) -> dict[str, Any]:
        base = 4.0 + 20.0 * self.popularity * diurnal(t, self.day_length_s)
        for surge in self.events.active(t, "surge"):
            base *= 1.0 + 2.0 * surge.intensity
        count = max(0, int(rng.gauss(base, base * 0.15 + 0.5)))
        flow_speed = max(0.1, 1.4 - 0.012 * count + rng.gauss(0.0, 0.05))
        scenic = min(1.0, max(0.0, self.scenic_level + rng.gauss(0.0, 0.03)))
        return {
            "people_count": count,
            "flow_speed_mps": round(flow_speed, 3),
            "scenic_level": round(scenic, 3),
        }


class CameraModel(SensorModel):
    """A camera summarized to scene features (paper Fig. 5's "Camera
    monitoring" node; §III-A-3 also uses car-mounted cameras).

    Raw frames never cross the middleware — an embedded vision stage is
    assumed on-device, emitting ``motion_level`` (0..1), ``person_count``
    and ``luminance``. During a planted ``fall`` event the person stops
    registering upright motion: motion collapses while the person count
    stays, the signature "person on the floor" scene.
    """

    def __init__(self, events: EventSchedule, occupants: int = 1) -> None:
        self.events = events
        self.occupants = max(0, int(occupants))

    def channel_keys(self) -> tuple[str, ...]:
        return ("motion_level", "person_count", "luminance")

    def sample(self, t: float, rng: random.Random) -> dict[str, Any]:
        falling = self.events.is_active(t, "fall")
        if self.occupants == 0:
            motion = max(0.0, rng.gauss(0.02, 0.01))
            count = 0
        elif falling:
            motion = max(0.0, rng.gauss(0.05, 0.02))  # lying still
            count = self.occupants
        else:
            motion = min(1.0, max(0.0, rng.gauss(0.35, 0.1)))
            count = self.occupants if rng.random() > 0.05 else self.occupants - 1
        return {
            "motion_level": round(motion, 4),
            "person_count": count,
            "luminance": round(max(0.0, rng.gauss(0.5, 0.05)), 4),
        }


# --------------------------------------------------------------------------
# Actuators
# --------------------------------------------------------------------------


class SwitchActuator(ActuatorModel):
    """Binary on/off device (ceiling light relay, alarm siren...)."""

    def __init__(self, initially_on: bool = False) -> None:
        super().__init__()
        self.on = initially_on
        self.toggle_count = 0

    def _apply(self, t: float, command: dict[str, Any]) -> dict[str, Any]:
        if "on" not in command:
            raise ConfigurationError(f"switch expects {{'on': bool}}, got {command!r}")
        desired = bool(command["on"])
        if desired != self.on:
            self.toggle_count += 1
        self.on = desired
        return self.state

    @property
    def state(self) -> dict[str, Any]:
        return {"on": self.on}


class DimmerActuator(ActuatorModel):
    """Continuous 0..1 output (dimmable light)."""

    def __init__(self, level: float = 0.0) -> None:
        super().__init__()
        self.level = require_in_range(level, 0.0, 1.0, "level")

    def _apply(self, t: float, command: dict[str, Any]) -> dict[str, Any]:
        if "level" not in command:
            raise ConfigurationError(f"dimmer expects {{'level': float}}, got {command!r}")
        self.level = min(1.0, max(0.0, float(command["level"])))
        return self.state

    @property
    def state(self) -> dict[str, Any]:
        return {"level": self.level}


class HvacActuator(ActuatorModel):
    """Air conditioner with a setpoint and a mode."""

    MODES = ("off", "cool", "heat", "fan")

    def __init__(self, setpoint_c: float = 24.0) -> None:
        super().__init__()
        self.setpoint_c = setpoint_c
        self.mode = "off"

    def _apply(self, t: float, command: dict[str, Any]) -> dict[str, Any]:
        if "mode" in command:
            mode = str(command["mode"])
            if mode not in self.MODES:
                raise ConfigurationError(f"unknown HVAC mode {mode!r}")
            self.mode = mode
        if "setpoint_c" in command:
            self.setpoint_c = float(command["setpoint_c"])
        return self.state

    @property
    def state(self) -> dict[str, Any]:
        return {"mode": self.mode, "setpoint_c": self.setpoint_c}


class AlertActuator(ActuatorModel):
    """Notification sink (the elderly-monitoring 'alert messaging' node of
    Fig. 5). Records every alert for test assertions."""

    def __init__(self) -> None:
        super().__init__()
        self.alerts: list[tuple[float, str, dict[str, Any]]] = []

    def _apply(self, t: float, command: dict[str, Any]) -> dict[str, Any]:
        message = str(command.get("message", ""))
        self.alerts.append((t, message, dict(command)))
        return self.state

    @property
    def state(self) -> dict[str, Any]:
        return {"alert_count": len(self.alerts)}
