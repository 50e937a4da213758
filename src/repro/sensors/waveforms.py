"""Composable waveform primitives for synthetic sensors."""

from __future__ import annotations

import math
import random

__all__ = ["sine_wave", "square_wave", "random_walk", "diurnal"]


def sine_wave(
    t: float, period: float, amplitude: float = 1.0, phase: float = 0.0, offset: float = 0.0
) -> float:
    """Sinusoid with the given period (seconds)."""
    return offset + amplitude * math.sin(2.0 * math.pi * (t / period) + phase)


def square_wave(t: float, period: float, high: float = 1.0, low: float = 0.0, duty: float = 0.5) -> float:
    """Square wave: ``high`` for the first ``duty`` fraction of each period."""
    position = (t % period) / period
    return high if position < duty else low


def diurnal(t: float, day_length: float = 86_400.0, peak: float = 1.0) -> float:
    """Day-shaped curve in [0, peak]: 0 at 'midnight', peak at 'noon'.

    Useful for illuminance and foot-traffic models; ``t`` wraps modulo the
    day length.
    """
    phase = (t % day_length) / day_length
    return peak * max(0.0, math.sin(math.pi * phase)) ** 2


class random_walk:  # noqa: N801 - factory object used like a function
    """Stateful bounded random walk: call with (rng) to get the next value.

    >>> walk = random_walk(start=5.0, step=0.1, low=0.0, high=10.0)
    >>> value = walk(random.Random(1))
    """

    def __init__(
        self, start: float = 0.0, step: float = 1.0, low: float = -math.inf, high: float = math.inf
    ) -> None:
        if low > high:
            raise ValueError("low must not exceed high")
        self.value = min(max(start, low), high)
        self.step = step
        self.low = low
        self.high = high

    def __call__(self, rng: random.Random) -> float:
        self.value += rng.uniform(-self.step, self.step)
        self.value = min(max(self.value, self.low), self.high)
        return self.value
