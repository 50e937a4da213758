"""Windowed stream statistics (Jubatus ``stat`` substitute).

Tracks, per key, statistics over the last ``window`` values: sum, mean,
standard deviation, min, max, and simple moments. Used by judging-class
aggregations (e.g. "mean sound level over the last 100 samples") without
storing the stream beyond the window.
"""

from __future__ import annotations

import math
from collections import deque

from repro.util.validate import require_positive

__all__ = ["WindowStat"]


class _KeyWindow:
    """Incremental sum/sum-of-squares over a bounded deque."""

    __slots__ = ("buffer", "total", "total_sq")

    def __init__(self, capacity: int) -> None:
        self.buffer: deque[float] = deque(maxlen=capacity)
        self.total = 0.0
        self.total_sq = 0.0

    def push(self, value: float) -> None:
        buffer = self.buffer
        evicted = buffer[0] if len(buffer) == buffer.maxlen else None
        buffer.append(value)
        self.total += value
        self.total_sq += value * value
        if evicted is not None:
            self.total -= evicted
            self.total_sq -= evicted * evicted


class WindowStat:
    """Per-key sliding-window statistics."""

    def __init__(self, window: int = 128) -> None:
        self.window = require_positive(window, "window")
        self._keys: dict[str, _KeyWindow] = {}

    def push(self, key: str, value: float) -> None:
        entry = self._keys.get(key)
        if entry is None:
            entry = self._keys[key] = _KeyWindow(self.window)
        entry.push(float(value))

    def count(self, key: str) -> int:
        entry = self._keys.get(key)
        return len(entry.buffer) if entry else 0

    def sum(self, key: str) -> float:
        entry = self._keys.get(key)
        return entry.total if entry else 0.0

    def mean(self, key: str) -> float:
        entry = self._keys.get(key)
        if not entry or len(entry.buffer) == 0:
            return math.nan
        return entry.total / len(entry.buffer)

    def stddev(self, key: str) -> float:
        entry = self._keys.get(key)
        if not entry or len(entry.buffer) == 0:
            return math.nan
        n = len(entry.buffer)
        mean = entry.total / n
        variance = max(0.0, entry.total_sq / n - mean * mean)
        return math.sqrt(variance)

    def min(self, key: str) -> float:
        entry = self._keys.get(key)
        if not entry or len(entry.buffer) == 0:
            return math.nan
        return min(entry.buffer)

    def max(self, key: str) -> float:
        entry = self._keys.get(key)
        if not entry or len(entry.buffer) == 0:
            return math.nan
        return max(entry.buffer)

    def moment(self, key: str, degree: int, center: float = 0.0) -> float:
        """n-th raw/central moment over the window (degree 1..4 typical)."""
        entry = self._keys.get(key)
        if not entry or len(entry.buffer) == 0:
            return math.nan
        values = entry.buffer
        return sum((v - center) ** degree for v in values) / len(values)

    @property
    def keys(self) -> list[str]:
        return sorted(self._keys)

    # ------------------------------------------------------------------
    # Migration (operator state handoff)
    # ------------------------------------------------------------------

    def export_state(self) -> dict[str, list[float]]:
        """Window contents per key, oldest first (JSON-ready)."""
        return {
            key: list(entry.buffer)
            for key, entry in sorted(self._keys.items())
        }

    def import_state(self, state: dict[str, list[float]]) -> None:
        """Rebuild the windows from :meth:`export_state` output."""
        self._keys.clear()
        for key, values in state.items():
            for value in values:
                self.push(str(key), float(value))
