"""Prequential (test-then-train) evaluation for online learners.

The standard way to score a model that learns from the stream it predicts
on: each labelled example is first *predicted*, the outcome recorded, and
only then used for training. No held-out set, no leakage, and the metric
tracks concept drift naturally when computed over a sliding window.
:class:`PrequentialAccuracy` does the bookkeeping: the caller predicts,
feeds it the outcome, then trains.
"""

from __future__ import annotations

import math
from collections import deque

from repro.util.validate import require_positive

__all__ = ["PrequentialAccuracy"]


class PrequentialAccuracy:
    """Sliding-window and cumulative accuracy over prediction outcomes."""

    def __init__(self, window: int = 200) -> None:
        require_positive(window, "window")
        self._window: deque[bool] = deque(maxlen=window)
        self._window_correct = 0
        self.total = 0
        self.total_correct = 0

    def record(self, correct: bool) -> None:
        """Record one prediction outcome."""
        outcomes = self._window
        if len(outcomes) == outcomes.maxlen and outcomes[0]:
            self._window_correct -= 1
        outcomes.append(bool(correct))
        if correct:
            self._window_correct += 1
        self.total += 1
        self.total_correct += int(correct)

    @property
    def windowed(self) -> float:
        """Accuracy over the last ``window`` outcomes (NaN if none)."""
        if len(self._window) == 0:
            return math.nan
        return self._window_correct / len(self._window)

    @property
    def cumulative(self) -> float:
        """Accuracy over the entire stream (NaN if none)."""
        if self.total == 0:
            return math.nan
        return self.total_correct / self.total

    def summary(self) -> dict[str, float]:
        return {
            "count": float(self.total),
            "cumulative": self.cumulative,
            "windowed": self.windowed,
        }
