"""Streaming anomaly detection.

Two detectors cover the elderly-monitoring application's needs (§III-A-1,
"detect emergency situations like a bone fracture by fall"):

* :class:`RobustZScore` — per-dimension running mean/std; the score is the
  largest absolute z-score across dimensions. O(dims) per datum, zero
  memory growth. Good for point outliers in magnitude.
* :class:`LofLite` — a bounded-window variant of Jubatus's ``anomaly``
  (LOF-based): the score is the ratio of the query's k-NN distance to the
  average k-NN distance among its neighbours inside a bounded window.
  Catches density anomalies that z-scores miss, at O(window) per datum.

Both expose the same two-method protocol: ``add(datum) -> score`` (score
then learn) and ``calc_score(datum)`` (score only).
"""

from __future__ import annotations

import math
from collections import deque

from repro.errors import ModelError
from repro.ml.features import Datum
from repro.util.stats import RunningStats
from repro.util.validate import require_positive

__all__ = ["RobustZScore", "LofLite"]


class RobustZScore:
    """Max absolute z-score across numeric dimensions.

    Until a dimension has ``min_samples`` observations its contribution is
    0.0 (everything is normal while the baseline forms). Unseen dimensions
    on the scoring path contribute 0.0 as well.
    """

    def __init__(self, min_samples: int = 10) -> None:
        self.min_samples = require_positive(min_samples, "min_samples")
        self._stats: dict[str, RunningStats] = {}

    def calc_score(self, datum: Datum) -> float:
        score = 0.0
        for key, value in datum.num_values.items():
            stats = self._stats.get(key)
            if stats is None or stats.count < self.min_samples:
                continue
            sigma = stats.stddev
            if sigma <= 1e-12:
                # Constant-so-far dimension: any deviation is maximally odd.
                score = max(score, math.inf if value != stats.mean else 0.0)
                continue
            score = max(score, abs(value - stats.mean) / sigma)
        return score

    def add(self, datum: Datum) -> float:
        """Score the datum, then absorb it into the baseline."""
        score = self.calc_score(datum)
        for key, value in datum.num_values.items():
            stats = self._stats.get(key)
            if stats is None:
                stats = self._stats[key] = RunningStats()
            stats.add(value)
        return score

    @property
    def dimensions(self) -> list[str]:
        return sorted(self._stats)


class LofLite:
    """Local-outlier-factor over a sliding window of recent points.

    Points are the numeric parts of datums projected onto the union of the
    keys seen so far (missing keys read as 0.0). With fewer than
    ``k + 1`` stored points every score is 1.0 (indistinguishable from
    normal), so the detector self-bootstraps on the live stream.
    """

    def __init__(self, k: int = 5, window: int = 256) -> None:
        self.k = require_positive(k, "k")
        if window <= k:
            raise ModelError(f"window ({window}) must exceed k ({k})")
        self._window: deque[dict[str, float]] = deque(maxlen=window)

    def _distance(self, a: dict[str, float], b: dict[str, float]) -> float:
        keys = sorted(set(a) | set(b))
        return math.sqrt(
            sum((a.get(key, 0.0) - b.get(key, 0.0)) ** 2 for key in keys)
        )

    def _knn_distance(self, point: dict[str, float], exclude_self: bool) -> float:
        """Average distance to the k nearest stored neighbours."""
        distances = sorted(
            self._distance(point, other) for other in self._window
        )
        if exclude_self and distances and distances[0] == 0.0:
            distances = distances[1:]
        neighbours = distances[: self.k]
        if len(neighbours) < self.k:
            return 0.0
        return sum(neighbours) / self.k

    def calc_score(self, datum: Datum) -> float:
        """k-NN distance ratio; ~1.0 is normal, >>1.0 is anomalous."""
        point = dict(datum.num_values)
        if len(self._window) <= self.k:
            return 1.0
        own = self._knn_distance(point, exclude_self=False)
        if own <= 1e-12:
            return 1.0  # sitting on top of existing data
        # Average neighbours' own k-NN distances (reachability proxy).
        neighbour_distances = sorted(
            ((self._distance(point, other), other) for other in self._window),
            key=lambda pair: pair[0],
        )[: self.k]
        reach = [
            self._knn_distance(other, exclude_self=True)
            for _d, other in neighbour_distances
        ]
        reach = [r for r in reach if r > 1e-12]
        if not reach:
            return own  # neighbourhood is degenerate; raw distance is the score
        return own / (sum(reach) / len(reach))

    def add(self, datum: Datum) -> float:
        score = self.calc_score(datum)
        self._window.append(dict(datum.num_values))
        return score

    @property
    def size(self) -> int:
        return len(self._window)
